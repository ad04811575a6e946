package live

import (
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestTwoProcessRingOverTCP splits a 4-ring across two clusters (stand-ins
// for two OS processes) peered over loopback TCP: nodes 0–1 in one, 2–3 in
// the other. Every node has one local and one remote neighbor, so the test
// passes only if beacons cross the wire in both directions.
func TestTwoProcessRingOverTCP(t *testing.T) {
	base := Config{
		N: 4, Edges: ringEdges(4),
		Tick: 0.05, BeaconInterval: 0.25,
		TimeScale: 10 * time.Millisecond,
	}
	cfgA, cfgB := base, base
	cfgA.Owned = []int{0, 1}
	cfgB.Owned = []int{2, 3}
	a, err := NewCluster(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCluster(cfgB)
	if err != nil {
		t.Fatal(err)
	}

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()
	go a.ServePeers(lnA)
	go b.ServePeers(lnB)

	if _, err := a.ConnectPeer(lnB.Addr().String(), []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectPeer(lnA.Addr().String(), []int{0, 1}); err != nil {
		t.Fatal(err)
	}

	a.Start()
	b.Start()
	defer b.Stop()
	defer a.Stop()

	// Wait until every node holds samples from both neighbors — one of which
	// can only have arrived over TCP.
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, c := range []*Cluster{a, b} {
			for _, s := range c.Snapshots() {
				if s.Samples < 2 {
					done = false
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never heard both neighbors: A=%+v B=%+v", a.Snapshots(), b.Snapshots())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cluster{"a": a, "b": b} {
		if st := c.Stats(); st.Unrouted != 0 {
			t.Fatalf("cluster %s dropped %d unrouted envelopes", name, st.Unrouted)
		}
	}
}

// TestConnectPeerRejectsMismatch pins the hello handshake: a peer configured
// for a different network size must be refused at connect time.
func TestConnectPeerRejectsMismatch(t *testing.T) {
	big, err := NewCluster(Config{N: 8, Edges: ringEdges(8)})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewCluster(Config{N: 4, Edges: ringEdges(4)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go big.ServePeers(ln)
	if _, err := small.ConnectPeer(ln.Addr().String(), []int{0}); err == nil {
		t.Fatal("handshake accepted peers configured for different network sizes")
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInboundFramesValidated drives a cluster owning node 0 of the line
// 0–1–2 from a fake TCP peer speaking for the other nodes. No frame it sends
// may raise node 0's M: with no valid beacon applied, M stays finite and
// equal to L. Frames ReadWire refuses (non-finite values, negative
// transit) and beacons from a node that is not 0's neighbour are dropped
// and counted, as is a first frame that is not a matching hello; a
// neighbour's beacon declaring a huge transit is applied with the cluster's
// own link transit instead.
func TestInboundFramesValidated(t *testing.T) {
	c, err := NewCluster(Config{
		N: 3, Edges: [][2]int{{0, 1}, {1, 2}}, Owned: []int{0},
		Tick: 0.05, BeaconInterval: 0.25, TimeScale: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go c.ServePeers(ln)
	c.Start()
	defer c.Stop()

	node0 := func() NodeSnapshot {
		s, err := c.Snapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	unraised := func(what string) {
		t.Helper()
		if s := node0(); math.IsNaN(s.M) || math.IsInf(s.M, 0) || s.M != s.L {
			t.Fatalf("%s: node 0 has L=%v M=%v, want M finite and equal to L", what, s.L, s.M)
		}
	}
	connect := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	dial := func() net.Conn {
		t.Helper()
		conn := connect()
		if err := transport.WriteWire(conn, transport.HelloMsg(3)); err != nil {
			t.Fatal(err)
		}
		if hello, err := transport.ReadWire(conn); err != nil || checkHello(hello, 3) != nil {
			t.Fatalf("hello exchange: %+v, %v", hello, err)
		}
		return conn
	}
	waitFor(t, "node 0 to run", func() bool { return node0().L > 1 })

	// Frames ReadWire refuses; each ends its connection. The offsets index
	// the float fields of an encoded beacon frame (after the length prefix,
	// kind byte and two endpoint ids).
	const sentAt, minTransit, lField, mField = 13, 21, 29, 37
	good, err := transport.AppendWire(nil, transport.BeaconMsg(1, 0, 1, 0, transport.Beacon{L: 1, M: 1}))
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		off  int
		v    float64
	}{
		{"M=+Inf", mField, math.Inf(1)},
		{"M=NaN", mField, math.NaN()},
		{"L=-Inf", lField, math.Inf(-1)},
		{"SentAt=NaN", sentAt, math.NaN()},
		{"MinTransit=+Inf", minTransit, math.Inf(1)},
		{"MinTransit=-1", minTransit, -1},
	}
	var rejected uint64
	for _, b := range bad {
		frame := append([]byte(nil), good...)
		binary.BigEndian.PutUint64(frame[b.off:], math.Float64bits(b.v))
		conn := dial()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		rejected++
		waitFor(t, b.name+" to be rejected", func() bool { return c.Stats().Rejected == rejected })
		conn.Close()
		unraised(b.name)
	}

	// The first frame on a connection must be a hello for this cluster's
	// shape; anything else ends the connection and counts. A connection
	// closed before sending anything does not count.
	connect().Close()
	infFirst := append([]byte(nil), good...)
	binary.BigEndian.PutUint64(infFirst[mField:], math.Float64bits(math.Inf(1)))
	helloN4, err := transport.AppendWire(nil, transport.HelloMsg(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, first := range []struct {
		name  string
		frame []byte
	}{
		{"beacon before hello", good},
		{"M=+Inf before hello", infFirst},
		{"hello for 4 nodes", helloN4},
		{"zero-length frame", make([]byte, 4)},
	} {
		conn := connect()
		if _, err := conn.Write(first.frame); err != nil {
			t.Fatal(err)
		}
		rejected++
		waitFor(t, first.name+" to be rejected", func() bool { return c.Stats().Rejected == rejected })
		conn.Close()
		unraised(first.name)
	}

	// Well-formed frames share one connection.
	conn := dial()
	defer conn.Close()
	if err := transport.WriteWire(conn, transport.BeaconMsg(2, 0, 1, 0, transport.Beacon{L: 1e9, M: 1e9})); err != nil {
		t.Fatal(err)
	}
	rejected++
	waitFor(t, "the non-neighbour beacon to be rejected", func() bool { return c.Stats().Rejected == rejected })
	unraised("beacon from non-neighbour 2")
	if err := transport.WriteWire(conn, transport.BeaconMsg(1, 0, 1, 1e6, transport.Beacon{L: 0, M: 0})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "neighbour 1's beacon to land", func() bool { return node0().Samples == 1 })
	unraised("beacon declaring a 1e6 transit")
	if got := c.Stats().Rejected; got != rejected {
		t.Fatalf("Stats.Rejected = %d, want %d", got, rejected)
	}
}
