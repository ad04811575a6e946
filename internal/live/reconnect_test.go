package live

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// beaconSink is a minimal wire-speaking peer stand-in: it accepts
// connections, answers the hello exchange, counts beacon frames per
// connection generation, and can kill its current connection on demand —
// exactly the failure the reconnect path must survive.
type beaconSink struct {
	t  *testing.T
	ln net.Listener
	n  int

	mu      sync.Mutex
	conn    net.Conn
	accepts int
	frames  atomic.Uint64 // beacon frames read since the last KillConn
}

func newBeaconSink(t *testing.T, n int) *beaconSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &beaconSink{t: t, ln: ln, n: n}
	go s.acceptLoop()
	t.Cleanup(func() { ln.Close(); s.KillConn() })
	return s
}

func (s *beaconSink) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		hello, err := transport.ReadWire(conn)
		if err != nil || checkHello(hello, s.n) != nil {
			conn.Close()
			continue
		}
		// Publish the connection before the reply: ConnectPeer returns once
		// it reads the reply, and a KillConn straight after must find the
		// connection to sever.
		s.mu.Lock()
		s.conn = conn
		s.accepts++
		s.mu.Unlock()
		if err := transport.WriteWire(conn, transport.HelloMsg(s.n)); err != nil {
			conn.Close()
			continue
		}
		go func() {
			for {
				m, err := transport.ReadWire(conn)
				if err != nil {
					return
				}
				if m.Kind == transport.WireBeacon {
					s.frames.Add(1)
				}
			}
		}()
	}
}

// KillConn severs the current connection (the remote sees write failures).
func (s *beaconSink) KillConn() {
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.mu.Unlock()
	s.frames.Store(0)
}

func (s *beaconSink) Accepts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepts
}

// TestPeerReconnectAfterFailure pins the self-healing contract of outbound
// peer links: a severed connection marks the peer down, beacons shed with a
// count instead of blocking the node loops, and the writer redials with
// backoff until the link carries beacons again — all surfaced in Stats.
func TestPeerReconnectAfterFailure(t *testing.T) {
	const n = 4
	sink := newBeaconSink(t, n)
	cfg := Config{
		N: n, Edges: ringEdges(n), Owned: []int{0, 1},
		Tick: 0.05, BeaconInterval: 0.25,
		TimeScale: 2 * time.Millisecond, // beacon every ~0.5ms real: fast retries
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.ConnectPeer(sink.ln.Addr().String(), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFrames := func(why string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for sink.frames.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no beacon frames arrived %s", why)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFrames("on the initial connection")

	sink.KillConn()
	// The link must notice the failure (a write error), go down, and redial.
	deadline := time.Now().Add(10 * time.Second)
	for p.reconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer never reconnected: down=%v stats=%+v", p.down.Load(), c.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitFrames("after the reconnect")

	if sink.Accepts() < 2 {
		t.Fatalf("sink accepted %d connections, want ≥2", sink.Accepts())
	}
	st := c.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("stats do not surface the reconnect: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatalf("beacons sent into the dead link were not counted dropped: %+v", st)
	}
	if p.down.Load() {
		t.Fatal("peer still marked down after frames flowed")
	}
}

// TestPeerBackoffCapsAndSheds pins the down-state behavior when the remote
// stays dead: dial attempts back off, every shed beacon is counted, and the
// node loops keep ticking (the state machine is never blocked).
func TestPeerBackoffCapsAndSheds(t *testing.T) {
	const n = 4
	sink := newBeaconSink(t, n)
	cfg := Config{
		N: n, Edges: ringEdges(n), Owned: []int{0, 1},
		Tick: 0.05, BeaconInterval: 0.25,
		TimeScale: 2 * time.Millisecond,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.ConnectPeer(sink.ln.Addr().String(), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the remote for good: listener closed, connection severed.
	sink.ln.Close()
	sink.KillConn()
	c.Start()
	defer c.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for !p.down.Load() {
		if time.Now().After(deadline) {
			t.Fatal("peer never noticed the dead link")
		}
		time.Sleep(2 * time.Millisecond)
	}
	before, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	after, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq <= before.Seq {
		t.Fatalf("node 0 stopped applying inputs while the peer was down: %d → %d", before.Seq, after.Seq)
	}
	st := c.Stats()
	if st.PeersDown != 1 {
		t.Fatalf("stats report %d peers down, want 1", st.PeersDown)
	}
	if st.Dropped == 0 {
		t.Fatalf("shed beacons not counted: %+v", st)
	}
}

// TestPeerCloseWritesBuffered pins Close's contract on a healthy link: the
// beacons buffered when Close is called reach the remote before the
// connection closes, and closing does not count the link down.
func TestPeerCloseWritesBuffered(t *testing.T) {
	const n = 4
	sink := newBeaconSink(t, n)
	c, err := NewCluster(Config{N: n, Edges: ringEdges(n), Owned: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.ConnectPeer(sink.ln.Addr().String(), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const sent = 64 // the default QueueCapacity
	for k := 0; k < sent; k++ {
		c.offer(p.out, Envelope{From: 1, To: 2, SentAt: float64(k)})
	}
	p.Close()
	waitFor(t, "the buffered beacons to arrive", func() bool { return sink.frames.Load() == sent })
	if st := c.Stats(); st.Enqueued != sent || st.Dropped != 0 || st.PeersDown != 0 {
		t.Fatalf("after Close: %+v, want %d enqueued, none dropped, no peer down", st, sent)
	}
}
