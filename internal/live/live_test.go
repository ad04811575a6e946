package live

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func ringEdges(n int) [][2]int {
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return edges
}

// TestLiveRingRecordReplay is the trace determinism contract of the live
// mode: a real-time ring run (real goroutines, real tickers, real channel
// transports — a genuinely nondeterministic schedule) records its trace, and
// replaying that trace through the node state machines reproduces the exact final
// state, three times over.
func TestLiveRingRecordReplay(t *testing.T) {
	const n = 8
	var trace bytes.Buffer
	c, err := NewCluster(Config{
		N: n, Edges: ringEdges(n),
		Tick: 0.05, BeaconInterval: 0.25,
		TimeScale: 10 * time.Millisecond,
		Trace:     &trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(400 * time.Millisecond)
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Records == 0 {
		t.Fatal("live run recorded no trace records")
	}
	if st.Enqueued == 0 {
		t.Fatal("live run sent no beacons")
	}
	// The run is long enough (≈40 sim units, ≈160 beacon intervals) that
	// every node must have heard from both ring neighbors.
	for _, s := range c.Snapshots() {
		if s.HW <= 0 {
			t.Fatalf("node %d never ticked: %+v", s.Node, s)
		}
		if s.Samples == 0 {
			t.Fatalf("node %d never received a beacon: %+v", s.Node, s)
		}
	}

	liveFP := c.Fingerprint()
	raw := trace.Bytes()
	var prev ReplayResult
	for i := 0; i < 3; i++ {
		res, err := ReplayTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if res.Fingerprint != liveFP {
			t.Fatalf("replay %d fingerprint %s != live fingerprint %s", i, res.Fingerprint, liveFP)
		}
		if i > 0 && res.Fingerprint != prev.Fingerprint {
			t.Fatalf("replay %d fingerprint %s != replay %d fingerprint %s",
				i, res.Fingerprint, i-1, prev.Fingerprint)
		}
		prev = res
	}
	if int(st.Records) != prev.Records {
		t.Fatalf("replay applied %d records, recorder wrote %d", prev.Records, st.Records)
	}
}

// TestLiveSkewBounded sanity-checks the protocol itself: drift-free nodes
// that start synchronized stay inside the gradient target.
func TestLiveSkewBounded(t *testing.T) {
	const n = 8
	c, err := NewCluster(Config{
		N: n, Edges: ringEdges(n),
		Tick: 0.05, BeaconInterval: 0.25,
		TimeScale: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(300 * time.Millisecond)
	rep := c.Skew()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if !rep.Legal {
		t.Fatalf("live ring left the legal region: %+v", rep)
	}
	if rep.GlobalSkew < 0 || rep.MaxLocalSkew > rep.GlobalSkew {
		t.Fatalf("inconsistent skew report: %+v", rep)
	}
}

// TestClusterConfigValidation rejects every out-of-range field, NaN
// included, at NewCluster, before a node goroutine can panic on it.
func TestClusterConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{N: 0},
		{N: maxNodes + 1},
		{N: 4, Edges: [][2]int{{0, 4}}},
		{N: 4, Edges: [][2]int{{1, 1}}},
		{N: 4, Owned: []int{7}},
		{N: 4, Rates: []float64{1, 1}},
		{N: 2, Rates: []float64{1, nan}},
		{N: 2, Rates: []float64{1, -1}},
		{N: 2, Rates: []float64{inf, 1}},
		{N: 4, S: -1}, {N: 4, S: nan}, {N: 4, S: inf},
		{N: 4, Mu: -1}, {N: 4, Mu: nan},
		{N: 4, Rho: -0.01}, {N: 4, Rho: nan},
		{N: 4, Iota: -0.05}, {N: 4, Iota: nan},
		{N: 4, Tick: -1}, {N: 4, Tick: nan}, {N: 4, Tick: inf},
		{N: 4, Tick: 1e-12}, // Tick × TimeScale = 0.02 fs: a zero ticker interval
		{N: 4, BeaconInterval: -0.25}, {N: 4, BeaconInterval: nan},
		{N: 4, TimeScale: -5 * time.Millisecond},
		{N: 4, QueueCapacity: -1},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewCluster(Config{N: 1}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}
