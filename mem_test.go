package gradsync_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	gradsync "repro"
	"repro/internal/scenario"
)

// measureRingHeap builds a ring network, runs it just long enough to
// populate beacon samples and per-edge algorithm state, and returns the
// live-heap growth attributable to the network.
func measureRingHeap(t *testing.T, n int) int64 {
	t.Helper()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	net := gradsync.MustNew(gradsync.Config{
		Topology:     gradsync.RingTopology(n),
		DiameterHint: n / 2,
		Drift:        gradsync.TwoGroupDrift(n / 2),
		Estimates:    gradsync.MessagingEstimates(false),
		Seed:         7,
	})
	net.RunFor(0.6) // a full beacon round: every sample slot written once
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(net)
	return heap
}

// TestMemoryFootprintRing is the memory-diet regression gate: a messaging
// ring must hold at most maxBytesPerNode of live heap per node. The
// structure-of-arrays layout measures ≈193 B/node at the default N; the
// bound sits above that and below the ≈241 B/node the layout held
// with 24-byte messaging samples, core's clocks in separate slabs and a
// send time in every in-flight beacon, so a return of those fails it, as
// does any new per-node state above 20 B. Default N is CI-sized; set
// GRADSYNC_MEM_N (e.g. 1000000, as the nightly workflow does) to reproduce
// the figures reported in EXPERIMENTS.md (the bound is calibrated at the
// default N). Run with -v for the bytes/node figure.
func TestMemoryFootprintRing(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement builds a full network")
	}
	n := 20000
	if s := os.Getenv("GRADSYNC_MEM_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad GRADSYNC_MEM_N=%q", s)
		}
		n = v
	}
	heap := measureRingHeap(t, n)
	perNode := float64(heap) / float64(n)
	t.Logf("N=%d ring: %.1f MiB live heap (%.0f B/node)", n, float64(heap)/(1<<20), perNode)
	const maxBytesPerNode = 225
	if perNode > maxBytesPerNode {
		t.Errorf("ring holds %.0f B/node of live heap, bound %d — the memory diet regressed", perNode, maxBytesPerNode)
	}
}

// TestMemoryFootprintGeometricChurn is the memory gate for topology churn:
// a mobile random-geometric network under churn waves. Its live heap is
// measured once its nodes have hopped about ten times each, at 40 units,
// when most of its links have flapped, and again at 180, after forty-odd
// hops each: a per-link record of past churn grows between the two, so the
// second figure must stay within 10% of the first and below
// maxBytesPerNode. The topology keeps only the present graph, forgetting a
// link a quarantine after both sides lost it, and every layer resets its
// state at a reused slot, so the figures read ≈535 and ≈527 B/node (≈538
// and ≈530 under -race; ≈663 and ≈903 when every pair that ever met kept
// its slot). Set GRADSYNC_MEM_GEO_N to run the gate at another size (the
// nightly workflow runs N = 10⁶); the hop interval scales as 1/N, so a node
// hops as often at every size, and GRADSYNC_MEM_GEO_UNITS replaces the
// 180-unit horizon. Run with -v for the figures.
func TestMemoryFootprintGeometricChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement builds a full network")
	}
	n, horizon := 2048, 180.0
	if s := os.Getenv("GRADSYNC_MEM_GEO_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad GRADSYNC_MEM_GEO_N=%q", s)
		}
		n = v
	}
	if s := os.Getenv("GRADSYNC_MEM_GEO_UNITS"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 40) {
			t.Fatalf("bad GRADSYNC_MEM_GEO_UNITS=%q: want a horizon past 40", s)
		}
		horizon = v
	}
	radius := 1 / (0.45 * float64(n))
	geo := &scenario.RandomGeometric{Radius: radius, StepEvery: 0.002 * 2048 / float64(n)}
	waves := &scenario.ChurnWaves{WaveEvery: 4, BurstSize: 6, Spacing: 0.3, Pairs: chords(n, 48)}
	initial := (&scenario.RandomGeometric{Radius: radius}).InitialEdges(n)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	net := gradsync.MustNew(gradsync.Config{
		Topology:     gradsync.CustomTopology(n, initial),
		DiameterHint: n/4 + 2,
		Drift:        gradsync.TwoGroupDrift(n / 2),
		Scenario:     scenario.Compose(geo, waves),
		Seed:         7,
	})
	perNode := func() float64 {
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	}
	net.RunFor(40) // about ten hops per node
	ref, churn := perNode(), geo.EdgeEvents
	net.RunFor(horizon - 40)
	end := perNode()
	links := len(net.Runtime().Dyn.DeclaredEdges(nil))
	runtime.KeepAlive(net)
	if geo.Err != nil || waves.Err != nil {
		t.Fatalf("scenario failed: %v, %v", geo.Err, waves.Err)
	}
	t.Logf("N=%d geometric churn: %d initial links, %d edge events by 40 units and %d by %v, %d links held at the end; %.0f B/node of live heap at 40 units, %.0f at %v",
		n, len(initial), churn, geo.EdgeEvents+waves.Toggles, horizon, links, ref, end, horizon)
	if churn < 2*len(initial) {
		t.Fatalf("only %d edge events by 40 units for %d initial links: too little churn to measure", churn, len(initial))
	}
	if end > 1.1*ref {
		t.Errorf("live heap grew from %.0f B/node at 40 units to %.0f at %v, more than 10%% — topology state grows with churn history", ref, end, horizon)
	}
	const maxBytesPerNode = 590
	if end > maxBytesPerNode {
		t.Errorf("churning geometric network holds %.0f B/node of live heap at %v units, bound %d", end, horizon, maxBytesPerNode)
	}
}

// TestTransportSlabFootprintRing extends the memory-diet gate to the
// transport: the pooled slab bytes (beacon and control queues with their
// slabs, runs and bucket rings, outboxes, per-sender streams and counters)
// reported by Network.SlabBytes are exact and deterministic for a fixed
// configuration — traffic is deterministic and slabs grow append-only — so
// the per-node figure is pinned against a hard bound rather than a relative
// comparison. It runs at EventParallelism 1, where one shard holds every
// in-flight message and no outbox exists, and at 2, the benchmark's
// setting, which adds a second queue per class and the cross-shard outboxes.
// The bound sits just above the measured steady state (≈48.8 and
// ≈66.1 B/node on a ring: in-flight beacons cover Delay/BeaconInterval of
// the per-node send rate, plus 12 B of stream and send-counter state), and
// below the ≈77.4 B/node at EventParallelism 2 of 56-byte records and a
// second send counter; packing regressions (record growth, outbox headroom
// creep) blow through it.
func TestTransportSlabFootprintRing(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement builds a full network")
	}
	const n = 20000
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("evpar=%d", k), func(t *testing.T) {
			net := gradsync.MustNew(gradsync.Config{
				Topology:         gradsync.RingTopology(n),
				DiameterHint:     n / 2,
				Drift:            gradsync.TwoGroupDrift(n / 2),
				Estimates:        gradsync.MessagingEstimates(false),
				Seed:             7,
				EventParallelism: k,
			})
			net.RunFor(0.6) // a full beacon round at steady in-flight population
			slab := net.Runtime().Net.SlabBytes()
			perNode := float64(slab) / float64(n)
			t.Logf("N=%d ring, EventParallelism %d: transport slabs %.2f MiB (%.1f B/node)", n, k, float64(slab)/(1<<20), perNode)
			const maxBytesPerNode = 72
			if perNode > maxBytesPerNode {
				t.Errorf("transport retains %.1f B/node, bound %d — per-node transport state regressed", perNode, maxBytesPerNode)
			}
		})
	}
}
