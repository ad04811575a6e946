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
// structure-of-arrays layout measures ≈204 B/node at the default N; the
// bound sits just above that and below the ≈241 B/node the layout held
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
// a mobile random-geometric network under churn waves, run until its nodes
// have hopped about ten times each, so most of its links have flapped. Its
// live heap must stay within maxBytesPerNode. It measures ≈663 B/node
// (≈670 under -race), and ≈694 with core's clocks in separate slabs and a
// send time in every in-flight message. A per-link record of past churn
// grows with that history and fails the bound: the transition state kept
// for every link that ever flapped, with a packed pair → slot map beside
// the adjacency rows, measured ≈1,650 B/node, and core's handshake and
// insertion state kept for every declared link, not only for those up and
// inserting, ≈975 B/node. Transition state held only while a transition is
// pending does not. Run with -v for the figures.
func TestMemoryFootprintGeometricChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement builds a full network")
	}
	const n = 2048
	radius := 1 / (0.45 * float64(n))
	geo := &scenario.RandomGeometric{Radius: radius, StepEvery: 0.002}
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
	net.RunFor(40) // 20,000 hops: about ten per node
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	declared := len(net.Runtime().Dyn.DeclaredEdges(nil))
	runtime.KeepAlive(net)
	if geo.Err != nil || waves.Err != nil {
		t.Fatalf("scenario failed: %v, %v", geo.Err, waves.Err)
	}
	t.Logf("N=%d geometric churn: %d initial and %d declared links, %d edge events, %.0f B/node of live heap",
		n, len(initial), declared, geo.EdgeEvents+waves.Toggles, perNode)
	if geo.EdgeEvents < declared {
		t.Fatalf("only %d edge events for %d declared links: too little churn to measure", geo.EdgeEvents, declared)
	}
	const maxBytesPerNode = 700
	if perNode > maxBytesPerNode {
		t.Errorf("churning geometric network holds %.0f B/node of live heap, bound %d — topology state grows with churn history", perNode, maxBytesPerNode)
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
