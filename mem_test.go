package gradsync_test

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	gradsync "repro"
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
// structure-of-arrays layout measures ≈380 B/node at the default N; the
// bound sits between that and the ≈461 B/node the layout held before its
// records and samples were keyed by topo's directed index, so a return of
// per-edge maps or a per-record field regrowth fails it. Default N is
// CI-sized; set GRADSYNC_MEM_N (e.g. 1000000) to reproduce the figures
// reported in EXPERIMENTS.md (the bound is calibrated at the default N).
// Run with -v for the bytes/node figure.
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
	const maxBytesPerNode = 440
	if perNode > maxBytesPerNode {
		t.Errorf("ring holds %.0f B/node of live heap, bound %d — the memory diet regressed", perNode, maxBytesPerNode)
	}
}

// TestTransportSlabFootprintRing extends the memory-diet gate to the
// transport: the pooled slab bytes (messages, controls, heaps, free lists,
// outboxes, per-sender streams and counters) reported by Network.SlabBytes
// are exact and deterministic for a fixed configuration — traffic is
// deterministic and slabs grow append-only — so the per-node figure is
// pinned against a hard bound rather than a relative comparison. The bound
// has ~1.5× headroom over the measured steady state (≈61 B/node on a ring:
// in-flight beacons cover Delay/BeaconInterval of the per-node send rate,
// plus 24 B of stream + counter state); packing regressions (message record
// growth, outbox headroom creep) blow through it.
func TestTransportSlabFootprintRing(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement builds a full network")
	}
	const n = 20000
	net := gradsync.MustNew(gradsync.Config{
		Topology:     gradsync.RingTopology(n),
		DiameterHint: n / 2,
		Drift:        gradsync.TwoGroupDrift(n / 2),
		Estimates:    gradsync.MessagingEstimates(false),
		Seed:         7,
	})
	net.RunFor(0.6) // a full beacon round at steady in-flight population
	slab := net.Runtime().Net.SlabBytes()
	perNode := float64(slab) / float64(n)
	t.Logf("N=%d ring: transport slabs %.2f MiB (%.1f B/node)", n, float64(slab)/(1<<20), perNode)
	const maxBytesPerNode = 96
	if perNode > maxBytesPerNode {
		t.Errorf("transport retains %.1f B/node, bound %d — per-node transport state regressed", perNode, maxBytesPerNode)
	}
}
