package topo

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkNeighbors measures neighbor enumeration with a reused scratch
// buffer — the pattern every per-tick caller (trigger evaluation, beacon
// broadcast) must follow. With -benchmem this reports 0 allocs/op; passing
// nil instead of the scratch would allocate on every call.
func BenchmarkNeighbors(b *testing.B) {
	engine := sim.NewEngine()
	d := NewDynamic(32, engine, sim.NewRNG(1))
	for _, e := range Torus(8, 4) {
		if err := d.DeclareLink(e.U, e.V, DefaultLinkParams()); err != nil {
			b.Fatalf("declare: %v", err)
		}
		if err := d.AppearInstant(e.U, e.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
	}
	var scratch []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = d.Neighbors(i%32, scratch[:0])
	}
}

// BenchmarkTopoChurn pins the cost of one edge transition cycle
// (declare if forgotten, Appear, drain detections, Disappear, drain
// detections) on a 10⁴-node ring. A lagged transition takes a cell from the
// pool and returns it when it fires, and the pending map reuses its
// entries; the pool makes its two cells, and their fire closures, in the
// warm-up loop. A chord is down far longer than its quarantine before its
// next cycle, so a later cycle's toggle forgets it and its own declare
// takes a freed slot, and rows reuse the room its entries left. So the
// measured steady state must be 0 allocs/op, but for the arena compaction
// the removed entries bring on every ten thousand or so cycles: a
// regression here means a per-transition allocation crept into the slot
// lookup, the slot free list or the cell pool.
func BenchmarkTopoChurn(b *testing.B) {
	const n = 10000
	engine := sim.NewEngine()
	d := NewDynamic(n, engine, sim.NewRNG(1))
	for _, e := range Ring(n) {
		if err := d.DeclareLink(e.U, e.V, DefaultLinkParams()); err != nil {
			b.Fatalf("declare: %v", err)
		}
		if err := d.AppearInstant(e.U, e.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
	}
	// 64 chords churn; the ring stays static, as in BenchmarkRuntime10k.
	chords := make([]EdgeID, 0, 64)
	for i := 0; i < 64; i++ {
		u := i * (n / 2) / 64
		id := MakeEdgeID(u, u+n/2)
		chords = append(chords, id)
		if err := d.DeclareLink(id.U, id.V, DefaultLinkParams()); err != nil {
			b.Fatalf("declare chord: %v", err)
		}
	}
	cycle := func(id EdgeID) {
		if _, declared := d.Params(id.U, id.V); !declared {
			if err := d.DeclareLink(id.U, id.V, DefaultLinkParams()); err != nil {
				b.Fatalf("declare chord: %v", err)
			}
		}
		if err := d.Appear(id.U, id.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
		engine.RunUntil(engine.Now() + 0.2) // past τ: detections land
		if err := d.Disappear(id.U, id.V); err != nil {
			b.Fatalf("disappear: %v", err)
		}
		engine.RunUntil(engine.Now() + 0.2)
	}
	for _, id := range chords { // warm-up: the pool makes its cells
		cycle(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(chords[i%len(chords)])
	}
}
