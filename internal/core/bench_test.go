package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/topo"
)

// benchRuntime wires a 32-node line running AOPT with the oracle estimate
// layer and warms it up until all edges participate in trigger evaluation.
func benchRuntime(b testing.TB) (*runner.Runtime, *core.Algorithm) {
	b.Helper()
	const n = 32
	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift: drift.TwoGroup{Rho: 0.1 / 60, Split: n / 2},
		Seed:  1,
	})
	if err != nil {
		b.Fatalf("runner: %v", err)
	}
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.DefaultLinkParams()); err != nil {
			b.Fatalf("declare: %v", err)
		}
	}
	algo := core.MustNew(core.Params{Rho: 0.1 / 60, Mu: 0.1, GTilde: 8})
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, algo.Logical, estimate.Amplify{}))
	rt.Attach(algo)
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
	}
	if err := rt.Start(); err != nil {
		b.Fatalf("start: %v", err)
	}
	rt.Run(5) // warm up: scratch buffers grown, all edges evaluated
	return rt, algo
}

// BenchmarkCoreStep measures one integration tick of the AOPT trigger
// evaluation (decideMode over every node plus clock integration) on a
// 32-node line. The per-tick path must not allocate: run with -benchmem
// and expect 0 allocs/op.
func BenchmarkCoreStep(b *testing.B) {
	rt, algo := benchRuntime(b)
	dH := make([]float64, rt.N())
	for u := range dH {
		dH[u] = 0.02
	}
	t := rt.Engine.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 0.02
		algo.Step(t, dH)
	}
}

// messagingRing wires a 10⁴-node ring running AOPT on messaging estimates,
// starts every node at clock(u, κ) and runs one unit: four beacon rounds,
// so every directed edge holds a certified sample.
func messagingRing(b *testing.B, clock func(u int, kappa float64) float64) (*runner.Runtime, *core.Algorithm, *estimate.Messaging) {
	b.Helper()
	const n = 10000
	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift: drift.TwoGroup{Rho: 0.1 / 60, Split: n / 2},
		Seed:  1,
	})
	if err != nil {
		b.Fatalf("runner: %v", err)
	}
	ring := topo.Ring(n)
	for _, e := range ring {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.DefaultLinkParams()); err != nil {
			b.Fatalf("declare: %v", err)
		}
	}
	msg := estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
		Rho: 0.1 / 60, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04,
	})
	rt.SetEstimator(msg)
	algo := core.MustNew(core.Params{Rho: 0.1 / 60, Mu: 0.1, GTilde: 8})
	rt.Attach(algo)
	for _, e := range ring {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			b.Fatalf("appear: %v", err)
		}
	}
	kappa := algo.EdgeKappa(0, 1)
	for u := 0; u < n; u++ {
		algo.SetLogical(u, clock(u, kappa))
	}
	if err := rt.Start(); err != nil {
		b.Fatalf("start: %v", err)
	}
	rt.Run(1)
	return rt, algo, msg
}

// ringBand classifies the directed ring edges as the trigger fold sees
// them: quiet when |est − L_u| < κ − ε, where every level-1 trigger
// inequality fails, and loud when |est − L_u| ≥ 2.5κ, where both
// inequalities of the edge's side hold at level 1 (eq. 9 puts every other
// bound below 2κ).
func ringBand(rt *runner.Runtime, algo *core.Algorithm, msg *estimate.Messaging) (quiet, loud, total int) {
	n := rt.N()
	for u := 0; u < n; u++ {
		for _, v := range [2]int{(u + n - 1) % n, (u + 1) % n} {
			total++
			est, ok := msg.Estimate(u, v)
			if !ok {
				continue
			}
			gap := math.Abs(est - algo.Logical(u))
			kappa := algo.EdgeKappa(u, v)
			switch {
			case gap < kappa-msg.Eps(u, v):
				quiet++
			case gap >= 2.5*kappa:
				loud++
			}
		}
	}
	return quiet, loud, total
}

// benchFrozenStep times Step on the ring with zero hardware increments, so
// every op folds the same clocks, estimates and sample ages, and checks
// that the timed ops read live samples and left the edge classes as found.
func benchFrozenStep(b *testing.B, rt *runner.Runtime, algo *core.Algorithm, msg *estimate.Messaging) {
	dH := make([]float64, rt.N())
	quiet, loud, _ := ringBand(rt, algo, msg)
	t := rt.Engine.Now()
	misses := msg.Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 0.02
		algo.Step(t, dH)
	}
	b.StopTimer()
	if msg.Misses != misses {
		b.Fatalf("%d estimate misses during the timed ticks; the fold did not read live samples", msg.Misses-misses)
	}
	if q, l, _ := ringBand(rt, algo, msg); q != quiet || l != loud {
		b.Fatalf("the timed ticks moved the state: %d quiet and %d loud edges before, %d and %d after", quiet, loud, q, l)
	}
}

// BenchmarkCoreStepMessaging measures one integration tick of the trigger
// fold on a warmed 10⁴-node messaging ring in its steady state: every edge
// inside the level-1 band, as in the large-N ring benchmark. The per-tick
// path must not allocate: expect 0 allocs/op.
func BenchmarkCoreStepMessaging(b *testing.B) {
	rt, algo, msg := messagingRing(b, func(int, float64) float64 { return 0 })
	if quiet, _, total := ringBand(rt, algo, msg); quiet != total {
		b.Fatalf("%d of %d edges quiet; the steady ring must be quiet everywhere", quiet, total)
	}
	benchFrozenStep(b, rt, algo, msg)
}

// BenchmarkCoreStepMessagingLoud is the loud twin: neighbouring clocks
// start 4κ apart, so after the warm-up every edge still sits at least 2.5κ
// out and the fold evaluates its threshold helpers on every edge.
func BenchmarkCoreStepMessagingLoud(b *testing.B) {
	rt, algo, msg := messagingRing(b, func(u int, kappa float64) float64 { return float64(u%2) * 4 * kappa })
	if _, loud, total := ringBand(rt, algo, msg); loud != total {
		b.Fatalf("%d of %d edges loud; the loud ring must be loud everywhere", loud, total)
	}
	benchFrozenStep(b, rt, algo, msg)
}

// BenchmarkNeighborLevels measures per-node level sampling through the
// append-into-slice variant with a reused scratch buffer; 0 allocs/op. The
// map-returning NeighborLevels allocates on every call and must stay off
// per-tick paths.
func BenchmarkNeighborLevels(b *testing.B) {
	rt, algo := benchRuntime(b)
	var scratch []core.NeighborLevel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = algo.AppendNeighborLevels(i%rt.N(), scratch[:0])
	}
}

// TestAppendNeighborLevelsNoAllocs pins the 0-allocation contract outside
// benchmark runs, so `go test` alone catches a regression.
func TestAppendNeighborLevelsNoAllocs(t *testing.T) {
	rt, algo := benchRuntime(t)
	var scratch []core.NeighborLevel
	scratch = algo.AppendNeighborLevels(1, scratch[:0]) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		scratch = algo.AppendNeighborLevels(1, scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendNeighborLevels allocates %v per call, want 0", allocs)
	}
	if len(scratch) == 0 {
		t.Fatal("no visible neighbors sampled")
	}
	_ = rt
}
