package baselines_test

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/topo"
)

// BenchmarkBlockSyncStep measures one integration tick of the BlockSync
// trigger evaluation on a 32-node line. The decide walks each node's
// topology row in place; with -benchmem this must report 0 allocs/op.
func BenchmarkBlockSyncStep(b *testing.B) {
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
	algo, err := baselines.NewBlockSync(2, 0.1/60, 0.1)
	if err != nil {
		b.Fatalf("blocksync: %v", err)
	}
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
	rt.Run(5)
	dH := make([]float64, n)
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
