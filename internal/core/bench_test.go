package core

import (
	"testing"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
)

// benchRuntime wires a 32-node line running AOPT with the oracle estimate
// layer and warms it up until all edges participate in trigger evaluation.
func benchRuntime(b testing.TB) (*runner.Runtime, *Algorithm) {
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
	algo := MustNew(Params{Rho: 0.1 / 60, Mu: 0.1, GTilde: 8})
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
// 32-node line. Step is called directly, so hardware clocks stay frozen and
// a certificate taken on one op would cover every later one: each op
// starts with the certificates cleared, so the timed work is the full fold
// plus its certificate bookkeeping, and the benchmark fails if a timed
// node-tick was certified. The per-tick path must not allocate: run with
// -benchmem and expect 0 allocs/op.
func BenchmarkCoreStep(b *testing.B) {
	rt, algo := benchRuntime(b)
	dH := make([]float64, rt.N())
	for u := range dH {
		dH[u] = 0.02
	}
	t := rt.Engine.Now()
	certTicks := algo.certTicks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 0.02
		algo.clearCerts()
		algo.Step(t, dH)
	}
	b.StopTimer()
	if algo.certTicks != certTicks {
		b.Fatalf("%d node-ticks skipped the fold under a certificate", algo.certTicks-certTicks)
	}
}

// BenchmarkCoreTickOracle advances a warmed 10⁴-node ring on oracle
// estimates with per-node random errors, the default policy of the public
// configuration and of geo-mobile-10k, by one integration tick per op
// through rt.Run, so certificates are set, consumed and expire as in a full
// run. It reports the share of node-ticks decided under a certificate;
// expect 0 allocs/op.
func BenchmarkCoreTickOracle(b *testing.B) {
	rt, algo := warmRing(b, func(rt *runner.Runtime, algo *Algorithm) estimate.Layer {
		return estimate.NewOracle(rt.Dyn, algo.Logical, estimate.NewPerNodeRandomError(rt.N(), sim.NewRNG(1)))
	}, func(int, float64) float64 { return 0 })
	benchTicks(b, rt, algo)
}

// BenchmarkNeighborLevels measures per-node level sampling through
// appendNeighborLevels with a reused scratch buffer; 0 allocs/op.
func BenchmarkNeighborLevels(b *testing.B) {
	rt, algo := benchRuntime(b)
	var scratch []neighborLevel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = appendNeighborLevels(algo, i%rt.N(), scratch[:0])
	}
}

// TestAppendNeighborLevelsNoAllocs pins the 0-allocation contract outside
// benchmark runs, so `go test` alone catches a regression.
func TestAppendNeighborLevelsNoAllocs(t *testing.T) {
	rt, algo := benchRuntime(t)
	var scratch []neighborLevel
	scratch = appendNeighborLevels(algo, 1, scratch[:0]) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		scratch = appendNeighborLevels(algo, 1, scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("appendNeighborLevels allocates %v per call, want 0", allocs)
	}
	if len(scratch) == 0 {
		t.Fatal("no visible neighbors sampled")
	}
	_ = rt
}

// clearCerts drops every node's certificate, so each node's next decide
// folds.
func (a *Algorithm) clearCerts() {
	for u := range a.cert {
		a.clearCert(u)
	}
}
