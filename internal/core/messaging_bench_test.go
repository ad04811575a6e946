package core

import (
	"math"
	"testing"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/topo"
)

// The messaging benchmarks live in package core so they can clear the
// quiet-node certificates and read the certified tally.

// warmRing wires a 10⁴-node ring running AOPT on the estimate layer est
// builds, starts every node at clock(u, κ) and runs one unit: on messaging
// estimates four beacon rounds, so every directed edge holds a certified
// sample.
func warmRing(b *testing.B, est func(rt *runner.Runtime, algo *Algorithm) estimate.Layer, clock func(u int, kappa float64) float64) (*runner.Runtime, *Algorithm) {
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
	algo := MustNew(Params{Rho: 0.1 / 60, Mu: 0.1, GTilde: 8})
	rt.SetEstimator(est(rt, algo))
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
	return rt, algo
}

// messagingRing is warmRing on uncentered messaging estimates.
func messagingRing(b *testing.B, clock func(u int, kappa float64) float64) (*runner.Runtime, *Algorithm, *estimate.Messaging) {
	b.Helper()
	var msg *estimate.Messaging
	rt, algo := warmRing(b, func(rt *runner.Runtime, _ *Algorithm) estimate.Layer {
		msg = estimate.NewMessaging(rt.N(), rt.Dyn, rt.Hardware, estimate.MessagingConfig{
			Rho: 0.1 / 60, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04,
		})
		return msg
	}, clock)
	return rt, algo, msg
}

// ringBand classifies the directed ring edges as the trigger fold sees
// them: quiet when |est − L_u| < κ − ε, where every level-1 trigger
// inequality fails, and loud when |est − L_u| ≥ 2.5κ, where both
// inequalities of the edge's side hold at level 1 (eq. 9 puts every other
// bound below 2κ).
func ringBand(rt *runner.Runtime, algo *Algorithm, msg *estimate.Messaging) (quiet, loud, total int) {
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
			dir, _ := rt.Dyn.Dir(u, v)
			switch {
			case gap < kappa-msg.Eps(dir):
				quiet++
			case gap >= 2.5*kappa:
				loud++
			}
		}
	}
	return quiet, loud, total
}

// benchFrozenStep times Step on the ring with zero hardware increments, so
// every op folds the same clocks, estimates and sample ages. A certificate
// taken on one op would cover every later one, so each op starts with the
// slab cleared: the timed work is the full fold plus its certificate
// bookkeeping. It checks that the timed ops read live samples, folded
// every node and left the edge classes as found.
func benchFrozenStep(b *testing.B, rt *runner.Runtime, algo *Algorithm, msg *estimate.Messaging) {
	dH := make([]float64, rt.N())
	quiet, loud, _ := ringBand(rt, algo, msg)
	t := rt.Engine.Now()
	misses, certTicks := msg.Misses, algo.certTicks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 0.02
		algo.clearCerts()
		algo.Step(t, dH)
	}
	b.StopTimer()
	if msg.Misses != misses {
		b.Fatalf("%d estimate misses during the timed ticks; the fold did not read live samples", msg.Misses-misses)
	}
	if algo.certTicks != certTicks {
		b.Fatalf("%d node-ticks skipped the fold under a certificate", algo.certTicks-certTicks)
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
// out and the fold evaluates its threshold helpers on every edge. No node
// of it can hold a certificate, so it prices the certificate bookkeeping.
func BenchmarkCoreStepMessagingLoud(b *testing.B) {
	rt, algo, msg := messagingRing(b, func(u int, kappa float64) float64 { return float64(u%2) * 4 * kappa })
	if _, loud, total := ringBand(rt, algo, msg); loud != total {
		b.Fatalf("%d of %d edges loud; the loud ring must be loud everywhere", loud, total)
	}
	benchFrozenStep(b, rt, algo, msg)
}

// BenchmarkCoreTickMessaging advances the warmed steady ring of
// BenchmarkCoreStepMessaging by one integration tick per op through
// rt.Run, so beacons arrive, samples age and hardware clocks move, and
// certificates are set, lowered and consumed as in a full run. It reports
// the share of node-ticks decided under a certificate; expect 0 allocs/op.
func BenchmarkCoreTickMessaging(b *testing.B) {
	rt, algo, _ := messagingRing(b, func(int, float64) float64 { return 0 })
	benchTicks(b, rt, algo)
}

// benchTicks times one integration tick per op through rt.Run and reports
// the share of the timed node-ticks decided under a certificate.
func benchTicks(b *testing.B, rt *runner.Runtime, algo *Algorithm) {
	ticks, certTicks := algo.FastTicks+algo.SlowTicks, algo.certTicks
	t := rt.Engine.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += rt.Tick()
		rt.Run(t)
	}
	b.StopTimer()
	ticks = algo.FastTicks + algo.SlowTicks - ticks
	if ticks == 0 {
		b.Fatal("no node-tick decided during the timed ops")
	}
	b.ReportMetric(float64(algo.certTicks-certTicks)/float64(ticks), "certified/node-tick")
}
