package topo

// Fuzz-style differential for the per-shard transit bound that sets the
// sharded event drain's windows: randomized scripts of declares and
// re-declares (parameter updates while down) are shadowed by a brute-force
// model that keeps every link version ever declared. After every step
// InTransit(s) must equal the minimum Delay−Uncertainty over every version
// declared into shard s, from either endpoint: the ratchet never rises
// when a link is re-declared slower, and never misses a faster version.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// transitVersion is one successful declare: the link and its parameters.
type transitVersion struct {
	id EdgeID
	p  LinkParams
}

// bruteIn returns, per receiving shard, the minimum Delay−Uncertainty over
// every link version ever declared, rescanned from scratch.
func bruteIn(k int, versions []transitVersion) []float64 {
	in := make([]float64, k)
	for i := range in {
		in[i] = math.Inf(1)
	}
	for _, v := range versions {
		mt := v.p.Delay - v.p.Uncertainty
		for _, to := range []int{v.id.U, v.id.V} {
			in[to%k] = math.Min(in[to%k], mt)
		}
	}
	return in
}

// minInTransit is the minimum of InTransit over every shard: the minimum
// transit over all links, since every link has a receiving shard.
func minInTransit(d *Dynamic) float64 {
	m := math.Inf(1)
	for s := 0; s < d.kShards; s++ {
		m = math.Min(m, d.InTransit(s))
	}
	return m
}

// TestPairTransitFuzz runs randomized declare scripts at several shard
// counts and checks InTransit against the brute-force shadow at every step.
func TestPairTransitFuzz(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(k)))
			n := 6 + rng.Intn(20)
			engine := sim.NewEngine()
			engine.SetEventParallelism(k)
			d := NewDynamic(n, engine, sim.NewRNG(seed))
			var versions []transitVersion
			for step := 0; step < 400; step++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				delay := 0.02 + rng.Float64()
				p := LinkParams{
					Eps:         0.1 + rng.Float64(),
					Tau:         rng.Float64() * 0.2,
					Delay:       delay,
					Uncertainty: rng.Float64() * delay,
				}
				if err := d.DeclareLink(u, v, p); err != nil {
					t.Fatalf("step %d: DeclareLink(%d,%d): %v", step, u, v, err)
				}
				versions = append(versions, transitVersion{MakeEdgeID(u, v), p})
				for s, want := range bruteIn(engine.EventShards(), versions) {
					if got := d.InTransit(s); got != want {
						t.Fatalf("K=%d seed %d step %d: InTransit(%d) = %v, brute-force %v", k, seed, step, s, got, want)
					}
				}
			}
		}
	}
}

// TestInTransitRefinesGlobal pins the relation the engine's per-shard window
// bound relies on: for every shard, the incoming minimum is at least the
// global minimum over all declared links, and at least one shard attains it.
func TestInTransitRefinesGlobal(t *testing.T) {
	engine := sim.NewEngine()
	engine.SetEventParallelism(4)
	d := NewDynamic(32, engine, sim.NewRNG(1))
	rng := rand.New(rand.NewSource(9))
	global := math.Inf(1)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(32), rng.Intn(32)
		if u == v {
			continue
		}
		delay := 0.05 + rng.Float64()*0.5
		p := LinkParams{Eps: 0.2, Tau: 0.1, Delay: delay, Uncertainty: rng.Float64() * delay * 0.5}
		if err := d.DeclareLink(u, v, p); err != nil {
			t.Fatal(err)
		}
		global = math.Min(global, p.Delay-p.Uncertainty)
	}
	attained := false
	for s := 0; s < engine.EventShards(); s++ {
		if d.InTransit(s) < global {
			t.Fatalf("InTransit(%d)=%v below global minimum %v", s, d.InTransit(s), global)
		}
		if d.InTransit(s) == global {
			attained = true
		}
	}
	if !attained {
		t.Fatalf("no shard attains the global minimum %v", global)
	}
}
