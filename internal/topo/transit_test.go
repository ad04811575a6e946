package topo

// Fuzz-style differential for the K×K per-shard-pair transit matrix that
// bounds the sharded event drain's windows: randomized scripts of declares,
// re-declares (parameter updates while down) and explicit recomputes are
// shadowed by a brute-force model that rescans the declared edge set from
// scratch. Between recomputes the incremental ratchet
// must stay a sound lower bound (smaller-or-equal lookahead = narrower
// windows = safe); immediately after RecomputeTransit it must match the
// brute-force minima exactly.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// bruteTransit recomputes the global, per-pair and per-shard-incoming minima
// of Delay−Uncertainty over the currently declared edges, from scratch.
type bruteTransit struct {
	k      int
	edges  map[EdgeID]LinkParams
	global float64
	pair   []float64
	in     []float64
}

func newBruteTransit(k int) *bruteTransit {
	return &bruteTransit{k: k, edges: make(map[EdgeID]LinkParams)}
}

func (b *bruteTransit) recompute() {
	inf := math.Inf(1)
	b.global = inf
	b.pair = make([]float64, b.k*b.k)
	b.in = make([]float64, b.k)
	for i := range b.pair {
		b.pair[i] = inf
	}
	for i := range b.in {
		b.in[i] = inf
	}
	fold := func(from, to int, mt float64) {
		g, s := from%b.k, to%b.k
		if mt < b.pair[g*b.k+s] {
			b.pair[g*b.k+s] = mt
		}
		if mt < b.in[s] {
			b.in[s] = mt
		}
	}
	for id, p := range b.edges {
		mt := p.Delay - p.Uncertainty
		if mt < b.global {
			b.global = mt
		}
		fold(id.U, id.V, mt)
		fold(id.V, id.U, mt)
	}
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

// checkSound verifies the ratchet invariant: every incremental bound is ≤ the
// brute-force minimum over the edges' current parameters (a fast edge
// re-declared slower may keep the ratchet lower — conservative, never
// higher).
func checkSound(t *testing.T, step int, d *Dynamic, b *bruteTransit) {
	t.Helper()
	b.recompute()
	if m := minInTransit(d); m > b.global {
		t.Fatalf("step %d: min InTransit %v exceeds brute-force %v", step, m, b.global)
	}
	for s := 0; s < b.k; s++ {
		if d.InTransit(s) > b.in[s] {
			t.Fatalf("step %d: InTransit(%d) %v exceeds brute-force %v", step, s, d.InTransit(s), b.in[s])
		}
		for g := 0; g < b.k; g++ {
			if d.PairTransit(g, s) > b.pair[g*b.k+s] {
				t.Fatalf("step %d: PairTransit(%d,%d) %v exceeds brute-force %v",
					step, g, s, d.PairTransit(g, s), b.pair[g*b.k+s])
			}
		}
	}
}

// checkExact verifies bitwise equality with the brute-force minima — the
// post-RecomputeTransit contract.
func checkExact(t *testing.T, step int, d *Dynamic, b *bruteTransit) {
	t.Helper()
	b.recompute()
	if m := minInTransit(d); m != b.global {
		t.Fatalf("step %d: after recompute min InTransit %v, brute-force %v", step, m, b.global)
	}
	for s := 0; s < b.k; s++ {
		if d.InTransit(s) != b.in[s] {
			t.Fatalf("step %d: after recompute InTransit(%d) %v, brute-force %v", step, s, d.InTransit(s), b.in[s])
		}
		for g := 0; g < b.k; g++ {
			if d.PairTransit(g, s) != b.pair[g*b.k+s] {
				t.Fatalf("step %d: after recompute PairTransit(%d,%d) %v, brute-force %v",
					step, g, s, d.PairTransit(g, s), b.pair[g*b.k+s])
			}
		}
	}
}

// TestPairTransitFuzz runs randomized declare/recompute scripts at several
// shard counts against the brute-force shadow.
func TestPairTransitFuzz(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(k)))
			n := 6 + rng.Intn(20)
			engine := sim.NewEngine()
			engine.SetEventParallelism(k)
			d := NewDynamic(n, engine, sim.NewRNG(seed))
			b := newBruteTransit(engine.EventShards())

			randParams := func() LinkParams {
				delay := 0.02 + rng.Float64()
				return LinkParams{
					Eps:         0.1 + rng.Float64(),
					Tau:         rng.Float64() * 0.2,
					Delay:       delay,
					Uncertainty: rng.Float64() * delay,
				}
			}
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 9: // declare or re-declare (params update while down)
					u := rng.Intn(n)
					v := rng.Intn(n)
					if u == v {
						continue
					}
					p := randParams()
					if err := d.DeclareLink(u, v, p); err != nil {
						t.Fatalf("step %d: DeclareLink(%d,%d): %v", step, u, v, err)
					}
					b.edges[MakeEdgeID(u, v)] = p
					checkSound(t, step, d, b)
				default:
					d.RecomputeTransit()
					checkExact(t, step, d, b)
				}
			}
			d.RecomputeTransit()
			checkExact(t, 400, d, b)
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
