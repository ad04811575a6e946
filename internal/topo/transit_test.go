package topo

// Fuzz-style differential for the transit bound that sets the sharded event
// drain's windows: randomized scripts of declares and re-declares (parameter
// updates while down) are shadowed by a brute-force model that keeps every
// link version ever declared. After every step MinTransit must equal the
// minimum Delay−Uncertainty over every version declared so far: the ratchet
// never rises when a link is re-declared slower, and never misses a faster
// version.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestMinTransitFuzz runs randomized declare scripts and checks MinTransit
// against a from-scratch minimum over every version declared so far, after
// every declare.
func TestMinTransitFuzz(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		d := NewDynamic(n, sim.NewEngine(), sim.NewRNG(seed))
		if got := d.MinTransit(); !math.IsInf(got, 1) {
			t.Fatalf("seed %d: MinTransit = %v before any declare, want +Inf", seed, got)
		}
		var versions []LinkParams
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
				t.Fatalf("seed %d step %d: DeclareLink(%d,%d): %v", seed, step, u, v, err)
			}
			versions = append(versions, p)
			want := math.Inf(1)
			for _, q := range versions {
				want = math.Min(want, q.Delay-q.Uncertainty)
			}
			if got := d.MinTransit(); got != want {
				t.Fatalf("seed %d step %d: MinTransit = %v, brute-force %v", seed, step, got, want)
			}
		}
	}
}
