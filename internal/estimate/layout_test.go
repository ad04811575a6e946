package estimate

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// TestMessagingLayoutDifferential drives a reference-layout and a flat-layout
// Messaging instance through the same randomized beacon/invalidate/churn
// script over one shared topology, and demands bit-identical Estimate, Eps
// and Misses observables after every operation. This pins the sample slabs
// (keyed by the topology's directed index) to the map-backed store the same
// way the topo and core layers are pinned. Undeclares free slots that later
// declares of other pairs reuse, so a stale sample surviving a reused index
// would show up as a divergence.
func TestMessagingLayoutDifferential(t *testing.T) {
	const n = 12
	for seed := int64(0); seed < 8; seed++ {
		eng := sim.NewEngine()
		dyn := topo.NewDynamic(n, eng, sim.NewRNG(seed))
		hw := func(u int) float64 { return float64(eng.Now()) * (1 + 1e-4*float64(u)) }
		cfg := MessagingConfig{Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04}
		refCfg := cfg
		refCfg.ReferenceLayout = true
		ref := NewMessaging(n, dyn, hw, refCfg)
		soa := NewMessaging(n, dyn, hw, cfg)

		rng := sim.NewRNG(seed ^ 0x11e57)
		check := func(step int) {
			t.Helper()
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					re, rok := ref.Estimate(u, v)
					se, sok := soa.Estimate(u, v)
					if re != se || rok != sok {
						t.Fatalf("seed %d step %d: Estimate(%d,%d) ref (%v,%v) soa (%v,%v)",
							seed, step, u, v, re, rok, se, sok)
					}
					if rEps, sEps := ref.Eps(u, v), soa.Eps(u, v); rEps != sEps {
						t.Fatalf("seed %d step %d: Eps(%d,%d) ref %v soa %v",
							seed, step, u, v, rEps, sEps)
					}
				}
			}
			if ref.Misses != soa.Misses {
				t.Fatalf("seed %d step %d: Misses ref %d soa %d", seed, step, ref.Misses, soa.Misses)
			}
		}

		pair := func() (int, int) {
			u := rng.Intn(n)
			v := rng.Intn(n - 1)
			if v >= u {
				v++
			}
			return u, v
		}
		for step := 0; step < 300; step++ {
			u, v := pair()
			switch rng.Intn(7) {
			case 0:
				_ = dyn.DeclareLink(u, v, linkParams())
			case 1:
				_ = dyn.AppearInstant(u, v)
			case 2:
				_ = dyn.Disappear(u, v)
			case 3:
				// Only declared links: the runner never delivers a beacon
				// elsewhere, and the layouts differ on purpose for orphan
				// records (reference keeps an unobservable map entry, flat
				// drops it).
				if _, declared := dyn.Params(u, v); !declared {
					continue
				}
				b := transport.Beacon{L: rng.Uniform(0, 50)}
				d := transport.Delivery{MinTransit: rng.Uniform(0, 0.1)}
				ref.RecordBeacon(u, v, b, d)
				soa.RecordBeacon(u, v, b, d)
			case 4:
				ref.Invalidate(u, v)
				soa.Invalidate(u, v)
			case 5:
				eng.RunUntil(eng.Now() + sim.Time(rng.Uniform(0, 0.2)))
			case 6:
				_ = dyn.Undeclare(u, v) // fails while visible, like the runner's callers
			}
			check(step)
		}
	}
}

// TestRBSLayoutDifferential runs a reference-layout and a flat-layout RBS
// instance side by side on one engine, with overlapping listener groups (so
// the CSR dedup path is exercised), identical per-instance RNG seeds, and a
// randomized invalidation stream. Estimates, Eps, and CoListeners must agree
// exactly over the whole run.
func TestRBSLayoutDifferential(t *testing.T) {
	const n = 10
	groups := [][]int{{0, 1, 2, 3, 4}, {3, 4, 5, 6, 7, 8}, {7, 8, 9, 0}}
	for seed := int64(0); seed < 4; seed++ {
		eng := sim.NewEngine()
		hw := func(u int) float64 { return float64(eng.Now()) * (1 + 2e-4*float64(u)) }
		logical := func(u int) float64 { return float64(eng.Now()) * (1 + 1e-4*float64(u)) }
		cfg := RBSConfig{Rho: 0.002, Mu: 0.1, Jitter: 0.01, Interval: 0.5, ExchangeDelay: 0.05, TickSlop: 0.02}
		refCfg := cfg
		refCfg.ReferenceLayout = true
		// Separate-but-identically-seeded RNGs: each instance draws the same
		// jitter sequence for its own broadcasts.
		ref, err := NewRBS(n, eng, nil, sim.NewRNG(seed), hw, logical, groups, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		soa, err := NewRBS(n, eng, nil, sim.NewRNG(seed), hw, logical, groups, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.Start()
		soa.Start()

		rng := sim.NewRNG(seed ^ 0x7b5)
		for step := 0; step < 40; step++ {
			eng.RunUntil(eng.Now() + sim.Time(rng.Uniform(0.05, 0.4)))
			if rng.Bool(0.3) {
				u, v := rng.Intn(n), rng.Intn(n)
				ref.Invalidate(u, v)
				soa.Invalidate(u, v)
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					if rc, sc := ref.CoListeners(u, v), soa.CoListeners(u, v); rc != sc {
						t.Fatalf("seed %d step %d: CoListeners(%d,%d) ref %v soa %v", seed, step, u, v, rc, sc)
					}
					re, rok := ref.Estimate(u, v)
					se, sok := soa.Estimate(u, v)
					if re != se || rok != sok {
						t.Fatalf("seed %d step %d: Estimate(%d,%d) ref (%v,%v) soa (%v,%v)",
							seed, step, u, v, re, rok, se, sok)
					}
					if rEps, sEps := ref.Eps(u, v), soa.Eps(u, v); rEps != sEps {
						t.Fatalf("seed %d step %d: Eps(%d,%d) ref %v soa %v", seed, step, u, v, rEps, sEps)
					}
				}
			}
		}
		if ref.Broadcasts != soa.Broadcasts || ref.Broadcasts == 0 {
			t.Fatalf("seed %d: Broadcasts ref %d soa %d", seed, ref.Broadcasts, soa.Broadcasts)
		}
	}
}
