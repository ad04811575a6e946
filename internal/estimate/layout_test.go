package estimate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// beaconOracle serves the Messaging observables from one LocalBeacons per
// receiver: the node-local store of the live mode, which keeps its samples
// in its own sorted per-node slices and shares only the estimate math with
// Messaging. The oracle adds what Messaging takes from the topology — a
// query needs a link the querying node sees, a newly declared link starts
// without samples, Eps is +Inf on an undeclared pair — and counts a miss
// wherever Messaging must.
type beaconOracle struct {
	dyn    *topo.Dynamic
	hw     func(int) float64
	local  []*LocalBeacons
	misses uint64
}

func newBeaconOracle(n int, dyn *topo.Dynamic, hw func(int) float64, cfg MessagingConfig, link topo.LinkParams) *beaconOracle {
	o := &beaconOracle{dyn: dyn, hw: hw, local: make([]*LocalBeacons, n)}
	for u := range o.local {
		o.local[u] = NewLocalBeacons(cfg, link)
	}
	return o
}

// declare declares {u,v} on the shared topology, dropping both directions'
// samples when the link is new.
func (o *beaconOracle) declare(u, v int, p topo.LinkParams) error {
	_, had := o.dyn.Params(u, v)
	err := o.dyn.DeclareLink(u, v, p)
	if err == nil && !had {
		invalidateLocal(o.local[u], v)
		invalidateLocal(o.local[v], u)
	}
	return err
}

func (o *beaconOracle) estimate(u, v int) (float64, bool) {
	if !o.dyn.Sees(u, v) {
		return 0, false
	}
	e, ok := o.local[u].Estimate(v, o.hw(u))
	if !ok {
		o.misses++
	}
	return e, ok
}

func (o *beaconOracle) eps(u int) float64 { return o.local[u].Eps() }

// TestMessagingLayoutDifferential drives Messaging and the LocalBeacons
// oracle through the same randomized beacon/invalidate/churn script over
// one shared topology, and demands bit-identical Estimate, Eps and Misses
// observables after every operation. This pins the sample slabs (keyed by
// the topology's directed index) to a store keyed by peer id. The script
// runs over 12 nodes and again over 4, where random pairs repeat often
// enough that invalidations and re-declares hit live samples.
func TestMessagingLayoutDifferential(t *testing.T) {
	for _, n := range []int{12, 4} {
		for seed := int64(0); seed < 8; seed++ {
			runMessagingScript(t, n, seed)
		}
	}
}

// runMessagingScript runs one 300-step script of
// TestMessagingLayoutDifferential over n nodes.
func runMessagingScript(t *testing.T, n int, seed int64) {
	t.Helper()
	eng := sim.NewEngine()
	dyn := topo.NewDynamic(n, eng, sim.NewRNG(seed))
	hw := func(u int) float64 { return float64(eng.Now()) * (1 + 1e-4*float64(u)) }
	cfg := MessagingConfig{Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04}
	oracle := newBeaconOracle(n, dyn, hw, cfg, linkParams())
	soa := NewMessaging(n, dyn, hw, cfg)

	rng := sim.NewRNG(seed ^ 0x11e57)
	check := func(step int) {
		t.Helper()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				re, rok := oracle.estimate(u, v)
				se, sok := soa.Estimate(u, v)
				if math.Float64bits(re) != math.Float64bits(se) || rok != sok {
					t.Fatalf("n=%d seed %d step %d: Estimate(%d,%d) oracle (%v,%v) messaging (%v,%v)",
						n, seed, step, u, v, re, rok, se, sok)
				}
				dir, ok := oracle.dyn.Dir(u, v)
				if !ok {
					continue
				}
				if rEps, sEps := oracle.eps(u), soa.Eps(dir); math.Float64bits(rEps) != math.Float64bits(sEps) {
					t.Fatalf("n=%d seed %d step %d: Eps(%d,%d) oracle %v messaging %v",
						n, seed, step, u, v, rEps, sEps)
				}
			}
		}
		if oracle.misses != soa.Misses {
			t.Fatalf("n=%d seed %d step %d: Misses oracle %d messaging %d", n, seed, step, oracle.misses, soa.Misses)
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
		switch rng.Intn(6) {
		case 0:
			_ = oracle.declare(u, v, linkParams())
		case 1:
			_ = dyn.AppearInstant(u, v)
		case 2:
			_ = dyn.Disappear(u, v)
		case 3:
			// Only declared links: the runner never delivers a beacon
			// elsewhere, and a delivery carries the receiver's index.
			dir, declared := dyn.Dir(u, v)
			if !declared {
				continue
			}
			b := transport.Beacon{L: rng.Uniform(0, 50)}
			d := transport.Delivery{Dir: dir, MinTransit: rng.Uniform(0, 0.1)}
			oracle.local[u].Record(v, b.L, hw(u), d.MinTransit)
			soa.RecordBeacon(u, v, b, d)
		case 4:
			invalidateLocal(oracle.local[u], v)
			soa.Invalidate(u, v)
		case 5:
			eng.RunUntil(eng.Now() + sim.Time(rng.Uniform(0, 0.2)))
		}
		check(step)
	}
}

// rbsGolden is the sha256 of TestRBSLayoutDifferential's observable stream
// (see rbsObserve), over all four seeds in order.
const rbsGolden = "3c8cadfde520b126279503785ad5ed8fad198dc9745abc557381459ee40cc8b5"

// rbsObserve appends one step's observables of r to h: for every ordered
// pair u ≠ v, coListeners, the Estimate bits and ok, and the Eps bits.
func rbsObserve(h hash.Hash, r *RBS, n int) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(ok bool) {
		if ok {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			flag(coListeners(r, u, v))
			e, ok := r.Estimate(u, v)
			put(math.Float64bits(e))
			flag(ok)
			put(math.Float64bits(r.Eps(0))) // RBS's ε ignores the index
		}
	}
}

// TestRBSLayoutDifferential runs RBS on one engine with overlapping
// listener groups (so the CSR dedup path is exercised) and a randomized
// invalidation stream, and hashes every step's coListeners, Estimate and
// Eps observables plus each seed's Broadcasts. The hash must equal
// rbsGolden, which the flat slabs and the retired map-backed store both
// produced.
func TestRBSLayoutDifferential(t *testing.T) {
	const n = 10
	groups := [][]int{{0, 1, 2, 3, 4}, {3, 4, 5, 6, 7, 8}, {7, 8, 9, 0}}
	sum := sha256.New()
	for seed := int64(0); seed < 4; seed++ {
		eng := sim.NewEngine()
		hw := func(u int) float64 { return float64(eng.Now()) * (1 + 2e-4*float64(u)) }
		logical := func(u int) float64 { return float64(eng.Now()) * (1 + 1e-4*float64(u)) }
		cfg := RBSConfig{Rho: 0.002, Mu: 0.1, Jitter: 0.01, Interval: 0.5, ExchangeDelay: 0.05, TickSlop: 0.02}
		r, err := NewRBS(n, eng, nil, sim.NewRNG(seed), hw, logical, groups, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()

		rng := sim.NewRNG(seed ^ 0x7b5)
		for step := 0; step < 40; step++ {
			eng.RunUntil(eng.Now() + sim.Time(rng.Uniform(0.05, 0.4)))
			if rng.Uniform(0, 1) < 0.3 {
				invalidateRBS(r, rng.Intn(n), rng.Intn(n))
			}
			rbsObserve(sum, r, n)
		}
		if r.Broadcasts == 0 {
			t.Fatalf("seed %d: no broadcasts", seed)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], r.Broadcasts)
		sum.Write(b[:])
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != rbsGolden {
		t.Errorf("observable stream sha256 %s, want %s", got, rbsGolden)
	}
}
