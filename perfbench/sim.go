package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	gradsync "repro"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// shards is the tick and event-drain shard count of every simulated run. It
// is fixed rather than NumCPU so the drain's window structure, and with it
// every drain counter, repeats exactly from host to host.
const shards = 2

// sliceUnits is the simulated time one timed RunFor slice advances.
const sliceUnits = 0.1

// overrun returns how long a simulator phase with budget d may run before
// it is cut short: a slow host may stretch it by half, and a run on a
// heavily loaded host still ends in time (with fewer slices, which its
// record shows).
func overrun(d time.Duration) time.Duration { return d * 3 / 2 }

// scenarioStats are a scenario's post-run counters.
type scenarioStats struct {
	edgeEvents, moves int
	err               error
}

// netSpec is one simulated workload: the network, its adversaries and the
// gradient ladder its correctness check samples.
type netSpec struct {
	n        int
	diameter int  // DiameterHint: the initial topology's hop diameter
	oracle   bool // default oracle estimates; false = uncentered messaging
	// connected marks a graph that provably stays connected, so its global
	// skew is held against G̃ after every slice.
	connected bool
	// pace is the simulated time per host second this workload reached on
	// a 2-vCPU reference host. A run simulates pace × its simulator budget,
	// so every run of a seed does the same work however fast the host is
	// that day; skew, memory and per-slice cost all drift with simulated
	// time.
	pace float64
	// topology builds the public topology; it runs inside the timed set-up.
	topology func() gradsync.Topology
	// edges lists the initial edges in the order gradsync.New declares them.
	edges func() []topo.EdgeID
	// scenario returns a fresh scenario and its counter accessor.
	scenario func() (runner.Scenario, func() scenarioStats)
	// ladder samples skew against the Corollary 7.10 bound and returns the
	// number of samples above it.
	ladder func(net *gradsync.Network, l *ladder) int
}

// slicesFor returns the number of slices a simulator budget buys at pace.
func (s netSpec) slicesFor(budget time.Duration) int {
	return max(1, int(math.Round(s.pace*budget.Seconds()/sliceUnits)))
}

// config is the public configuration gradsync.New receives.
func (s netSpec) config(seed int64, sc runner.Scenario, top gradsync.Topology) gradsync.Config {
	cfg := gradsync.Config{
		Topology:         top,
		DiameterHint:     s.diameter,
		Drift:            gradsync.TwoGroupDrift(s.n / 2),
		Scenario:         sc,
		TickParallelism:  shards,
		EventParallelism: shards,
		Seed:             seed,
	}
	if !s.oracle {
		cfg.Estimates = gradsync.MessagingEstimates(false)
	}
	return cfg
}

// diameterChords returns k distinct chords (u, u+n/2) with anchors spread
// over the first half of the node ids.
func diameterChords(n, k int) []scenario.Pair {
	out := make([]scenario.Pair, 0, k)
	for i := 0; i < k; i++ {
		u := i * (n / 2) / k
		out = append(out, scenario.Pair{u, u + n/2})
	}
	return out
}

// ringSpec is ring-messaging-100k at size n: a ring with messaging
// estimates, two-group drift and periodic churn over 64 diameter chords.
func ringSpec(n int) netSpec {
	chords := diameterChords(n, 64)
	return netSpec{
		n:         n,
		diameter:  n / 2,
		connected: true,
		pace:      0.62,
		topology:  func() gradsync.Topology { return gradsync.RingTopology(n) },
		edges:     func() []topo.EdgeID { return topo.Ring(n) },
		scenario: func() (runner.Scenario, func() scenarioStats) {
			c := &scenario.Churn{Every: 1.5, Pairs: chords}
			return c, func() scenarioStats { return scenarioStats{edgeEvents: c.Toggles, err: c.Err} }
		},
		ladder: ringLadder(n),
	}
}

// geoSpec is geo-mobile-10k at size n: random-geometric mobility (one hop
// every 0.002 units) composed with churn waves over 48 diameter chords, on
// the default oracle estimates.
func geoSpec(n int) netSpec {
	radius := 1 / (0.45 * float64(n))
	chords := diameterChords(n, 48)
	initial := func() []scenario.Pair { return (&scenario.RandomGeometric{Radius: radius}).InitialEdges(n) }
	return netSpec{
		n: n,
		// The initial chain is the circulant C_N(1,2): index distance N/2
		// in about N/4 hops; the slight over-estimate only loosens G̃.
		diameter: n/4 + 2,
		oracle:   true,
		pace:     4.4,
		topology: func() gradsync.Topology {
			pairs := initial()
			edges := make([][2]int, len(pairs))
			for i, p := range pairs {
				edges[i] = [2]int(p)
			}
			return gradsync.CustomTopology(n, edges)
		},
		edges: func() []topo.EdgeID {
			pairs := initial()
			out := make([]topo.EdgeID, len(pairs))
			for i, p := range pairs {
				out[i] = topo.MakeEdgeID(p[0], p[1])
			}
			return out
		},
		scenario: func() (runner.Scenario, func() scenarioStats) {
			g := &scenario.RandomGeometric{Radius: radius, StepEvery: 0.002}
			w := &scenario.ChurnWaves{WaveEvery: 4, BurstSize: 6, Spacing: 0.3, Pairs: chords}
			return scenario.Compose(g, w), func() scenarioStats {
				err := g.Err
				if err == nil {
					err = w.Err
				}
				return scenarioStats{edgeEvents: g.EdgeEvents + w.Toggles, moves: g.Moves, err: err}
			}
		},
		ladder: geoLadder(n),
	}
}

// ladder accumulates skew samples against the Corollary 7.10 gradient bound.
type ladder struct {
	worst               float64 // largest skew/bound ratio seen
	samples, violations int
	bounds              []float64 // GradientBoundHops by distance, filled lazily
}

func (l *ladder) add(net *gradsync.Network, u, v, d int) bool {
	for len(l.bounds) <= d {
		l.bounds = append(l.bounds, net.GradientBoundHops(len(l.bounds)))
	}
	l.samples++
	r := net.SkewBetween(u, v) / l.bounds[d]
	if r > l.worst {
		l.worst = r
	}
	if r > 1 {
		l.violations++
		return false
	}
	return true
}

// ringLadder samples 128 node pairs at each ring distance of the E16 ladder.
// Ring edges are present from time 0, so every ring path is stable, and the
// churned chords join nodes n/2 apart, so they shorten none of these paths.
func ringLadder(n int) func(*gradsync.Network, *ladder) int {
	var dists []int
	for _, d := range []int{1, 4, 16, 64, 256, 1024} {
		if d < n/2 {
			dists = append(dists, d)
		}
	}
	return func(net *gradsync.Network, l *ladder) (bad int) {
		for _, d := range dists {
			for s := 0; s < 128; s++ {
				u := s * 997 % n
				if !l.add(net, u, (u+d)%n, d) {
					bad++
				}
			}
		}
		return bad
	}
}

// geoLadder holds every node reachable from four fixed sources over edges
// continuously up since time 0 against the bound for its hop distance. The
// paper inserts time-0 edges at every level at once; any later edge needs
// an insertion period of order G̃/µ, far longer than a run, before
// Corollary 7.10 covers a path through it.
func geoLadder(n int) func(*gradsync.Network, *ladder) int {
	return func(net *gradsync.Network, l *ladder) (bad int) {
		now := net.Now()
		for i := 0; i < 4; i++ {
			src := i * n / 4
			for v, d := range net.Runtime().Dyn.HopDistances(src, now, now) {
				if d >= 1 && !l.add(net, src, v, d) {
					bad++
				}
			}
		}
		return bad
	}
}

// checker runs the correctness checks after every slice. A slice fails when
// a ladder sample exceeds its bound, the global skew of a connected graph
// exceeds G̃, a trigger conflict has occurred (Lemma 5.3), or the scenario
// has recorded an error.
type checker struct {
	spec                           netSpec
	net                            *gradsync.Network
	stats                          func() scenarioStats
	ladder                         ladder
	globalChecks, globalViolations int
	slices, failedSlices           int
}

func (c *checker) slice() {
	c.slices++
	bad := c.spec.ladder(c.net, &c.ladder) > 0
	if c.spec.connected {
		c.globalChecks++
		if c.net.GlobalSkew() > c.net.GTilde() {
			c.globalViolations++
			bad = true
		}
	}
	if c.net.Core().TriggerConflicts > 0 || c.stats().err != nil {
		bad = true
	}
	if bad {
		c.failedSlices++
	}
}

// simRun is the outcome of one untraced simulator run.
type simRun struct {
	setups      []float64 // seconds per gradsync.New, topology build included
	slices      []float64 // milliseconds per RunFor slice
	setupSteal  float64   // share of CPU time stolen during the setups
	heapPerNode float64
	probeRate   float64 // median hostProbe rate over the run, steps per second
	probes      int
	check       *checker
	scenario    scenarioStats
	fingerprint string
}

// units returns the simulated time the run covered.
func (r *simRun) units() float64 { return float64(len(r.slices)) * sliceUnits }

// wallSeconds returns the host time spent inside RunFor.
func (r *simRun) wallSeconds() float64 {
	var ms float64
	for _, s := range r.slices {
		ms += s
	}
	return ms / 1e3
}

// unitsPerRefSecond is the simulated time per host second spent inside
// RunFor, scaled from the host's speed during the run, as the hostProbe
// measured it, to the reference speed probeRef.
func (r *simRun) unitsPerRefSecond() float64 {
	return r.units() / r.wallSeconds() * probeRef / r.probeRate
}

// runSim builds the network setups times through gradsync.New, keeping the
// last, then runs the given number of timed slices, stopping early only if
// they take longer than limit.
func runSim(spec netSpec, seed int64, setups, slices int, limit time.Duration) (*simRun, error) {
	r := &simRun{}
	var (
		net   *gradsync.Network
		stats func() scenarioStats
	)
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	for i := 0; i < 5; i++ {
		probe.run()
	}
	var setupSteal stealWatch
	for i := 0; i < setups; i++ {
		net, stats = nil, nil
		runtime.GC()
		setupSteal.start()
		t0 := time.Now()
		sc, st := spec.scenario()
		n, err := gradsync.New(spec.config(seed, sc, spec.topology()))
		if err != nil {
			return nil, fmt.Errorf("gradsync.New: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		setupSteal.stop()
		net, stats = n, st
	}
	r.setupSteal = setupSteal.share()
	r.check = &checker{spec: spec, net: net, stats: stats}
	deadline := time.Now().Add(limit)
	sinceProbe := 0.0
	for len(r.slices) < slices && time.Now().Before(deadline) {
		t0 := time.Now()
		net.RunFor(sliceUnits)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.slices = append(r.slices, ms)
		r.check.slice()
		if sinceProbe += ms; sinceProbe >= probeEveryMs {
			probe.run()
			sinceProbe = 0
		}
	}
	r.probeRate, r.probes = probe.rate(), len(probe.rates)
	r.scenario = stats()
	r.fingerprint = fingerprint(spec.n, net.Logical, net.MaxEstimate, net.Runtime().HW)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapPerNode = float64(ms.HeapAlloc) / float64(spec.n)
	runtime.KeepAlive(net)
	return r, nil
}

// fingerprint hashes every node's logical clock, max estimate and hardware
// clock as exact float64 bits.
func fingerprint(n int, logical, maxEst func(int) float64, hw []float64) string {
	h := sha256.New()
	var b [24]byte
	for u := 0; u < n; u++ {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(logical(u)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(maxEst(u)))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(hw[u]))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
