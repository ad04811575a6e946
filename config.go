package gradsync

import (
	"fmt"
	"math"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// Scenario is a dynamic-network adversary installed on the running
// simulation: topology churn, mobility, partitions. The composable
// generator library lives in internal/scenario.
type Scenario = runner.Scenario

// Link holds the per-edge model parameters of Section 3.1 (all edges share
// them unless a custom topology overrides per-edge links via AddEdgeWithLink).
type Link struct {
	// Eps is the estimate uncertainty ε (eq. 1).
	Eps float64
	// Tau is the detection delay τ for edge appearance/disappearance.
	Tau float64
	// Delay is the message delay bound T.
	Delay float64
	// Uncertainty is the delay uncertainty U ≤ Delay.
	Uncertainty float64
}

// DefaultLink returns the unit conventions used throughout the experiments.
func DefaultLink() Link {
	p := topo.DefaultLinkParams()
	return Link{Eps: p.Eps, Tau: p.Tau, Delay: p.Delay, Uncertainty: p.Uncertainty}
}

func (l Link) toTopo() topo.LinkParams {
	return topo.LinkParams{Eps: l.Eps, Tau: l.Tau, Delay: l.Delay, Uncertainty: l.Uncertainty}
}

// Topology describes the initial estimate graph.
type Topology struct {
	kind  string
	n     int
	w, h  int
	extra float64
	edges [][2]int
}

// LineTopology is the path 0–1–…–(n−1).
func LineTopology(n int) Topology { return Topology{kind: "line", n: n} }

// RingTopology is the n-cycle.
func RingTopology(n int) Topology { return Topology{kind: "ring", n: n} }

// StarTopology connects node 0 to all others.
func StarTopology(n int) Topology { return Topology{kind: "star", n: n} }

// GridTopology is a w×h grid (row-major ids).
func GridTopology(w, h int) Topology { return Topology{kind: "grid", n: w * h, w: w, h: h} }

// TorusTopology is a w×h grid with wraparound.
func TorusTopology(w, h int) Topology { return Topology{kind: "torus", n: w * h, w: w, h: h} }

// RandomTopology is a random connected graph with ~n·(1+extra) edges;
// extra must be non-negative and finite.
func RandomTopology(n int, extra float64) Topology {
	return Topology{kind: "random", n: n, extra: extra}
}

// CustomTopology uses an explicit edge list over n nodes.
func CustomTopology(n int, edges [][2]int) Topology {
	return Topology{kind: "custom", n: n, edges: edges}
}

// N returns the node count of the topology.
func (t Topology) N() int { return t.n }

func (t Topology) build(rng *sim.RNG) ([]topo.EdgeID, error) {
	switch t.kind {
	case "line":
		return topo.Line(t.n), nil
	case "ring":
		return topo.Ring(t.n), nil
	case "star":
		return topo.Star(t.n), nil
	case "grid":
		return topo.Grid(t.w, t.h), nil
	case "torus":
		return topo.Torus(t.w, t.h), nil
	case "random":
		return topo.RandomConnected(t.n, t.extra, rng), nil
	case "custom":
		edges := make([]topo.EdgeID, 0, len(t.edges))
		for _, e := range t.edges {
			edges = append(edges, topo.MakeEdgeID(e[0], e[1]))
		}
		return edges, nil
	default:
		return nil, fmt.Errorf("gradsync: empty topology; use one of the *Topology constructors")
	}
}

// Drift selects the hardware clock adversary.
type Drift struct {
	kind         string
	split        int
	period       float64
	from, until  float64
	inner        *Drift
	phasePerNode float64
}

// NoDrift runs all hardware clocks at rate 1.
func NoDrift() Drift { return Drift{kind: "none"} }

// TwoGroupDrift runs nodes with id < split at 1+ρ and the rest at 1−ρ —
// the skew-building adversary of the lower-bound constructions.
func TwoGroupDrift(split int) Drift { return Drift{kind: "twogroup", split: split} }

// LinearDrift interpolates rates from 1+ρ (node 0) to 1−ρ (node n−1).
func LinearDrift() Drift { return Drift{kind: "linear"} }

// SinusoidDrift oscillates each node's rate with the given period and a
// per-node phase shift.
func SinusoidDrift(period float64) Drift {
	return Drift{kind: "sin", period: period, phasePerNode: 0.13}
}

// FlipDrift alternates each node between ±ρ with the given period.
func FlipDrift(period float64) Drift { return Drift{kind: "flip", period: period} }

// RandomWalkDrift resamples per-node rates every step time units; step must
// be positive and finite.
func RandomWalkDrift(step float64) Drift { return Drift{kind: "walk", period: step} }

// WindowedDrift applies inner only during [from, until); outside, rate 1.
func WindowedDrift(inner Drift, from, until float64) Drift {
	return Drift{kind: "window", inner: &inner, from: from, until: until}
}

// validate rejects parameters no schedule can run on, written as negations
// of the legal ranges so that NaN fails them.
func (d Drift) validate() error {
	inf := math.Inf(1)
	switch d.kind {
	case "sin", "flip", "walk":
		if !(d.period > 0 && d.period < inf) {
			name := map[string]string{"sin": "SinusoidDrift period", "flip": "FlipDrift period", "walk": "RandomWalkDrift step"}[d.kind]
			return fmt.Errorf("gradsync: %s must be positive and finite, got %v", name, d.period)
		}
	case "window":
		// A bound may be infinite, leaving the window open at that end, so
		// the legal range is [−∞, +∞] and only NaN fails.
		if !(d.from >= -inf && d.until >= -inf) {
			return fmt.Errorf("gradsync: WindowedDrift bounds must not be NaN, got [%v, %v)", d.from, d.until)
		}
		return d.inner.validate()
	}
	return nil
}

func (d Drift) build(rho float64, n int, rng *sim.RNG) drift.Schedule {
	switch d.kind {
	case "twogroup":
		return drift.TwoGroup{Rho: rho, Split: d.split}
	case "linear":
		return drift.Linear{Rho: rho, N: n}
	case "sin":
		return drift.Sinusoid{Rho: rho, Period: d.period, PhasePerNode: d.phasePerNode}
	case "flip":
		return drift.Flip{Rho: rho, Period: d.period}
	case "walk":
		return drift.NewRandomWalk(rho, d.period, n, rng)
	case "window":
		return drift.Switching{Inner: d.inner.build(rho, n, rng), From: d.from, Until: d.until}
	default:
		return drift.Perfect()
	}
}

// Delay selects the message delay adversary.
type Delay struct{ kind string }

// RandomDelays draws delays uniformly from the legal window (default).
func RandomDelays() Delay { return Delay{kind: "random"} }

// MaxDelays always uses the maximum delay.
func MaxDelays() Delay { return Delay{kind: "max"} }

// MinDelays always uses the minimum delay.
func MinDelays() Delay { return Delay{kind: "min"} }

// ShiftDelays is the shifting adversary (fast toward high ids).
func ShiftDelays() Delay { return Delay{kind: "shift"} }

func (d Delay) build() transport.DelayPolicy {
	switch d.kind {
	case "max":
		return transport.MaxDelay{}
	case "min":
		return transport.MinDelay{}
	case "shift":
		return transport.ShiftDelay{}
	default:
		return transport.RandomDelay{}
	}
}

// Estimates selects the estimate layer implementation (Section 3.1).
type Estimates struct {
	kind     string
	policy   string
	centered bool
}

// OracleEstimates uses the abstract-model layer with the named error
// adversary: "zero", "random", "holdback", "pushforward", "anticonvergence"
// or "amplify".
func OracleEstimates(policy string) Estimates {
	return Estimates{kind: "oracle", policy: policy}
}

// MessagingEstimates uses the beacon-protocol layer; centered halves the
// certified error by centering estimates.
func MessagingEstimates(centered bool) Estimates {
	return Estimates{kind: "messaging", centered: centered}
}

func (e Estimates) buildPolicy(n int, rng *sim.RNG) (estimate.ErrorPolicy, error) {
	switch e.policy {
	case "", "zero":
		return estimate.ZeroError{}, nil
	case "random":
		// Per-node streams, not one shared stream: node u's error draws
		// depend only on u's own query history, which keeps the adversary
		// deterministic under the sharded tick (and race-free across
		// shards). Still uniform in [−ε, +ε] per query.
		return estimate.NewPerNodeRandomError(n, rng), nil
	case "holdback":
		return estimate.HoldBack{}, nil
	case "pushforward":
		return estimate.PushForward{}, nil
	case "anticonvergence":
		return estimate.AntiConvergence{}, nil
	case "amplify":
		return estimate.Amplify{}, nil
	default:
		return nil, fmt.Errorf("gradsync: unknown oracle error policy %q", e.policy)
	}
}

// Algo selects the synchronization algorithm.
type Algo struct {
	kind string
	s    float64
	// AOPT options.
	insertionMode   string // "", "static", "dynamic", "custom"
	insertionFactor float64
	dynamicSkew     bool
	skewMargin      float64
	dynB            float64
}

// AOPT runs the paper's algorithm with eq. (10) static insertion durations.
func AOPT() Algo { return Algo{kind: "aopt", insertionMode: "static"} }

// AOPTDynamicSkew runs AOPT in the Section 7 configuration: oracle dynamic
// global skew estimates with the given safety margin and eq. (11) insertion
// durations.
func AOPTDynamicSkew(margin float64) Algo {
	return Algo{kind: "aopt", insertionMode: "dynamic", dynamicSkew: true, skewMargin: margin}
}

// AOPTDynamicSkewB is AOPTDynamicSkew with an explicit eq. (11) constant B.
// The paper's eq. (12) lower bound on B (320·2⁷) makes insertion durations
// infeasible to simulate — §5.5 itself notes the constant is impractical —
// so experiments pass a scaled-down B to exercise the mechanism.
func AOPTDynamicSkewB(margin, b float64) Algo {
	return Algo{kind: "aopt", insertionMode: "dynamic", dynamicSkew: true, skewMargin: margin, dynB: b}
}

// AOPTCustomInsertion runs AOPT with I = factor·G̃/µ (ablations).
func AOPTCustomInsertion(factor float64) Algo {
	return Algo{kind: "aopt", insertionMode: "custom", insertionFactor: factor}
}

// AOPTDecaying runs AOPT with the §5.5 simultaneous-insertion strategy:
// new edges join all levels immediately with a large weight that decays to
// κ_e (the [16] approach the paper recommends for practice).
func AOPTDecaying() Algo {
	return Algo{kind: "aopt", insertionMode: "decaying"}
}

// MaxSyncAlgo runs the max-propagation baseline.
func MaxSyncAlgo() Algo { return Algo{kind: "maxsync"} }

// BlockSyncAlgo runs the single-threshold baseline with block size s.
func BlockSyncAlgo(s float64) Algo { return Algo{kind: "blocksync", s: s} }

// Config assembles a synchronized network.
type Config struct {
	// Topology is the initial estimate graph (required).
	Topology Topology
	// Link gives the shared per-edge parameters; zero value → DefaultLink.
	Link Link
	// Rho is the hardware drift bound ρ; 0 → µ/60 (σ ≈ 30).
	Rho float64
	// Mu is the fast-mode boost µ; 0 → 0.1.
	Mu float64
	// KappaFactor scales κ above the eq. (9) minimum; 0 → 1.1.
	KappaFactor float64
	// GTilde is the static global skew estimate; 0 → derived bound.
	GTilde float64
	// DiameterHint, when positive, supplies the hop diameter of the initial
	// topology to the G̃ derivation, skipping its all-pairs BFS — which is
	// O(N·E) and dominates construction in the large experiment tiers.
	// Ignored when GTilde is set explicitly. An over-estimate is safe: it
	// only loosens the derived G̃ (which must upper-bound the true global
	// skew) and the trigger level cap. An under-estimate silently mis-sizes
	// both and is a bug.
	DiameterHint int
	// Algorithm selects AOPT or a baseline; zero value → AOPT.
	Algorithm Algo
	// Drift is the hardware clock adversary; zero value → NoDrift.
	Drift Drift
	// Delay is the message delay adversary; zero value → RandomDelays.
	Delay Delay
	// Scenario, when non-nil, drives dynamic-topology behavior (see
	// internal/scenario); it is installed when the network starts.
	Scenario Scenario
	// Estimates selects the estimate layer; zero → OracleEstimates("random").
	Estimates Estimates
	// Tick is the integration step; 0 → 0.02.
	Tick float64
	// BeaconInterval is the beacon period; 0 → 0.25.
	BeaconInterval float64
	// TickParallelism shards the per-node work of every integration tick
	// (drift rates, hardware and logical clock integration, trigger
	// evaluation) across this many persistent workers. ≤ 1 keeps the serial
	// tick, and so does a network of fewer than 12,000 nodes at any value: its
	// tick runs faster on the calling goroutine than fanned out. Results are
	// byte-identical for every value — the knob trades wall-clock only — so
	// it is safe to set to runtime.NumCPU() for any network. See DESIGN.md
	// §Sharded integration tick.
	TickParallelism int
	// EventParallelism shards the discrete-event drain itself — beacon
	// fires and beacon deliveries — across this many shards drained in
	// parallel windows bounded by the minimum link transit time (the
	// conservative PDES safe horizon). Windows may cross an integration
	// tick; the crossed tick's per-node work then runs on the same shards,
	// once per shard: inside the window that reaches the tick on that shard,
	// or, for a shard no window reached, serially as the tick fires. Other
	// global events (topology transitions, scenario steps, handshake timers)
	// stay serial.
	// ≤ 1 keeps the serial drain. Results are byte-identical for every
	// value — the knob trades wall-clock only — so it is safe to set to
	// runtime.NumCPU() for large networks, and it composes with
	// TickParallelism (the two fan out different phases). See DESIGN.md
	// §Sharded event drain.
	EventParallelism int
	// Seed feeds all randomness; 0 is a valid fixed seed.
	Seed int64
	// InitialClocks optionally sets corrupted initial logical clocks.
	InitialClocks []float64
}

func (c *Config) applyDefaults() error {
	if c.Topology.n <= 0 {
		return fmt.Errorf("gradsync: config needs a topology with at least one node")
	}
	// Written as the negation of the legal range, so NaN fails it.
	if t := c.Topology; t.kind == "random" && !(t.extra >= 0 && t.extra < math.Inf(1)) {
		return fmt.Errorf("gradsync: RandomTopology extra must be non-negative and finite, got %v", t.extra)
	}
	if err := c.Drift.validate(); err != nil {
		return err
	}
	if c.Link == (Link{}) {
		c.Link = DefaultLink()
	}
	if c.Mu == 0 {
		c.Mu = 0.1
	}
	if c.Rho == 0 {
		c.Rho = c.Mu / 60
	}
	if c.KappaFactor == 0 {
		c.KappaFactor = 1.1
	}
	if c.Algorithm.kind == "" {
		c.Algorithm = AOPT()
	}
	if c.Estimates.kind == "" {
		c.Estimates = OracleEstimates("random")
	}
	if c.Tick == 0 {
		c.Tick = 0.02
	}
	if c.BeaconInterval == 0 {
		c.BeaconInterval = 0.25
	}
	if len(c.InitialClocks) > 0 && len(c.InitialClocks) != c.Topology.n {
		return fmt.Errorf("gradsync: InitialClocks has %d entries for %d nodes",
			len(c.InitialClocks), c.Topology.n)
	}
	for u, v := range c.InitialClocks {
		if !(v > -math.Inf(1) && v < math.Inf(1)) {
			return fmt.Errorf("gradsync: InitialClocks[%d] must be finite, got %v", u, v)
		}
	}
	return nil
}
