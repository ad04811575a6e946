// Package gradsync is a Go implementation of "Optimal Gradient Clock
// Synchronization in Dynamic Networks" (Kuhn, Lenzen, Locher, Oshman,
// PODC 2010). It provides the paper's algorithm AOPT together with the full
// simulation substrate the paper's model assumes: drifting hardware clocks,
// a dynamic estimate graph under adversary control, bounded-delay messaging
// and an estimate layer with certified uncertainties.
//
// Quick start:
//
//	net, err := gradsync.New(gradsync.Config{
//		Topology: gradsync.LineTopology(16),
//		Drift:    gradsync.TwoGroupDrift(8),
//	})
//	if err != nil { ... }
//	net.RunFor(500)
//	fmt.Println(net.GlobalSkew(), net.AdjacentSkew())
//
// See DESIGN.md for the mapping from paper sections to packages, and
// EXPERIMENTS.md for the reproduced results.
package gradsync

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Network is a running synchronized network: the public handle over the
// simulation runtime and the hosted algorithm.
type Network struct {
	cfg  Config
	rt   *runner.Runtime
	algo runner.Algorithm
	aopt *core.Algorithm // non-nil when Algorithm is AOPT
	link topo.LinkParams
	// effective parameters after derivation
	gTilde   float64
	epsLayer float64
	kappa    float64
	// edgeScratch is reused by the skew samplers, which run every few
	// simulated time units and should not allocate per sample.
	edgeScratch []topo.EdgeID
}

// New builds and starts a network per the configuration.
func New(cfg Config) (*Network, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	n := cfg.Topology.n
	rt, err := runner.New(runner.Config{
		N:                n,
		Tick:             cfg.Tick,
		BeaconInterval:   cfg.BeaconInterval,
		Drift:            cfg.Drift.build(cfg.Rho, n, sim.NewRNG(cfg.Seed^0x5eed)),
		Delay:            cfg.Delay.build(),
		Link:             cfg.Link.toTopo(),
		Scenario:         cfg.Scenario,
		TickParallelism:  cfg.TickParallelism,
		EventParallelism: cfg.EventParallelism,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	net := &Network{cfg: cfg, rt: rt, link: cfg.Link.toTopo()}

	// Declare the initial topology (without making edges visible yet) so
	// the estimate layer can report certified uncertainties. The network
	// keeps neither edge list once New returns: topo holds the links.
	edges, err := cfg.Topology.build(rt.RNG.Split())
	if err != nil {
		return nil, err
	}
	net.cfg.Topology.edges = nil
	for _, e := range edges {
		if err := rt.Dyn.DeclareLink(e.U, e.V, net.link); err != nil {
			return nil, err
		}
	}

	// Algorithm shell first (the oracle estimate layer reads its clocks).
	var logical func(u int) float64
	switch cfg.Algorithm.kind {
	case "aopt":
		// constructed below, after GTilde derivation
	case "maxsync":
		ms := baselines.NewMaxSync(cfg.Rho)
		net.algo = ms
	case "blocksync":
		bs, err := baselines.NewBlockSync(cfg.Algorithm.s, cfg.Rho, cfg.Mu)
		if err != nil {
			return nil, err
		}
		net.algo = bs
	default:
		return nil, fmt.Errorf("gradsync: unknown algorithm %q", cfg.Algorithm.kind)
	}
	logical = func(u int) float64 { return net.algo.Logical(u) }

	// Estimate layer.
	switch cfg.Estimates.kind {
	case "messaging":
		layer := estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
			Rho:            cfg.Rho,
			Mu:             cfg.Mu,
			BeaconInterval: cfg.BeaconInterval,
			TickSlop:       2 * cfg.Tick,
			Centered:       cfg.Estimates.centered,
		})
		rt.SetEstimator(layer)
	default: // oracle
		policy, err := cfg.Estimates.buildPolicy(n, rt.RNG.Split())
		if err != nil {
			return nil, err
		}
		rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return logical(u) }, policy))
	}

	// Effective uncertainty and edge weight (uniform links).
	net.epsLayer = cfg.Link.Eps
	if len(edges) > 0 {
		dir, _ := rt.Dyn.Dir(edges[0].U, edges[0].V) // declared above
		net.epsLayer = rt.Est.Eps(dir)
	}
	net.kappa = analysis.Kappa(net.epsLayer, cfg.Link.Tau, cfg.Mu, cfg.KappaFactor)

	// Global skew estimate.
	net.gTilde = cfg.GTilde
	if net.gTilde == 0 {
		net.gTilde = net.deriveGTilde(edges)
	}

	// AOPT construction now that G̃ is known.
	if cfg.Algorithm.kind == "aopt" {
		p := core.Params{
			Rho:         cfg.Rho,
			Mu:          cfg.Mu,
			KappaFactor: cfg.KappaFactor,
			GTilde:      net.gTilde,
		}
		switch cfg.Algorithm.insertionMode {
		case "dynamic":
			p.Insertion = core.InsertDynamic
			if cfg.Algorithm.dynB > 0 {
				p.B = cfg.Algorithm.dynB
			} else {
				// eq. (12)'s window is incompatible with practical ρ; clamp
				// B into the legal range for the configured ρ (the lower
				// bound dominates the analysis; see DESIGN.md).
				p.B = analysis.BMin(cfg.Rho)
				if bm := analysis.BMax(cfg.Mu, cfg.Rho); bm < p.B {
					p.B = bm
				}
			}
		case "custom":
			p.Insertion = core.InsertCustom
			p.InsertionFactor = cfg.Algorithm.insertionFactor
		case "decaying":
			p.Insertion = core.InsertDecaying
		default:
			p.Insertion = core.InsertStatic
		}
		if cfg.Algorithm.dynamicSkew {
			margin := cfg.Algorithm.skewMargin
			if margin < 1 {
				margin = 1.25
			}
			p.Skew = core.OracleSkew{
				Spread: func() float64 { return net.trueSpread() },
				Margin: margin,
				Floor:  2 * net.kappa,
			}
			p.GTilde = net.gTilde // retained as the trigger-level cap basis
		}
		a, err := core.New(p)
		if err != nil {
			return nil, err
		}
		net.aopt = a
		net.algo = a
	}

	rt.Attach(net.algo)

	// Corrupted initial state, if requested.
	if len(cfg.InitialClocks) > 0 {
		type settable interface{ SetLogical(u int, v float64) }
		s, ok := net.algo.(settable)
		if !ok {
			return nil, fmt.Errorf("gradsync: algorithm %s does not support initial clocks", net.algo.Name())
		}
		for u, v := range cfg.InitialClocks {
			s.SetLogical(u, v)
		}
	}

	// Make the initial topology visible (the paper's time-0 convention puts
	// these edges in all neighbor sets immediately).
	for _, e := range edges {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			return nil, err
		}
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return net, nil
}

// MustNew is New that panics on configuration errors (tests, examples).
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// deriveGTilde computes a conservative static global skew bound from the
// topology and the flooding parameters: initial spread plus an analytic
// proxy for the dynamic estimate diameter (Definition 3.1) with margin.
// The per-hop term bounds the max-estimate flooding loss: the uncredited
// delay uncertainty, the discretization of the integration tick, and the
// drift-rate gap accumulated over the beacon staleness window. edges is the
// initial topology, whose hop diameter stands in for a missing DiameterHint.
func (n *Network) deriveGTilde(edges []topo.EdgeID) float64 {
	diam := n.cfg.DiameterHint
	if diam <= 0 {
		diam = n.initialHopDiameter(edges)
	}
	perHop := n.link.Uncertainty + 2*n.cfg.Tick +
		4*n.cfg.Rho*(n.cfg.BeaconInterval+n.link.Delay+n.link.Uncertainty)
	spread0 := 0.0
	if len(n.cfg.InitialClocks) > 0 {
		spread0 = metrics.GlobalSkew(n.cfg.InitialClocks)
	}
	return 1.4*(spread0+float64(diam)*perHop+core.Iota) + 0.5
}

func (n *Network) initialHopDiameter(edges []topo.EdgeID) int {
	nn := n.cfg.Topology.n
	adj := make([][]int, nn)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	diam := 0
	dist := make([]int, nn)
	for src := 0; src < nn; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

func (n *Network) trueSpread() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for u := 0; u < n.rt.N(); u++ {
		v := n.algo.Logical(u)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// Now returns the current simulated time.
func (n *Network) Now() float64 { return n.rt.Engine.Now() }

// RunFor advances the simulation by d time units.
func (n *Network) RunFor(d float64) { n.rt.Run(n.rt.Engine.Now() + d) }

// RunUntil advances the simulation to absolute time t.
func (n *Network) RunUntil(t float64) { n.rt.Run(t) }

// N returns the number of nodes.
func (n *Network) N() int { return n.rt.N() }

// Logical returns node u's logical clock L_u.
func (n *Network) Logical(u int) float64 { return n.algo.Logical(u) }

// MaxEstimate returns node u's max estimate M_u.
func (n *Network) MaxEstimate(u int) float64 { return n.algo.MaxEstimate(u) }

// Clocks returns a copy of all logical clocks.
func (n *Network) Clocks() []float64 {
	out := make([]float64, n.rt.N())
	for u := range out {
		out[u] = n.algo.Logical(u)
	}
	return out
}

// GlobalSkew returns the current true global skew max L − min L.
func (n *Network) GlobalSkew() float64 { return n.trueSpread() }

// SkewBetween returns |L_u − L_v|.
func (n *Network) SkewBetween(u, v int) float64 {
	return math.Abs(n.algo.Logical(u) - n.algo.Logical(v))
}

// AdjacentSkew returns the maximum |L_u − L_v| over edges currently visible
// in both directions.
func (n *Network) AdjacentSkew() float64 {
	n.edgeScratch = n.rt.Dyn.EdgesBothUp(n.edgeScratch[:0])
	worst := 0.0
	for _, e := range n.edgeScratch {
		if s := n.SkewBetween(e.U, e.V); s > worst {
			worst = s
		}
	}
	return worst
}

// SkewByDistance returns, for each hop distance d ≥ 1 over edges stable for
// minAge, the maximum skew between node pairs at that distance.
func (n *Network) SkewByDistance(minAge float64) map[int]float64 {
	out := make(map[int]float64)
	for u := 0; u < n.rt.N(); u++ {
		dist := n.rt.Dyn.HopDistances(u, n.Now(), minAge)
		for v, d := range dist {
			if d < 1 || v <= u {
				continue
			}
			if s := n.SkewBetween(u, v); s > out[d] {
				out[d] = s
			}
		}
	}
	return out
}

// AddEdge declares (if needed) and makes edge {u,v} appear with the shared
// link parameters; endpoints discover it within τ. The network keeps a
// link only while it is present: a link both endpoints have lost is
// forgotten, with its parameters, once more than a Delay has passed since
// the loss, when its last message can no longer be in flight; AddEdge then
// declares it afresh with the shared parameters.
func (n *Network) AddEdge(u, v int) error { return n.rt.AddEdge(u, v) }

// CutEdge makes edge {u,v} disappear; endpoints detect within τ. Cutting a
// link that is down but not yet forgotten is a no-op the endpoints never
// observe. A pair with no link — never declared, or lost by both endpoints
// more than a Delay ago and so forgotten (see AddEdge) — has nothing to
// cut, and CutEdge returns an error.
func (n *Network) CutEdge(u, v int) error {
	if !n.rt.Dyn.Declared(u, v) {
		return fmt.Errorf("gradsync: CutEdge on undeclared link {%d,%d}", u, v)
	}
	return n.rt.CutEdge(u, v)
}

// GTilde returns the effective static global skew estimate in use.
func (n *Network) GTilde() float64 { return n.gTilde }

// Sigma returns the gradient logarithm base σ = (1−ρ)µ/(2ρ).
func (n *Network) Sigma() float64 { return analysis.Sigma(n.cfg.Mu, n.cfg.Rho) }

// Kappa returns the uniform edge weight κ in use.
func (n *Network) Kappa() float64 { return n.kappa }

// EpsEffective returns the certified estimate uncertainty of the layer.
func (n *Network) EpsEffective() float64 { return n.epsLayer }

// GradientBound returns the paper's stable gradient skew bound
// (s(p)+1)·κ_p (Corollary 7.10) for a path of weight κ_p, with Ĝ = G̃.
func (n *Network) GradientBound(kappaP float64) float64 {
	return analysis.GradientSkewBound(n.gTilde, n.Sigma(), kappaP)
}

// GradientBoundHops is GradientBound for a path of d uniform-weight hops.
func (n *Network) GradientBoundHops(d int) float64 {
	return n.GradientBound(float64(d) * n.kappa)
}

// StabilizationBound returns the Theorem 5.22 bound on the age after which
// an edge participates in the gradient guarantee.
func (n *Network) StabilizationBound() float64 {
	return analysis.StabilizationTimeBound(n.gTilde, n.cfg.Mu, n.cfg.Rho, n.link.Delay)
}

// Every registers fn to run each interval of simulated time, starting one
// interval from now. Use it to sample metrics during Run.
func (n *Network) Every(interval float64, fn func(t float64)) {
	n.rt.Engine.NewTicker(n.Now()+interval, interval, func(t sim.Time, _ float64) { fn(t) })
}

// At schedules fn once at absolute simulated time t.
func (n *Network) At(t float64, fn func(t float64)) {
	n.rt.Engine.Schedule(t, func(now sim.Time) { fn(now) })
}

// Core returns the underlying AOPT instance for in-module verification
// tooling (nil when a baseline algorithm is running). External users should
// not need this.
func (n *Network) Core() *core.Algorithm { return n.aopt }

// Runtime returns the underlying runtime for in-module tooling.
func (n *Network) Runtime() *runner.Runtime { return n.rt }

// AlgorithmName reports which algorithm the network runs.
func (n *Network) AlgorithmName() string { return n.algo.Name() }
