// Command gradsim runs one clock synchronization scenario and reports skew
// metrics over time. It exercises the public gradsync API. With -seeds it
// replays the same scenario over independent adversary draws on a worker
// pool and reports mean±std per sample time (identical output for every
// -parallel value; see internal/sweep).
//
// Examples:
//
//	gradsim -topo line -n 16 -drift twogroup -horizon 600
//	gradsim -algo maxsync -topo ring -n 32 -drift linear
//	gradsim -algo blocksync -blocksize 2 -topo line -n 24
//	gradsim -topo line -n 16 -edges add:0,15@100 -horizon 4000
//	gradsim -seeds 8 -parallel 8 -topo ring -n 24
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	gradsync "repro"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gradsim:", err)
		os.Exit(1)
	}
}

type edgeEvent struct {
	u, v int
	at   float64
	add  bool
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gradsim", flag.ContinueOnError)
	var (
		topoKind  = fs.String("topo", "line", "topology: line|ring|star|grid|torus|random")
		n         = fs.Int("n", 16, "number of nodes (grid/torus use the nearest w×h)")
		algoKind  = fs.String("algo", "aopt", "algorithm: aopt|aopt-dynskew|maxsync|blocksync")
		blockSize = fs.Float64("blocksize", 2, "block size S for blocksync")
		driftKind = fs.String("drift", "twogroup", "drift: none|twogroup|linear|sin|flip|walk")
		delayKind = fs.String("delay", "random", "delays: random|max|min|shift")
		estKind   = fs.String("est", "oracle:random", "estimates: oracle:<policy>|messaging")
		mu        = fs.Float64("mu", 0.1, "fast-mode boost µ")
		rho       = fs.Float64("rho", 0, "drift bound ρ (0 = µ/60)")
		gtilde    = fs.Float64("gtilde", 0, "static global skew estimate (0 = derive)")
		horizon   = fs.Float64("horizon", 600, "simulated time to run")
		sample    = fs.Float64("sample", 0, "sampling interval (0 = horizon/20)")
		seed      = fs.Int64("seed", 1, "random seed (root seed when -seeds > 1)")
		seeds     = fs.Int("seeds", 1, "independent replicas of the scenario, aggregated as mean±std")
		parallel  = fs.Int("parallel", 0, "replica worker pool size (0 = GOMAXPROCS); does not affect results")
		tick      = fs.Float64("tick", 0.02, "integration step")
		tickpar   = fs.Int("tickpar", 1, "integration-tick worker shards (1 = serial; networks under 12000 nodes always tick serially; results identical for every value)")
		evpar     = fs.Int("evpar", 1, "event-drain shards (1 = serial; results identical for every value)")
		edgeOps   = fs.String("edges", "", "dynamic edge ops, e.g. add:0,15@100;cut:3,4@200")
		csv       = fs.Bool("csv", false, "emit CSV instead of a table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Written as negations of the legal ranges, so NaN fails them: a bad
	// horizon or sampling interval would panic in the sampling ticker, and
	// an infinite one would never finish.
	if !(*horizon > 0 && *horizon < math.Inf(1)) {
		return fmt.Errorf("-horizon must be positive and finite, got %v", *horizon)
	}
	if !(*sample >= 0 && *sample < math.Inf(1)) {
		return fmt.Errorf("-sample must be non-negative and finite, got %v", *sample)
	}

	topology, err := buildTopology(*topoKind, *n)
	if err != nil {
		return err
	}
	algo, err := buildAlgo(*algoKind, *blockSize)
	if err != nil {
		return err
	}
	driftSpec, err := buildDrift(*driftKind, topology.N())
	if err != nil {
		return err
	}
	delaySpec, err := buildDelay(*delayKind)
	if err != nil {
		return err
	}
	estSpec, err := buildEstimates(*estKind)
	if err != nil {
		return err
	}
	events, err := parseEdgeOps(*edgeOps, topology.N())
	if err != nil {
		return err
	}

	interval := *sample
	if interval == 0 {
		interval = *horizon / 20
	}

	// One replica = one fully independent simulation of the scenario. The
	// closure only touches its own network and row buffer, so replicas can
	// run on any number of workers without sharing state. Final scalars are
	// captured here and the network released (only replica 0 keeps its net,
	// for the header/bound lines), so peak memory tracks the pool size
	// rather than -seeds.
	type replica struct {
		net           *gradsync.Network
		rows          [][]string
		finalGlobal   float64
		finalAdjacent float64
		hasCore       bool
		insertions    uint64
		aborts        uint64
		conflicts     uint64
		opErrs        []error // edge ops the network refused
		err           error
	}
	runReplica := func(seed int64) *replica {
		rep := &replica{}
		net, err := gradsync.New(gradsync.Config{
			Topology:         topology,
			Algorithm:        algo,
			Drift:            driftSpec,
			Delay:            delaySpec,
			Estimates:        estSpec,
			Mu:               *mu,
			Rho:              *rho,
			GTilde:           *gtilde,
			Tick:             *tick,
			TickParallelism:  *tickpar,
			EventParallelism: *evpar,
			Seed:             seed,
		})
		if err != nil {
			rep.err = err
			return rep
		}
		rep.net = net
		for _, ev := range events {
			ev := ev
			net.At(ev.at, func(float64) {
				op, apply := "add", net.AddEdge
				if !ev.add {
					op, apply = "cut", net.CutEdge
				}
				if err := apply(ev.u, ev.v); err != nil {
					rep.opErrs = append(rep.opErrs, fmt.Errorf("edge op %s:%d,%d@%v: %w", op, ev.u, ev.v, ev.at, err))
				}
			})
		}
		net.Every(interval, func(t float64) {
			rep.rows = append(rep.rows, []string{
				fmt.Sprintf("%.1f", t),
				fmt.Sprintf("%.4f", net.GlobalSkew()),
				fmt.Sprintf("%.4f", net.AdjacentSkew()),
				modeSummary(net),
			})
		})
		net.RunFor(*horizon)
		rep.finalGlobal = net.GlobalSkew()
		rep.finalAdjacent = net.AdjacentSkew()
		if c := net.Core(); c != nil {
			rep.hasCore = true
			rep.insertions = c.Insertions
			rep.aborts = c.HandshakeAborts
			rep.conflicts = c.TriggerConflicts
		}
		return rep
	}

	roots := []int64{*seed} // a single run keeps the root seed itself
	if *seeds > 1 {
		roots = sweep.Seeds(*seed, *seeds)
	}
	reps := sweep.Map(len(roots), *parallel, func(i int) *replica {
		rep := runReplica(roots[i])
		if i != 0 {
			rep.net = nil
		}
		return rep
	})
	for i, rep := range reps {
		err := rep.err
		if err == nil {
			// A refused edge op means the run was not the scenario asked
			// for, so it fails the command instead of only warning.
			err = errors.Join(rep.opErrs...)
		}
		if err != nil {
			return fmt.Errorf("replica %d (seed %d): %w", i, roots[i], err)
		}
	}

	net := reps[0].net
	fmt.Fprintf(w, "algorithm=%s nodes=%d κ=%.4g σ=%.4g G̃=%.4g bound(1 hop)=%.4g\n",
		net.AlgorithmName(), net.N(), net.Kappa(), net.Sigma(), net.GTilde(), net.GradientBoundHops(1))

	header := []string{"t", "global", "adjacent", "mode"}
	rows := reps[0].rows
	if len(reps) > 1 {
		fmt.Fprintf(w, "replicas: %d seeds derived from root %d (varying cells mean±std, · = replica-dependent)\n",
			len(reps), *seed)
		tables := make([]*metrics.Table, len(reps))
		for i, rep := range reps {
			tables[i] = &metrics.Table{Columns: header, Rows: rep.rows}
		}
		rows = sweep.Tables(tables).Rows
	}

	if *csv {
		fmt.Fprintln(w, strings.Join(header, ","))
		for _, r := range rows {
			fmt.Fprintln(w, strings.Join(r, ","))
		}
	} else {
		fmt.Fprintf(w, "%8s %10s %10s %s\n", header[0], header[1], header[2], header[3])
		for _, r := range rows {
			fmt.Fprintf(w, "%8s %10s %10s %s\n", r[0], r[1], r[2], r[3])
		}
	}

	if len(reps) == 1 {
		rep := reps[0]
		fmt.Fprintf(w, "final: global=%.4f adjacent=%.4f (gradient bound 1 hop: %.4f)\n",
			rep.finalGlobal, rep.finalAdjacent, net.GradientBoundHops(1))
		if rep.hasCore {
			fmt.Fprintf(w, "aopt: insertions=%d handshakeAborts=%d triggerConflicts=%d\n",
				rep.insertions, rep.aborts, rep.conflicts)
		}
		return nil
	}
	stat := func(get func(*replica) float64) sweep.Summary {
		vals := make([]float64, len(reps))
		for i, rep := range reps {
			vals[i] = get(rep)
		}
		return sweep.Summarize(vals)
	}
	fmt.Fprintf(w, "final: global=%s adjacent=%s (gradient bound 1 hop: %.4f)\n",
		stat(func(r *replica) float64 { return r.finalGlobal }),
		stat(func(r *replica) float64 { return r.finalAdjacent }),
		net.GradientBoundHops(1))
	if reps[0].hasCore {
		fmt.Fprintf(w, "aopt: insertions=%s handshakeAborts=%s triggerConflicts=%s\n",
			stat(func(r *replica) float64 { return float64(r.insertions) }),
			stat(func(r *replica) float64 { return float64(r.aborts) }),
			stat(func(r *replica) float64 { return float64(r.conflicts) }))
	}
	return nil
}

func modeSummary(net *gradsync.Network) string {
	c := net.Core()
	if c == nil {
		return "-"
	}
	fast := 0
	for u := 0; u < net.N(); u++ {
		if c.Mult(u) > 1 {
			fast++
		}
	}
	return fmt.Sprintf("fast=%d/%d", fast, net.N())
}

func buildTopology(kind string, n int) (gradsync.Topology, error) {
	switch kind {
	case "line":
		return gradsync.LineTopology(n), nil
	case "ring":
		return gradsync.RingTopology(n), nil
	case "star":
		return gradsync.StarTopology(n), nil
	case "grid":
		w := intSqrt(n)
		return gradsync.GridTopology(w, (n+w-1)/w), nil
	case "torus":
		w := intSqrt(n)
		return gradsync.TorusTopology(w, (n+w-1)/w), nil
	case "random":
		return gradsync.RandomTopology(n, 0.5), nil
	default:
		return gradsync.Topology{}, fmt.Errorf("unknown topology %q", kind)
	}
}

func buildAlgo(kind string, s float64) (gradsync.Algo, error) {
	switch kind {
	case "aopt":
		return gradsync.AOPT(), nil
	case "aopt-dynskew":
		return gradsync.AOPTDynamicSkew(1.5), nil
	case "maxsync":
		return gradsync.MaxSyncAlgo(), nil
	case "blocksync":
		return gradsync.BlockSyncAlgo(s), nil
	default:
		return gradsync.Algo{}, fmt.Errorf("unknown algorithm %q", kind)
	}
}

func buildDrift(kind string, n int) (gradsync.Drift, error) {
	switch kind {
	case "none":
		return gradsync.NoDrift(), nil
	case "twogroup":
		return gradsync.TwoGroupDrift(n / 2), nil
	case "linear":
		return gradsync.LinearDrift(), nil
	case "sin":
		return gradsync.SinusoidDrift(40), nil
	case "flip":
		return gradsync.FlipDrift(20), nil
	case "walk":
		return gradsync.RandomWalkDrift(5), nil
	default:
		return gradsync.Drift{}, fmt.Errorf("unknown drift %q", kind)
	}
}

func buildDelay(kind string) (gradsync.Delay, error) {
	switch kind {
	case "random":
		return gradsync.RandomDelays(), nil
	case "max":
		return gradsync.MaxDelays(), nil
	case "min":
		return gradsync.MinDelays(), nil
	case "shift":
		return gradsync.ShiftDelays(), nil
	default:
		return gradsync.Delay{}, fmt.Errorf("unknown delay policy %q", kind)
	}
}

func buildEstimates(spec string) (gradsync.Estimates, error) {
	if spec == "messaging" {
		return gradsync.MessagingEstimates(true), nil
	}
	if policy, ok := strings.CutPrefix(spec, "oracle:"); ok {
		return gradsync.OracleEstimates(policy), nil
	}
	return gradsync.Estimates{}, fmt.Errorf("unknown estimates spec %q", spec)
}

// parseEdgeOps parses "add:0,15@100;cut:3,4@200" for a network of n nodes.
// It rejects, before anything runs, what the run could not carry out: a
// time that is negative or not finite, a node id outside [0, n) and a
// self-loop.
func parseEdgeOps(spec string, n int) ([]edgeEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var out []edgeEvent
	for _, part := range strings.Split(spec, ";") {
		op, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad edge op %q", part)
		}
		pair, atStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("bad edge op %q (missing @time)", part)
		}
		uStr, vStr, ok := strings.Cut(pair, ",")
		if !ok {
			return nil, fmt.Errorf("bad edge op %q (need u,v)", part)
		}
		u, err := strconv.Atoi(uStr)
		if err != nil {
			return nil, fmt.Errorf("bad node id in %q: %w", part, err)
		}
		v, err := strconv.Atoi(vStr)
		if err != nil {
			return nil, fmt.Errorf("bad node id in %q: %w", part, err)
		}
		at, err := strconv.ParseFloat(atStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in %q: %w", part, err)
		}
		// Negated so NaN fails it too.
		if !(at >= 0 && at < math.Inf(1)) {
			return nil, fmt.Errorf("bad time in %q: must be non-negative and finite", part)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("bad node id in %q: ids must be in [0, %d)", part, n)
		}
		if u == v {
			return nil, fmt.Errorf("bad edge op %q: self-loop", part)
		}
		switch op {
		case "add":
			out = append(out, edgeEvent{u: u, v: v, at: at, add: true})
		case "cut":
			out = append(out, edgeEvent{u: u, v: v, at: at})
		default:
			return nil, fmt.Errorf("unknown edge op %q", op)
		}
	}
	return out, nil
}

func intSqrt(n int) int {
	w := 1
	for (w+1)*(w+1) <= n {
		w++
	}
	return w
}
