package runner_test

// New builds the tick pool only for networks of at least inlineTickNodes
// (12,000) nodes, so the differentials in this file force it at every size
// with runner.PoolEveryTick: small random networks and the quick scale
// tiers still replay concurrent drift, decide and integrate phases against
// the serial tick, under `make race` too. The root package's
// TestShardedTickScale* replays run the production rule above the
// threshold.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	gradsync "repro"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// endState is a run's end state as bits: the engine's event count, the
// transport's sent and dropped counts, the algorithm's counters and every
// node's L_u, M_u and H_u.
func endState(net *gradsync.Network) []uint64 {
	rt := net.Runtime()
	s := []uint64{rt.Engine.Stepped, rt.Net.Sent(), rt.Net.Dropped()}
	switch a := rt.Algo().(type) {
	case *core.Algorithm:
		s = append(s, a.FastTicks, a.SlowTicks, a.TriggerConflicts, a.MissingEstimates, a.Insertions, a.HandshakeAborts)
	case *baselines.BlockSync:
		s = append(s, a.FastTicks, a.SlowTicks)
	case *baselines.MaxSync:
		s = append(s, a.Jumps)
	}
	for u := 0; u < net.N(); u++ {
		s = append(s, math.Float64bits(net.Logical(u)), math.Float64bits(net.MaxEstimate(u)), math.Float64bits(rt.HW[u]))
	}
	return s
}

// pooledCase is one randomized configuration; build is called once per
// replay, so every run gets fresh scenario instances.
type pooledCase struct {
	name    string
	horizon float64
	build   func(tickPar, evPar int) gradsync.Config
}

// sawtooth returns initial clocks that climb by gap per node and drop back
// every period nodes, so both gradient triggers fire from the first tick.
func sawtooth(n, period int, gap float64) []float64 {
	out := make([]float64, n)
	for u := range out {
		out[u] = float64(u%period) * gap
	}
	return out
}

// randomPooledCase draws a full configuration from caseSeed. Its space is
// the root package's randomTickCase (topology, drift adversary and its
// parameters, every oracle error policy or messaging estimates, centered
// or not, algorithm and BlockSync's S, scenario and its churn parameters,
// horizon), widened by the setups that core's trigger differential and the
// golden fingerprints run, whose networks are too small for the tick pool:
// rates that flip every 25 ticks or every tick, AOPT with decaying
// insertion, BlockSync with a small S, sawtooth initial clocks and
// random-geometric mobility. All draws happen here, before the replays, so
// every replay simulates the same world.
func randomPooledCase(caseSeed int64) pooledCase {
	rng := rand.New(rand.NewSource(caseSeed))
	pick := func(names ...string) string { return names[rng.Intn(len(names))] }
	n := 5 + rng.Intn(20)

	var topology gradsync.Topology
	topoName := pick("line", "ring", "grid", "random", "geometric")
	const radius = 0.35
	switch topoName {
	case "line":
		topology = gradsync.LineTopology(n)
	case "ring":
		topology = gradsync.RingTopology(n)
	case "grid":
		w := 3 + rng.Intn(3)
		topology = gradsync.GridTopology(w, (n+w-1)/w)
	case "random":
		topology = gradsync.RandomTopology(n, 0.4)
	default:
		pairs := (&scenario.RandomGeometric{Radius: radius}).InitialEdges(n)
		edges := make([][2]int, len(pairs))
		for i, p := range pairs {
			edges[i] = [2]int(p)
		}
		topology = gradsync.CustomTopology(n, edges)
	}
	nn := topology.N()

	var driftSpec gradsync.Drift
	driftName := pick("twogroup", "linear", "sin", "flip", "flip-25-ticks", "flip-every-tick", "walk", "window-walk")
	switch driftName {
	case "twogroup":
		driftSpec = gradsync.TwoGroupDrift(nn / 2)
	case "linear":
		driftSpec = gradsync.LinearDrift()
	case "sin":
		driftSpec = gradsync.SinusoidDrift(10 + rng.Float64()*30)
	case "flip":
		driftSpec = gradsync.FlipDrift(5 + rng.Float64()*20)
	case "flip-25-ticks":
		driftSpec = gradsync.FlipDrift(0.5)
	case "flip-every-tick":
		driftSpec = gradsync.FlipDrift(0.02)
	case "walk":
		driftSpec = gradsync.RandomWalkDrift(2 + rng.Float64()*4)
	default:
		driftSpec = gradsync.WindowedDrift(gradsync.RandomWalkDrift(3), 5, 25)
	}

	estName := pick("oracle:random", "oracle:zero", "oracle:holdback", "oracle:pushforward",
		"oracle:anticonvergence", "oracle:amplify", "messaging", "messaging:centered")
	var estSpec gradsync.Estimates
	switch estName {
	case "messaging":
		estSpec = gradsync.MessagingEstimates(false)
	case "messaging:centered":
		estSpec = gradsync.MessagingEstimates(true)
	default:
		estSpec = gradsync.OracleEstimates(estName[len("oracle:"):])
	}

	algoName := pick("aopt", "aopt", "decaying", "blocksync", "maxsync")
	var algoSpec gradsync.Algo
	switch algoName {
	case "decaying":
		algoSpec = gradsync.AOPTDecaying()
	case "blocksync":
		algoSpec = gradsync.BlockSyncAlgo(0.5 + rng.Float64()*3)
	case "maxsync":
		algoSpec = gradsync.MaxSyncAlgo()
	default:
		algoSpec = gradsync.AOPT()
	}

	var clocks []float64
	if rng.Intn(3) == 0 {
		algoName += "/sawtooth"
		clocks = sawtooth(nn, 6, 0.6)
	}

	scName := pick("none", "churn", "waves", "flap", "prefattach")
	churnEvery := 2 + rng.Float64()*3
	churnPoisson := rng.Intn(2) == 0
	buildScenario := func() gradsync.Scenario {
		var sc gradsync.Scenario
		switch scName {
		case "churn":
			sc = &scenario.Churn{Every: churnEvery, Poisson: churnPoisson}
		case "waves":
			sc = &scenario.ChurnWaves{WaveEvery: 8, BurstSize: 4, Spacing: 0.3}
		case "flap":
			sc = &scenario.EdgeFlap{U: 0, V: nn / 2, At: 4, Period: 0.3, Flaps: 7}
		case "prefattach":
			sc = &scenario.PreferentialAttachment{Seeds: nn / 2, JoinEvery: 2, M: 2}
		}
		if topoName != "geometric" {
			return sc
		}
		mobility := &scenario.RandomGeometric{Radius: radius, StepEvery: 0.5}
		if sc == nil {
			return mobility
		}
		return scenario.Compose(mobility, sc)
	}

	seed := rng.Int63()
	return pooledCase{
		name:    fmt.Sprintf("n=%d/%s/%s/%s/%s/%s", nn, topoName, driftName, estName, algoName, scName),
		horizon: 30 + float64(rng.Intn(3))*10,
		build: func(tickPar, evPar int) gradsync.Config {
			return gradsync.Config{
				Topology:         topology,
				Algorithm:        algoSpec,
				Drift:            driftSpec,
				Estimates:        estSpec,
				Scenario:         buildScenario(),
				InitialClocks:    clocks,
				TickParallelism:  tickPar,
				EventParallelism: evPar,
				Seed:             seed,
			}
		},
	}
}

// TestPooledTickDifferential replays random small networks (see
// randomPooledCase) on tick pools of 2 and 8 workers and requires the
// serial run's end state bit for bit. The pool of 2 runs once on the serial
// drain, where every tick is a barrier tick, and once on 2 event shards,
// as the golden fingerprints and the trigger differential configure their
// runs; the pool of 8 runs on 8 event shards, where messaging runs cross
// ticks and apply them node by node, and on fewer than 8 nodes leaves
// trailing tick shards empty. The test fails unless some pooled run
// crossed a tick.
func TestPooledTickDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	runner.PoolEveryTick(t)
	var crossed uint64
	for caseSeed := int64(1); caseSeed <= 24; caseSeed++ {
		c := randomPooledCase(caseSeed)
		t.Run(c.name, func(t *testing.T) {
			run := func(tickPar, evPar int) []uint64 {
				net := gradsync.MustNew(c.build(tickPar, evPar))
				if got := net.Runtime().TickShards(); got != tickPar {
					t.Fatalf("TickParallelism %d built %d tick shards", tickPar, got)
				}
				net.RunFor(c.horizon)
				crossed += net.Runtime().Engine.DrainStats().CrossedTicks
				return endState(net)
			}
			serial := run(1, 1)
			for _, p := range [][2]int{{2, 1}, {2, 2}, {8, 8}} {
				got := run(p[0], p[1])
				for i := range serial {
					if got[i] != serial[i] {
						t.Fatalf("%d tick shards on %d event shards diverged from the serial run at end-state word %d: %x vs %x",
							p[0], p[1], i, got[i], serial[i])
					}
				}
			}
		})
	}
	t.Logf("pooled runs crossed %d ticks", crossed)
	if crossed == 0 {
		t.Error("no pooled run crossed a tick")
	}
}

// TestScaleTierDeterministicAcrossTickParallelism extends the determinism
// net to the sharded integration tick: the scale tiers (the experiments that
// run it by default) must emit byte-identical reports whether every network
// ticks serially or across 8 shards. A cross-shard read of post-tick state,
// a shard-order-dependent counter fold, or a query-order-dependent adversary
// draw all show up as a diff here. The quick tiers' networks are below
// inlineTickNodes, so the test forces the pool.
func TestScaleTierDeterministicAcrossTickParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("tier replays take a few seconds")
	}
	runner.PoolEveryTick(t)
	for _, entry := range experiments.All() {
		switch entry.ID {
		case "E15", "E16":
		default:
			continue
		}
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			t.Parallel()
			spec := experiments.Spec{Quick: true, Seed: 1, Seeds: 2, Parallelism: 2}

			spec.TickParallelism = 1
			serial := experiments.RunReplicated(entry.Run, spec).String()

			spec.TickParallelism = 8
			if sharded := experiments.RunReplicated(entry.Run, spec).String(); sharded != serial {
				t.Errorf("%s: TickParallelism=8 output differs from TickParallelism=1:\n--- serial ---\n%s\n--- sharded ---\n%s",
					entry.ID, serial, sharded)
			}
		})
	}
}
