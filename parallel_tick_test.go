package gradsync_test

// This file is the determinism net for the sharded integration tick
// (runner.Config.TickParallelism) at the production size rule: a network
// of fewer than 12,000 nodes (runner's inlineTickNodes) ticks on the calling
// goroutine whatever the knob says, and a larger one fans its tick out.
// Full runs must produce byte-identical state for every shard count,
// including the serial tick. It is the same style of evidence
// trigger_test.go gives for the single-pass trigger engine: not a unit
// claim but a whole-system replay diff. The replays above the threshold
// (TestShardedTickScale*) also run under `make race`, so the disjointness
// argument (pre-tick reads, per-shard writes) is checked by the detector,
// not just asserted. randomTickCase's small random networks tick serially
// here; internal/runner's TestPooledTickDifferential forces the pool on
// the same space.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	gradsync "repro"
	"repro/internal/scenario"
)

// tickCase describes one randomized differential configuration; build is
// re-invoked per replay so every run gets fresh scenario/network instances.
type tickCase struct {
	name    string
	horizon float64
	build   func(tickPar int) gradsync.Config
}

// randomTickCase derives a full configuration from caseSeed. All draws
// happen here, before the replays, so the three shard counts simulate the
// same world.
func randomTickCase(caseSeed int64) tickCase {
	rng := rand.New(rand.NewSource(caseSeed))
	n := 8 + rng.Intn(17)

	var topology gradsync.Topology
	topoName := []string{"line", "ring", "grid", "random"}[rng.Intn(4)]
	switch topoName {
	case "line":
		topology = gradsync.LineTopology(n)
	case "ring":
		topology = gradsync.RingTopology(n)
	case "grid":
		w := 3 + rng.Intn(3)
		topology = gradsync.GridTopology(w, (n+w-1)/w)
	default:
		topology = gradsync.RandomTopology(n, 0.4)
	}
	nn := topology.N()

	var driftSpec gradsync.Drift
	driftName := []string{"twogroup", "linear", "sin", "flip", "walk", "window-walk"}[rng.Intn(6)]
	switch driftName {
	case "twogroup":
		driftSpec = gradsync.TwoGroupDrift(nn / 2)
	case "linear":
		driftSpec = gradsync.LinearDrift()
	case "sin":
		driftSpec = gradsync.SinusoidDrift(10 + rng.Float64()*30)
	case "flip":
		driftSpec = gradsync.FlipDrift(5 + rng.Float64()*20)
	case "walk":
		// The lazily extended schedule, drawn from per-node streams.
		driftSpec = gradsync.RandomWalkDrift(2 + rng.Float64()*4)
	default:
		driftSpec = gradsync.WindowedDrift(gradsync.RandomWalkDrift(3), 5, 25)
	}

	estName := []string{"oracle:random", "oracle:zero", "oracle:anticonvergence", "oracle:amplify", "messaging"}[rng.Intn(5)]
	var estSpec gradsync.Estimates
	if estName == "messaging" {
		estSpec = gradsync.MessagingEstimates(rng.Intn(2) == 0)
	} else {
		estSpec = gradsync.OracleEstimates(estName[len("oracle:"):])
	}

	algoName := []string{"aopt", "aopt", "aopt", "blocksync", "maxsync"}[rng.Intn(5)]
	var algoSpec gradsync.Algo
	switch algoName {
	case "blocksync":
		algoSpec = gradsync.BlockSyncAlgo(1.5 + rng.Float64()*2)
	case "maxsync":
		algoSpec = gradsync.MaxSyncAlgo()
	default:
		algoSpec = gradsync.AOPT()
	}

	// Scenario parameters are drawn here, once — buildScenario runs once per
	// replay and must hand every shard count an identically configured
	// (but fresh) generator instance.
	scName := []string{"none", "churn", "waves", "flap", "prefattach"}[rng.Intn(5)]
	churnEvery := 2 + rng.Float64()*3
	churnPoisson := rng.Intn(2) == 0
	buildScenario := func() gradsync.Scenario {
		switch scName {
		case "churn":
			return &scenario.Churn{Every: churnEvery, Poisson: churnPoisson}
		case "waves":
			return &scenario.ChurnWaves{WaveEvery: 8, BurstSize: 4, Spacing: 0.3}
		case "flap":
			return &scenario.EdgeFlap{U: 0, V: nn / 2, At: 4, Period: 0.3, Flaps: 7}
		case "prefattach":
			return &scenario.PreferentialAttachment{Seeds: nn / 2, JoinEvery: 2, M: 2}
		default:
			return nil
		}
	}

	seed := rng.Int63()
	return tickCase{
		name:    fmt.Sprintf("n=%d/%s/%s/%s/%s/%s", nn, topoName, driftName, estName, algoName, scName),
		horizon: 30 + float64(rng.Intn(3))*10,
		build: func(tickPar int) gradsync.Config {
			return gradsync.Config{
				Topology:        topology,
				Algorithm:       algoSpec,
				Drift:           driftSpec,
				Estimates:       estSpec,
				Scenario:        buildScenario(),
				TickParallelism: tickPar,
				Seed:            seed,
			}
		},
	}
}

// tickFingerprint is the replay outcome compared bit-for-bit.
type tickFingerprint struct {
	clocks, maxes []uint64 // Float64bits of L_u, M_u
	stepped       uint64
	fast, slow    uint64
	conflicts     uint64
	missing       uint64
	insertions    uint64
	aborts        uint64
}

func fingerprint(net *gradsync.Network) tickFingerprint {
	fp := tickFingerprint{stepped: net.Runtime().Engine.Stepped}
	for u := 0; u < net.N(); u++ {
		fp.clocks = append(fp.clocks, math.Float64bits(net.Logical(u)))
		fp.maxes = append(fp.maxes, math.Float64bits(net.MaxEstimate(u)))
	}
	if c := net.Core(); c != nil {
		fp.fast, fp.slow = c.FastTicks, c.SlowTicks
		fp.conflicts, fp.missing = c.TriggerConflicts, c.MissingEstimates
		fp.insertions, fp.aborts = c.Insertions, c.HandshakeAborts
	}
	return fp
}

func (a tickFingerprint) diff(b tickFingerprint) string {
	for u := range a.clocks {
		if a.clocks[u] != b.clocks[u] {
			return fmt.Sprintf("L[%d]: %x vs %x", u, a.clocks[u], b.clocks[u])
		}
		if a.maxes[u] != b.maxes[u] {
			return fmt.Sprintf("M[%d]: %x vs %x", u, a.maxes[u], b.maxes[u])
		}
	}
	switch {
	case a.stepped != b.stepped:
		return fmt.Sprintf("engine events: %d vs %d", a.stepped, b.stepped)
	case a.fast != b.fast || a.slow != b.slow:
		return fmt.Sprintf("mode ticks: fast %d/%d, slow %d/%d", a.fast, b.fast, a.slow, b.slow)
	case a.conflicts != b.conflicts || a.missing != b.missing:
		return fmt.Sprintf("conflicts %d/%d, missing %d/%d", a.conflicts, b.conflicts, a.missing, b.missing)
	case a.insertions != b.insertions || a.aborts != b.aborts:
		return fmt.Sprintf("insertions %d/%d, aborts %d/%d", a.insertions, b.insertions, a.aborts, b.aborts)
	}
	return ""
}

// TestShardedTickDifferential pins the size rule over the random space:
// every case, built at TickParallelism 8, must tick on a single shard. Its
// networks are far below runner's inlineTickNodes, so each runs the
// TickParallelism 1 tick and a replay at another shard count could only
// compare the serial tick with itself; internal/runner's
// TestPooledTickDifferential forces the pool on this space instead.
func TestShardedTickDifferential(t *testing.T) {
	for caseSeed := int64(1); caseSeed <= 14; caseSeed++ {
		c := randomTickCase(caseSeed)
		t.Run(c.name, func(t *testing.T) {
			net := gradsync.MustNew(c.build(8))
			if got := net.Runtime().TickShards(); got != 1 {
				t.Fatalf("TickParallelism 8 on %d nodes built %d tick shards, want 1", net.N(), got)
			}
		})
	}
}

// scaleTickNodes is runner's inlineTickNodes, the smallest network that
// fans its tick out; shardedTickReplay fails if the two part ways.
const scaleTickNodes = 12_000

// shardedTickReplay runs build serially and at TickParallelism 8 for the
// horizon and requires bit-identical fingerprints. It fails unless the
// sharded run really built eight tick shards, so a replay that slips below
// the size rule's threshold cannot pass by comparing the serial tick with
// itself.
func shardedTickReplay(t *testing.T, build func(tickPar int) gradsync.Config, horizon float64) {
	t.Helper()
	run := func(tickPar int) tickFingerprint {
		net := gradsync.MustNew(build(tickPar))
		if got := net.Runtime().TickShards(); got != tickPar {
			t.Fatalf("TickParallelism %d on %d nodes built %d tick shards", tickPar, net.N(), got)
		}
		net.RunFor(horizon)
		return fingerprint(net)
	}
	serial := run(1)
	if d := serial.diff(run(8)); d != "" {
		t.Fatalf("TickParallelism 8 diverged from serial: %s", d)
	}
}

// TestShardedTickScaleRing is the at-scale replay: a ring of scaleTickNodes
// nodes with chord churn — the E15/E16 shape — compared serial vs 8 tick
// shards stacked on 8 event shards, the way the scale tiers run them, so
// shard boundaries fall inside real per-node work rather than toy graphs.
// Its oracle estimates keep every tick a barrier tick. Under `make race`
// this is also the detector's main workout for the sharded phases.
func TestShardedTickScaleRing(t *testing.T) {
	if testing.Short() {
		t.Skip("scale replay takes a few seconds")
	}
	const n = scaleTickNodes
	pairs := chords(n, 16)
	shardedTickReplay(t, func(tickPar int) gradsync.Config {
		return gradsync.Config{
			Topology:         gradsync.RingTopology(n),
			DiameterHint:     n / 2,
			Drift:            gradsync.TwoGroupDrift(n / 2),
			Scenario:         &scenario.Churn{Every: 0.5, Pairs: pairs},
			TickParallelism:  tickPar,
			EventParallelism: tickPar,
			Seed:             1,
		}
	}, 1.2)
}

// TestShardedTickScaleMessagingRing is the same replay on messaging
// estimates, whose concurrent queries count their misses atomically. The
// drain stays serial, so no window crosses a tick and every tick fans out.
func TestShardedTickScaleMessagingRing(t *testing.T) {
	if testing.Short() {
		t.Skip("scale replay takes a few seconds")
	}
	const n = scaleTickNodes
	pairs := chords(n, 16)
	shardedTickReplay(t, func(tickPar int) gradsync.Config {
		return gradsync.Config{
			Topology:        gradsync.RingTopology(n),
			DiameterHint:    n / 2,
			Drift:           gradsync.TwoGroupDrift(n / 2),
			Estimates:       gradsync.MessagingEstimates(false),
			Scenario:        &scenario.Churn{Every: 0.5, Pairs: pairs},
			TickParallelism: tickPar,
			Seed:            2,
		}
	}, 1.2)
}

// TestShardedTickScaleGeometric replays geo-mobile's shape above the
// threshold: random-geometric mobility on oracle estimates with per-node
// random errors, so the decide phase reads neighbor rows that hops keep
// rewriting between ticks, and every query draws from its node's stream.
func TestShardedTickScaleGeometric(t *testing.T) {
	if testing.Short() {
		t.Skip("scale replay takes a few seconds")
	}
	const n = scaleTickNodes
	radius := 1 / (0.45 * float64(n))
	pairs := (&scenario.RandomGeometric{Radius: radius}).InitialEdges(n)
	edges := make([][2]int, len(pairs))
	for i, p := range pairs {
		edges[i] = [2]int(p)
	}
	shardedTickReplay(t, func(tickPar int) gradsync.Config {
		return gradsync.Config{
			Topology:        gradsync.CustomTopology(n, edges),
			DiameterHint:    n/4 + 2,
			Drift:           gradsync.TwoGroupDrift(n / 2),
			Scenario:        &scenario.RandomGeometric{Radius: radius, StepEvery: 0.01},
			TickParallelism: tickPar,
			Seed:            3,
		}
	}, 1.2)
}
