package gradsync_test

// Determinism net for the sharded event drain (Config.EventParallelism),
// mirroring parallel_tick_test.go: full randomized runs — random topology,
// scenario, drift adversary, estimate layer, algorithm and parameters —
// must produce byte-identical state whether beacon fires and deliveries
// drain serially (the K = 1 engine, which is the reference) or in 2 or 8
// parallel window shards. The 8-shard replays also run under `make race`,
// so the window discipline (shard-owned writes, mailbox staging, barrier
// folds) is checked by the detector, not just asserted.

import (
	"testing"

	gradsync "repro"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestShardedDrainDifferential replays randomized full runs at event-shard
// counts 1, 2 and 8 and requires bit-identical
// clocks, max estimates, event counts and algorithm counters. Shard count 8
// on small N also covers the K > N boundary (idle trailing wheel shards).
func TestShardedDrainDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	for caseSeed := int64(101); caseSeed <= 110; caseSeed++ {
		c := randomTickCase(caseSeed)
		t.Run(c.name, func(t *testing.T) {
			run := func(evPar int) tickFingerprint {
				cfg := c.build(1)
				cfg.EventParallelism = evPar
				net := gradsync.MustNew(cfg)
				net.RunFor(c.horizon)
				return fingerprint(net)
			}
			serial := run(1)
			for _, evPar := range []int{2, 8} {
				if d := serial.diff(run(evPar)); d != "" {
					t.Fatalf("EventParallelism %d diverged from serial: %s", evPar, d)
				}
			}
		})
	}
}

// TestTickCrossingDifferential pins the tick-crossing window extension on
// the full stack: a messaging-estimate run under a constant-stretch drift
// adversary — the configuration where every quiescence gate opens — must be
// bit-identical across every (EventParallelism, TickParallelism) combination,
// while the parallel runs actually cross ticks.
func TestTickCrossingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	const n = 120
	build := func(tickPar, evPar int) gradsync.Config {
		return gradsync.Config{
			Topology:         gradsync.RingTopology(n),
			Drift:            gradsync.TwoGroupDrift(n / 2),
			Estimates:        gradsync.MessagingEstimates(false),
			Scenario:         &scenario.Churn{Every: 2.5},
			TickParallelism:  tickPar,
			EventParallelism: evPar,
			Seed:             17,
		}
	}
	run := func(tickPar, evPar int) (tickFingerprint, uint64) {
		net := gradsync.MustNew(build(tickPar, evPar))
		net.RunFor(12)
		return fingerprint(net), net.Runtime().Engine.DrainStats().CrossedTicks
	}
	serial, crossed := run(1, 1)
	if crossed != 0 {
		t.Fatalf("serial run crossed %d ticks; crossing must be a parallel-only path", crossed)
	}
	anyCrossed := false
	for _, tickPar := range []int{1, 8} {
		for _, evPar := range []int{2, 8} {
			fp, crossed := run(tickPar, evPar)
			if d := serial.diff(fp); d != "" {
				t.Fatalf("EventParallelism %d × TickParallelism %d diverged from serial: %s", evPar, tickPar, d)
			}
			if crossed > 0 {
				anyCrossed = true
			}
		}
	}
	if !anyCrossed {
		t.Error("no parallel run crossed a tick; the quiescence gate never opened")
	}
	// Oracle estimates read the queried node's true clock — not node-local —
	// so the gate must stay closed.
	oracle := gradsync.MustNew(gradsync.Config{
		Topology:         gradsync.RingTopology(n),
		Drift:            gradsync.TwoGroupDrift(n / 2),
		EventParallelism: 8,
		Seed:             17,
	})
	oracle.RunFor(4)
	if c := oracle.Runtime().Engine.DrainStats().CrossedTicks; c != 0 {
		t.Errorf("oracle-backed run crossed %d ticks; estimate layer is not node-local", c)
	}
}

// TestHandshakeStormParallelWindows is the control-plane regression: under
// heavy churn the edge-insertion handshakes flood the network with control
// messages, which used to truncate every window at the next pending control.
// With the receiver-sharded serial control queue the beacon traffic must
// keep draining in multi-event parallel windows — byte-identically with the
// serial run — while the controls take the serial path.
func TestHandshakeStormParallelWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("storm replay takes a few seconds")
	}
	const n = 300
	build := func(evPar int) gradsync.Config {
		return gradsync.Config{
			Topology:         gradsync.RingTopology(n),
			Drift:            gradsync.TwoGroupDrift(n / 2),
			Estimates:        gradsync.MessagingEstimates(false),
			Scenario:         &scenario.Churn{Every: 0.4},
			EventParallelism: evPar,
			Seed:             5,
		}
	}
	run := func(evPar int) (tickFingerprint, *gradsync.Network) {
		net := gradsync.MustNew(build(evPar))
		net.RunFor(10)
		return fingerprint(net), net
	}
	serial, _ := run(1)
	fp, net := run(8)
	if d := serial.diff(fp); d != "" {
		t.Fatalf("EventParallelism 8 diverged from serial under handshake storm: %s", d)
	}
	st := net.Runtime().Engine.DrainStats()
	if core := net.Core(); core == nil || core.Insertions == 0 {
		t.Fatal("storm produced no edge insertions; scenario too tame to test the control plane")
	}
	if st.SerialSteps == 0 {
		t.Error("no serial steps: handshake controls never took the serial path")
	}
	if st.Windows == 0 {
		t.Fatal("no parallel windows drained")
	}
	if mean := st.MeanEventsPerWindow(); mean <= 1 {
		t.Errorf("mean events per window %.2f; controls are still serializing the drain", mean)
	}
}

// TestShardedDrainScaleRing is the at-scale replay: a 2000-node ring with
// chord churn — the E15/E16 shape — compared serial vs 8 event shards
// stacked on 8 tick shards, so the two fan-outs are exercised together the
// way the scale tiers run them. Its windows are large enough that the
// engine fans most of them out over the pool instead of running them
// inline, so under `make race` this is the end-to-end replay of concurrent
// drains; the test fails if none was pooled.
func TestShardedDrainScaleRing(t *testing.T) {
	if testing.Short() {
		t.Skip("scale replay takes a few seconds")
	}
	const n = 2000
	pairs := make([]scenario.Pair, 0, 16)
	for i := 0; i < 16; i++ {
		u := i * (n / 2) / 16
		pairs = append(pairs, scenario.Pair{u, u + n/2})
	}
	run := func(tickPar, evPar int) (tickFingerprint, sim.DrainStats) {
		net := gradsync.MustNew(gradsync.Config{
			Topology:         gradsync.RingTopology(n),
			DiameterHint:     n / 2,
			Drift:            gradsync.TwoGroupDrift(n / 2),
			Scenario:         &scenario.Churn{Every: 1.5, Pairs: pairs},
			TickParallelism:  tickPar,
			EventParallelism: evPar,
			Seed:             1,
		})
		net.RunFor(4)
		return fingerprint(net), net.Runtime().Engine.DrainStats()
	}
	serial, _ := run(1, 1)
	fp, st := run(8, 8)
	if d := serial.diff(fp); d != "" {
		t.Fatalf("EventParallelism 8 × TickParallelism 8 diverged from serial at N=%d: %s", n, d)
	}
	if st.InlineWindows >= st.Windows {
		t.Errorf("all %d windows ran inline; none exercised the concurrent drain", st.Windows)
	}
	t.Logf("%d windows, %d inline, %.1f items/window", st.Windows, st.InlineWindows, st.MeanEventsPerWindow())
}
