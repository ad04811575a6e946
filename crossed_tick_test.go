package gradsync_test

// A crossed tick is applied one event shard at a time
// (sim.Engine.SetCrossable): inside the window drain, just before the
// shard's first event at or after the tick, and for each shard no window
// reached, serially just before the tick itself fires. A NodeStepper
// decorator — such as the timing decorator of the perfbench module —
// relies on three facts about every StepNode call it sees: shard is u's
// owner, sim.Owner(u, K), the engine reports InWindow(), and so a shard's
// calls run on one goroutine at a time. TestCrossedTickCompletionContract
// pins that contract with a recording decorator under the race detector
// (`make race`), together with exactly-once stepping per tick and
// bit-identity with the serial drain. TestCrossingArmedAtRunBoundary pins
// that the remaining shards are stepped only when the crossed tick fires,
// not at an earlier global event.

import (
	"fmt"
	"math"
	"testing"

	gradsync "repro"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// shardTally is one event shard's record of the StepNode calls for its
// nodes. Only the goroutine running the shard writes it while the shard is
// stepped; FinishTick reads it on the engine goroutine afterwards.
type shardTally struct {
	calls, wrongShard, outsideWindow uint64
	_                                [5]uint64
}

// stepRecorder is a runner.NodeStepper decorator over AOPT that checks the
// crossed-tick contract on every call. Embedding forwards the rest of
// runner.Algorithm and runner.NodeStepper.
type stepRecorder struct {
	*core.Algorithm
	engine  *sim.Engine
	k       int
	shards  []shardTally
	stepped []uint8 // StepNode calls per node in the tick being crossed
	ticks   int     // crossed ticks completed
	bad     []string
}

func (r *stepRecorder) StepNode(u, shard int, dh float64) {
	t := &r.shards[sim.Owner(u, r.k)]
	t.calls++
	if shard != sim.Owner(u, r.k) {
		t.wrongShard++
	}
	if !r.engine.InWindow() {
		t.outsideWindow++
	}
	r.stepped[u]++
	r.Algorithm.StepNode(u, shard, dh)
}

// FinishTick runs serially once a crossed tick is complete: every node must
// have been stepped exactly once, inside a window or as the tick fired.
func (r *stepRecorder) FinishTick() {
	for u, c := range r.stepped {
		if c != 1 && len(r.bad) < 5 {
			r.bad = append(r.bad, fmt.Sprintf("crossed tick %d: node %d stepped %d times", r.ticks, u, c))
		}
		r.stepped[u] = 0
	}
	r.ticks++
	r.Algorithm.FinishTick()
}

// crossedRing runs an n-node messaging ring under two-group drift, a
// configuration that crosses ticks, with the recorder attached, at the
// given event-shard count.
func crossedRing(t *testing.T, n, evPar int, horizon float64) (*runner.Runtime, *stepRecorder) {
	t.Helper()
	const (
		mu, rho = 0.1, 0.1 / 60
		tick    = 0.02
		beacon  = 0.25
	)
	rt, err := runner.New(runner.Config{
		N:                n,
		Tick:             tick,
		BeaconInterval:   beacon,
		Drift:            drift.TwoGroup{Rho: rho, Split: n / 2},
		Delay:            transport.RandomDelay{},
		EventParallelism: evPar,
		Seed:             23,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := topo.Ring(n)
	for _, e := range ring {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.DefaultLinkParams()); err != nil {
			t.Fatal(err)
		}
	}
	rt.SetEstimator(estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
		Rho: rho, Mu: mu, BeaconInterval: beacon, TickSlop: 2 * tick,
	}))
	k := rt.Engine.EventShards()
	rec := &stepRecorder{
		Algorithm: core.MustNew(core.Params{Rho: rho, Mu: mu, GTilde: 8}),
		engine:    rt.Engine,
		k:         k,
		shards:    make([]shardTally, k),
		stepped:   make([]uint8, n),
	}
	rt.Attach(rec)
	for _, e := range ring {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(horizon)
	return rt, rec
}

// stepperFingerprint is fingerprint (parallel_tick_test.go) for a stack
// built without gradsync.Network.
func stepperFingerprint(rt *runner.Runtime, a *core.Algorithm) tickFingerprint {
	fp := tickFingerprint{
		stepped: rt.Engine.Stepped,
		fast:    a.FastTicks, slow: a.SlowTicks,
		conflicts: a.TriggerConflicts, missing: a.MissingEstimates,
		insertions: a.Insertions, aborts: a.HandshakeAborts,
	}
	for u := 0; u < rt.N(); u++ {
		fp.clocks = append(fp.clocks, math.Float64bits(a.Logical(u)))
		fp.maxes = append(fp.maxes, math.Float64bits(a.MaxEstimate(u)))
	}
	return fp
}

// TestCrossedTickCompletionContract runs the recording decorator at event
// shard counts 2 and 8 and checks every StepNode call: shard is
// sim.Owner(u, K), InWindow() true (the shards stepped as the tick fires
// run as a window phase too), each node stepped exactly once per crossed
// tick, ticks actually crossed, and the final state bit-identical to the
// serial drain's.
func TestCrossedTickCompletionContract(t *testing.T) {
	const (
		n       = 301 // not a multiple of either shard count
		horizon = 4
	)
	serialRT, serial := crossedRing(t, n, 1, horizon)
	if c := serialRT.Engine.DrainStats().CrossedTicks; c != 0 || serial.ticks != 0 {
		t.Fatalf("serial drain crossed %d ticks (%d completed)", c, serial.ticks)
	}
	want := stepperFingerprint(serialRT, serial.Algorithm)
	for _, k := range []int{2, 8} {
		rt, rec := crossedRing(t, n, k, horizon)
		crossed := rt.Engine.DrainStats().CrossedTicks
		if crossed == 0 {
			t.Fatalf("K=%d: no tick crossed", k)
		}
		var calls, wrong, outside uint64
		for _, s := range rec.shards {
			calls += s.calls
			wrong += s.wrongShard
			outside += s.outsideWindow
		}
		if wrong != 0 || outside != 0 {
			t.Errorf("K=%d: %d StepNode calls off their owner shard, %d outside a window phase (of %d)",
				k, wrong, outside, calls)
		}
		for _, b := range rec.bad {
			t.Errorf("K=%d: %s", k, b)
		}
		if rec.ticks == 0 || calls != uint64(rec.ticks)*n {
			t.Errorf("K=%d: %d StepNode calls over %d completed crossed ticks, want %d per tick",
				k, calls, rec.ticks, n)
		}
		if d := want.diff(stepperFingerprint(rt, rec.Algorithm)); d != "" {
			t.Errorf("K=%d: final state diverged from the serial drain: %s", k, d)
		}
	}
}

// TestCrossingArmedAtRunBoundary pins where a crossed tick completes. A
// window may cross a tick and then stop at the run horizon just before it,
// which leaves the crossing armed with no shard stepped. A caller may then
// schedule a global event before the tick, here with Network.At: it fires
// first and must read the clocks as they stand before the tick, as in the
// serial drain, so the remaining shards may be stepped only as the crossed
// tick's own event fires. 300 short runs of 0.013 units, each followed by
// such a probe, with a chord added every 50 runs, must agree bit for bit at
// event shard counts 1, 2 and 8, on every probe reading and on the final
// state.
func TestCrossingArmedAtRunBoundary(t *testing.T) {
	const n = 200
	run := func(evPar int) (reads []uint64, fp tickFingerprint, crossed uint64) {
		net := gradsync.MustNew(gradsync.Config{
			Topology:         gradsync.RingTopology(n),
			Drift:            gradsync.TwoGroupDrift(n / 2),
			Estimates:        gradsync.MessagingEstimates(false),
			EventParallelism: evPar,
			Seed:             29,
		})
		for r := 0; r < 300; r++ {
			net.RunFor(0.013)
			net.At(net.Now()+0.0005, func(float64) {
				reads = append(reads, math.Float64bits(net.Logical(0)), math.Float64bits(net.Logical(n/2+1)))
			})
			if r%50 == 49 {
				if err := net.AddEdge(r/50, r/50+n/2); err != nil {
					t.Fatal(err)
				}
			}
		}
		net.RunFor(0.013)
		return reads, fingerprint(net), net.Runtime().Engine.DrainStats().CrossedTicks
	}
	serialReads, serial, crossed := run(1)
	if crossed != 0 {
		t.Fatalf("serial run crossed %d ticks; crossing must be a parallel-only path", crossed)
	}
	for _, evPar := range []int{2, 8} {
		reads, fp, crossed := run(evPar)
		if crossed == 0 {
			t.Errorf("EventParallelism %d: no tick crossed", evPar)
		}
		if len(reads) != len(serialReads) {
			t.Fatalf("EventParallelism %d: %d probe readings, want %d", evPar, len(reads), len(serialReads))
		}
		for i := range reads {
			if reads[i] != serialReads[i] {
				t.Fatalf("EventParallelism %d: probe reading %d = %x, want %x", evPar, i, reads[i], serialReads[i])
			}
		}
		if d := serial.diff(fp); d != "" {
			t.Errorf("EventParallelism %d diverged from serial: %s", evPar, d)
		}
	}
}
