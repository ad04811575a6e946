package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// TestNodeClockSize pins a node's clock record at 24 bytes, L_u, M_u and the
// certificate, which a decide, an integration step and a beacon each read
// as one record.
func TestNodeClockSize(t *testing.T) {
	if size := unsafe.Sizeof(nodeClock{}); size != 24 {
		t.Fatalf("nodeClock is %d B, want 24", size)
	}
}

// poolProbe is AOPT with its times pool checked after every call that takes
// or returns an entry; peak is the most entries held at once, and broken
// counts the losses of records still in their handshake.
type poolProbe struct {
	*Algorithm
	t      *testing.T
	peak   int
	broken int
}

func (p *poolProbe) OnEdgeUp(self, peer int, at sim.Time) {
	p.Algorithm.OnEdgeUp(self, peer, at)
	p.check()
}

func (p *poolProbe) OnEdgeDown(self, peer int, at sim.Time) {
	if dir, _ := p.rt.Dyn.Dir(self, peer); p.recFlags[dir]&(recUp|recPreInserted|recHaveTimes) == recUp {
		p.broken++
	}
	p.Algorithm.OnEdgeDown(self, peer, at)
	p.check()
}

func (p *poolProbe) OnControl(to, from int, payload any, d transport.Delivery) {
	p.Algorithm.OnControl(to, from, payload, d)
	p.check()
}

// check holds the pool to the records in a run whose clocks start at 0 and
// in which no loss is hidden from one side: a record holds an entry exactly
// while it is up and not pre-inserted, no two records share one, every
// entry out of the free list is held, and the zero entry stays zero.
func (p *poolProbe) check() {
	p.t.Helper()
	a := p.Algorithm
	if a.times[0] != (edgeTimes{}) {
		p.t.Fatalf("the zero entry was written: %+v", a.times[0])
	}
	owner := make(map[int32]int)
	for dir, i := range a.recTimes {
		flags := a.recFlags[dir]
		up, pre := flags&recUp != 0, flags&recPreInserted != 0
		if (i != 0) != (up && !pre) {
			p.t.Fatalf("record %d (up %v, pre-inserted %v) holds entry %d", dir, up, pre, i)
		}
		if i == 0 {
			continue
		}
		if d, dup := owner[i]; dup {
			p.t.Fatalf("records %d and %d share entry %d", d, dir, i)
		}
		owner[i] = dir
	}
	if held := len(a.times) - 1 - len(a.freeTimes); held != len(owner) {
		p.t.Fatalf("%d entries out of the free list, %d held by records", held, len(owner))
	}
	p.peak = max(p.peak, len(owner))
}

// newPoolRuntime wires AOPT, wrapped by wrap, over an n-node ring whose
// edges are present at time 0, plus the declared but invisible chords.
func newPoolRuntime(t *testing.T, n int, chords []topo.EdgeID, chord topo.LinkParams, wrap func(*Algorithm) runner.Algorithm) (*runner.Runtime, *Algorithm) {
	t.Helper()
	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift: drift.TwoGroup{Rho: tRho, Split: n / 2},
		Delay: transport.RandomDelay{}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := topo.Ring(n)
	for _, e := range ring {
		if err := rt.Dyn.DeclareLink(e.U, e.V, testLink()); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range chords {
		if err := rt.Dyn.DeclareLink(e.U, e.V, chord); err != nil {
			t.Fatal(err)
		}
	}
	algo := MustNew(testParams())
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, algo.Logical, estimate.NewPerNodeRandomError(n, sim.NewRNG(3))))
	rt.Attach(wrap(algo))
	for _, e := range ring {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	return rt, algo
}

// TestTimesPoolBoundedByInserting toggles 32 chords of a 64-node ring at
// random, one toggle every 0.05 units for 60 units, with τ > 0, so losses
// land in the leader's Δ wait, in the follower's wait and during insertion.
// The ring's edges, present at time 0, take no entry. After every
// appearance, loss and insertedge the pool holds exactly one entry for each
// up record that is not pre-inserted; once every chord is down and the lags
// have fired, it holds none, and it has made no more entries than were held
// at once.
func TestTimesPoolBoundedByInserting(t *testing.T) {
	const n = 64
	chords := make([]topo.EdgeID, n/2)
	for u := range chords {
		chords[u] = topo.MakeEdgeID(u, u+n/2)
	}
	probe := &poolProbe{t: t}
	rt, a := newPoolRuntime(t, n, chords, testLink(), func(a *Algorithm) runner.Algorithm {
		probe.Algorithm = a
		return probe
	})
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 1200; step++ {
		e := chords[rng.Intn(len(chords))]
		toggle := rt.Dyn.Disappear
		if rng.Intn(2) == 0 {
			toggle = rt.Dyn.Appear
		}
		if err := toggle(e.U, e.V); err != nil {
			t.Fatal(err)
		}
		rt.Run(rt.Engine.Now() + 0.05)
	}
	if a.Insertions == 0 || probe.broken == 0 {
		t.Fatalf("%d insertions, %d losses in a handshake: the script must both finish and break handshakes", a.Insertions, probe.broken)
	}
	for _, e := range chords {
		if err := rt.Dyn.Disappear(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	rt.Run(rt.Engine.Now() + 1)
	probe.check()
	if held := len(a.times) - 1 - len(a.freeTimes); held != 0 {
		t.Fatalf("%d entries held with every chord down", held)
	}
	t.Logf("%d insertions, %d losses in a handshake: at most %d entries held at once, %d made", a.Insertions, probe.broken, probe.peak, len(a.times)-1)
	if made := len(a.times) - 1; made == 0 || made > probe.peak {
		t.Fatalf("pool made %d entries, but at most %d were held at once", made, probe.peak)
	}
}

// TestStaleFollowerAttemptKeepsOffRecycledEntry covers the handle a second
// insertedge overwrites. Chords with τ = 0 turn at once on both sides. The
// follower of {0,2} gets two insertedges, whose attempts fire 0.1 units
// later; the chord goes down in between, which cancels only the second
// handle and frees both sides' entries, and {1,3} appears and takes them
// from the LIFO free list. The first attempt then fires: it must abort
// without writing into the entry that now holds the {1,3} leader's
// pending handshake, which still completes.
func TestStaleFollowerAttemptKeepsOffRecycledEntry(t *testing.T) {
	const n = 8
	chord := testLink()
	chord.Tau = 0
	rt, a := newPoolRuntime(t, n, []topo.EdgeID{{U: 0, V: 2}, {U: 1, V: 3}}, chord, func(a *Algorithm) runner.Algorithm { return a })
	follower, _ := rt.Dyn.Dir(2, 0)
	leader13, _ := rt.Dyn.Dir(1, 3)
	at := func(when sim.Time, fn func()) { rt.Engine.Schedule(when, func(sim.Time) { fn() }) }
	must := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	insertEdge := func() {
		msg := insertEdgeMsg{LIns: a.Logical(0) + 5, GTilde: 5}
		a.OnControl(2, 0, msg, transport.Delivery{Dir: follower, At: rt.Engine.Now()})
	}
	var entry int32
	var before edgeTimes
	at(1, func() { must(rt.Dyn.Appear(0, 2)) })
	at(1.01, insertEdge) // first attempt at 1.11
	at(1.02, insertEdge) // overwrites its handle; second attempt at 1.12
	at(1.03, func() { entry = a.recTimes[follower] })
	at(1.05, func() { must(rt.Dyn.Disappear(0, 2)) })
	at(1.06, func() { must(rt.Dyn.Appear(1, 3)) })
	at(1.1, func() {
		if a.recTimes[follower] != 0 || a.recTimes[leader13] != entry {
			t.Errorf("entries after the swap: follower %d, leader of {1,3} %d, want 0 and the follower's %d",
				a.recTimes[follower], a.recTimes[leader13], entry)
		}
		before = *a.timesAt(leader13)
	})
	rt.Run(1.115)
	if a.HandshakeAborts != 1 {
		t.Fatalf("%d handshake aborts, want 1: the stale attempt", a.HandshakeAborts)
	}
	if got := *a.timesAt(leader13); got != before || got.check == 0 {
		t.Fatalf("the stale attempt touched the recycled entry: %+v, was %+v", got, before)
	}
	if a.times[0] != (edgeTimes{}) {
		t.Fatalf("the stale attempt wrote the zero entry: %+v", a.times[0])
	}
	rt.Run(5)
	if a.Insertions != 2 || a.HandshakeAborts != 1 {
		t.Fatalf("%d insertions and %d aborts, want {1,3}'s two and the stale attempt's one", a.Insertions, a.HandshakeAborts)
	}
}

// TestHiddenLossReachesPreInsertedFollower drives the handshake that can
// reach a record present at time 0: a flap shorter than the detection lag
// hides the loss from the follower while the leader sees it and
// rediscovers the edge. The callbacks below are what core sees then. The
// follower's record holds no entry until the insertedge arrives; it then
// takes a zero one, since its upSince and L at discovery are both 0 here,
// agrees the leader's schedule and stays in every neighbor set. A corrupted
// start keeps its nonzero L_u(0) in an entry from the appearance on.
func TestHiddenLossReachesPreInsertedFollower(t *testing.T) {
	const n = 8
	rt, a := newPoolRuntime(t, n, nil, testLink(), func(a *Algorithm) runner.Algorithm { return a })
	follower, _ := rt.Dyn.Dir(1, 0)
	if a.recTimes[follower] != 0 {
		t.Fatalf("the time-0 record holds entry %d", a.recTimes[follower])
	}
	rt.Engine.Schedule(1, func(at sim.Time) { a.OnEdgeDown(0, 1, at) })
	rt.Engine.Schedule(1.05, func(at sim.Time) { a.OnEdgeUp(0, 1, at) })
	rt.Run(5)
	if a.Insertions != 2 || a.HandshakeAborts != 0 {
		t.Fatalf("%d insertions and %d aborts, want both sides' insertions", a.Insertions, a.HandshakeAborts)
	}
	lead, _ := a.recView(0, 1)
	rec, _ := a.recView(1, 0)
	if !rec.preInserted || rec.upSince != 0 || rec.t0 != lead.t0 || rec.insDur != lead.insDur {
		t.Fatalf("follower record %+v, leader's schedule T0 %v I %v", rec, lead.t0, lead.insDur)
	}
	if a.recTimes[follower] == 0 || a.timesAt(follower).lAtUp != 0 || a.times[0] != (edgeTimes{}) {
		t.Fatalf("follower entry %d with L at discovery %v, zero entry %+v: want an entry of its own, L_1(0) = 0",
			a.recTimes[follower], a.timesAt(follower).lAtUp, a.times[0])
	}
	if lvl := a.EdgeLevel(1, 0); lvl != analysis.InfLevel {
		t.Fatalf("pre-inserted follower at level %d", lvl)
	}

	corrupt, err := runner.New(runner.Config{N: 2, Tick: 0.02, BeaconInterval: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := corrupt.Dyn.DeclareLink(0, 1, testLink()); err != nil {
		t.Fatal(err)
	}
	b := MustNew(testParams())
	corrupt.SetEstimator(estimate.NewOracle(corrupt.Dyn, b.Logical, nil))
	corrupt.Attach(b)
	b.SetLogical(1, 3)
	if err := corrupt.Dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	d0, _ := corrupt.Dyn.Dir(0, 1)
	d1, _ := corrupt.Dyn.Dir(1, 0)
	if b.recTimes[d0] != 0 || b.recTimes[d1] == 0 || b.timesAt(d1).lAtUp != 3 {
		t.Fatalf("corrupted start: entries %d and %d, L at discovery %v, want none, one and 3",
			b.recTimes[d0], b.recTimes[d1], b.timesAt(d1).lAtUp)
	}
}
