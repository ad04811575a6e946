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

// poolProbe is AOPT with its times pool and its handshake attempts checked
// after every call that takes or returns an entry; peak is the most entries
// held at once, and broken counts the losses of records still in their
// handshake. started counts the attempts core scheduled, cancelled those a
// loss or a newer insertedge cancelled, and gated the insertedges refused
// before any attempt.
type poolProbe struct {
	*Algorithm
	t                         *testing.T
	peak                      int
	broken                    int
	started, cancelled, gated uint64
}

// handle is the pending attempt the record at dir holds, 0 for none.
func (p *poolProbe) handle(dir int32) sim.Handle { return p.timesAt(dir).check }

func (p *poolProbe) OnEdgeUp(self, peer int, at sim.Time) {
	p.Algorithm.OnEdgeUp(self, peer, at)
	if dir, _ := p.rt.Dyn.Dir(self, peer); p.handle(dir) != 0 {
		p.started++
	}
	p.check()
}

func (p *poolProbe) OnEdgeDown(self, peer int, at sim.Time) {
	dir, _ := p.rt.Dyn.Dir(self, peer)
	if p.recFlags[dir]&(recUp|recPreInserted|recHaveTimes) == recUp {
		p.broken++
	}
	if p.handle(dir) != 0 {
		p.cancelled++
	}
	p.Algorithm.OnEdgeDown(self, peer, at)
	p.check()
}

func (p *poolProbe) OnControl(to, from int, payload any, d transport.Delivery) {
	before := p.handle(d.Dir)
	if p.recFlags[d.Dir]&recUp == 0 {
		p.gated++
	}
	p.Algorithm.OnControl(to, from, payload, d)
	if after := p.handle(d.Dir); after != before {
		if before != 0 {
			p.cancelled++
		}
		if after != 0 {
			p.started++
		}
	}
	p.check()
}

// check holds the pool to the records in a run whose clocks start at 0: a
// record holds an entry exactly while it is up and not pre-inserted, no two
// records share one, every entry out of the free list is held, and the
// zero entry stays zero. It also holds every record to one attempt at a
// time: each attempt started has completed an insertion, aborted, been
// cancelled, or is the one its record holds. An attempt that outlived its
// handle would count twice when it ran, and the ledger would not balance.
func (p *poolProbe) check() {
	p.t.Helper()
	a := p.Algorithm
	if a.times[0] != (edgeTimes{}) {
		p.t.Fatalf("the zero entry was written: %+v", a.times[0])
	}
	owner := make(map[int32]int)
	var pending uint64
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
		if a.times[i].check != 0 {
			pending++
		}
	}
	if held := len(a.times) - 1 - len(a.freeTimes); held != len(owner) {
		p.t.Fatalf("%d entries out of the free list, %d held by records", held, len(owner))
	}
	if ended := a.Insertions + a.HandshakeAborts - p.gated; p.started != ended+p.cancelled+pending {
		p.t.Fatalf("%d attempts started, but %d ended, %d were cancelled and %d are pending",
			p.started, ended, p.cancelled, pending)
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
// at once. A chord down for longer than a Delay is forgotten: an appearance
// declares it again, which hands it a freed slot whose records the
// declare hook has reset, and a loss of it has nothing left to cut.
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
	redeclared := 0
	toggle := func(e topo.EdgeID, up bool) {
		if _, declared := rt.Dyn.Params(e.U, e.V); !declared {
			if !up {
				return
			}
			if err := rt.Dyn.DeclareLink(e.U, e.V, testLink()); err != nil {
				t.Fatal(err)
			}
			redeclared++
		}
		op := rt.Dyn.Disappear
		if up {
			op = rt.Dyn.Appear
		}
		if err := op(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 1200; step++ {
		e := chords[rng.Intn(len(chords))]
		toggle(e, rng.Intn(2) == 0)
		rt.Run(rt.Engine.Now() + 0.05)
	}
	if a.Insertions == 0 || probe.broken == 0 || redeclared == 0 {
		t.Fatalf("%d insertions, %d losses in a handshake, %d chords declared again: the script must finish and break handshakes and forget chords",
			a.Insertions, probe.broken, redeclared)
	}
	for _, e := range chords {
		toggle(e, false)
	}
	rt.Run(rt.Engine.Now() + 1)
	probe.check()
	if held := len(a.times) - 1 - len(a.freeTimes); held != 0 {
		t.Fatalf("%d entries held with every chord down", held)
	}
	t.Logf("%d insertions, %d losses in a handshake, %d chords declared again: at most %d entries held at once, %d made",
		a.Insertions, probe.broken, redeclared, probe.peak, len(a.times)-1)
	if made := len(a.times) - 1; made == 0 || made > probe.peak {
		t.Fatalf("pool made %d entries, but at most %d were held at once", made, probe.peak)
	}
}

// TestStaleFollowerAttemptKeepsOffRecycledEntry covers the handle a second
// insertedge replaces. Chords with τ = 0 turn at once on both sides. The
// follower of {0,2} gets two insertedges 0.01 units apart: the second
// cancels the first attempt, due at 1.11, and schedules its own for 1.12.
// The chord goes down in between, which cancels that one and frees both
// sides' entries, and {1,3} appears and takes them from the LIFO free list.
// No attempt of {0,2} may fire then: none aborts, the entry that now holds
// the {1,3} leader's pending handshake is untouched, and {1,3}'s handshake
// completes on both sides.
func TestStaleFollowerAttemptKeepsOffRecycledEntry(t *testing.T) {
	const n = 8
	chord := testLink()
	chord.Tau = 0
	probe := &poolProbe{t: t}
	rt, a := newPoolRuntime(t, n, []topo.EdgeID{{U: 0, V: 2}, {U: 1, V: 3}}, chord, func(a *Algorithm) runner.Algorithm {
		probe.Algorithm = a
		return probe
	})
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
		probe.OnControl(2, 0, msg, transport.Delivery{Dir: follower, At: rt.Engine.Now()})
	}
	var entry int32
	var before edgeTimes
	at(1, func() { must(rt.Dyn.Appear(0, 2)) })
	at(1.01, insertEdge) // first attempt due at 1.11
	at(1.02, insertEdge) // cancels it; second attempt due at 1.12
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
	if a.HandshakeAborts != 0 {
		t.Fatalf("%d handshake aborts, want 0: no attempt of {0,2} outlives its appearance", a.HandshakeAborts)
	}
	if got := *a.timesAt(leader13); got != before || got.check == 0 {
		t.Fatalf("an attempt of {0,2} touched the recycled entry: %+v, was %+v", got, before)
	}
	if a.times[0] != (edgeTimes{}) {
		t.Fatalf("an attempt of {0,2} wrote the zero entry: %+v", a.times[0])
	}
	rt.Run(5)
	probe.check()
	if a.Insertions != 2 || a.HandshakeAborts != 0 {
		t.Fatalf("%d insertions and %d aborts, want {1,3}'s two and none", a.Insertions, a.HandshakeAborts)
	}
}

// TestHiddenLossReachesPreInsertedFollower drives the handshake that can
// reach a record present at time 0: a flap shorter than the detection lag
// hides the loss from the follower while the leader sees it and
// rediscovers the edge. The callbacks below are what core sees then. The
// leader inserts the edge afresh; the follower ignores the insertedge,
// holds no entry and stays in every neighbor set, so the edge counts one
// insertion. A corrupted start keeps its nonzero L_u(0) in an entry from
// the appearance on.
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
	if a.Insertions != 1 || a.HandshakeAborts != 0 {
		t.Fatalf("%d insertions and %d aborts, want the leader's insertion alone", a.Insertions, a.HandshakeAborts)
	}
	if lead, _ := a.recView(0, 1); !lead.haveTimes || lead.preInserted {
		t.Fatalf("leader record %+v, want a fresh insertion", lead)
	}
	rec, _ := a.recView(1, 0)
	if !rec.preInserted || rec.haveTimes || rec.upSince != 0 || rec.t0 != 0 || rec.insDur != 0 {
		t.Fatalf("follower record %+v, want it pre-inserted with no schedule", rec)
	}
	if a.recTimes[follower] != 0 || a.times[0] != (edgeTimes{}) {
		t.Fatalf("follower entry %d, zero entry %+v: want no entry, and the zero entry unwritten",
			a.recTimes[follower], a.times[0])
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
