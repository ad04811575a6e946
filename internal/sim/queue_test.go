package sim

import (
	"math/rand"
	"testing"
)

// refEvent is one entry of the reference model: a plain sorted slice, the
// obviously-correct implementation the pooled 4-ary heap is checked against.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the trivial reference event queue.
type refQueue struct {
	events []refEvent
	now    Time
}

func (q *refQueue) schedule(at Time, seq uint64, id int) {
	if at < q.now {
		at = q.now
	}
	q.events = append(q.events, refEvent{at: at, seq: seq, id: id})
}

func (q *refQueue) cancel(id int) {
	for i, ev := range q.events {
		if ev.id == id {
			q.events = append(q.events[:i], q.events[i+1:]...)
			return
		}
	}
}

// runUntil fires events in (at, seq) order up to horizon, returning ids.
func (q *refQueue) runUntil(horizon Time) []int {
	var fired []int
	for {
		best := -1
		for i, ev := range q.events {
			if ev.at > horizon {
				continue
			}
			if best < 0 || ev.at < q.events[best].at ||
				(ev.at == q.events[best].at && ev.seq < q.events[best].seq) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		ev := q.events[best]
		q.events = append(q.events[:best], q.events[best+1:]...)
		if ev.at > q.now {
			q.now = ev.at
		}
		fired = append(fired, ev.id)
	}
	if q.now < horizon {
		q.now = horizon
	}
	return fired
}

// TestEngineDifferentialVsReference drives random interleavings of
// schedule/cancel/timer-reset/run through both the pooled engine and the
// sorted-slice reference model and requires identical firing sequences —
// including FIFO order among equal-time events. This is the correctness net
// for the index-addressed heap and the record pool.
func TestEngineDifferentialVsReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := NewEngine()
		ref := &refQueue{}

		var engineFired, refFired []int
		type live struct {
			h  Handle
			id int
		}
		var pending []live
		nextID := 0
		seq := uint64(0)

		// One reusable timer participates so reschedule-in-place is covered.
		timerID := -1
		tm := e.NewTimer(func(Time) {
			engineFired = append(engineFired, timerID)
			timerID = -1
		})

		schedule := func() {
			// Coarse times force frequent FIFO ties.
			at := e.Now() + float64(rng.Intn(8))
			id := nextID
			nextID++
			h := e.Schedule(at, func(Time) { engineFired = append(engineFired, id) })
			ref.schedule(at, seq, id)
			seq++
			pending = append(pending, live{h: h, id: id})
		}

		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				schedule()
			case r < 6 && len(pending) > 0:
				// Cancel a random live handle (possibly already fired — the
				// reference no-ops on unknown ids exactly like stale handles).
				i := rng.Intn(len(pending))
				e.Cancel(pending[i].h)
				ref.cancel(pending[i].id)
				pending = append(pending[:i], pending[i+1:]...)
			case r < 8:
				// (Re)arm the shared timer: cancel-and-fresh-schedule in the
				// reference model matches the engine's reschedule-in-place.
				at := e.Now() + float64(rng.Intn(8))
				if timerID >= 0 {
					ref.cancel(timerID)
				}
				timerID = nextID
				nextID++
				tm.Reset(at)
				ref.schedule(at, seq, timerID)
				seq++
			default:
				horizon := e.Now() + float64(rng.Intn(6))
				e.RunUntil(horizon)
				refFired = append(refFired, ref.runUntil(horizon)...)
				if e.Now() != ref.now {
					t.Fatalf("trial %d: clock diverged: engine %v, reference %v", trial, e.Now(), ref.now)
				}
			}
		}
		e.RunUntil(1e9)
		refFired = append(refFired, ref.runUntil(1e9)...)

		if len(engineFired) != len(refFired) {
			t.Fatalf("trial %d: engine fired %d events, reference %d", trial, len(engineFired), len(refFired))
		}
		for i := range refFired {
			if engineFired[i] != refFired[i] {
				t.Fatalf("trial %d: firing order diverged at %d: engine %v, reference %v",
					trial, i, engineFired, refFired)
			}
		}
		if len(e.heap) != 0 || len(ref.events) != 0 {
			t.Fatalf("trial %d: leftover events: engine %d, reference %d", trial, len(e.heap), len(ref.events))
		}
	}
}

// TestPoolCancelledHandleNeverFires pins the pool-safety invariant: once an
// event fires or is cancelled, its handle is dead forever — no amount of
// slot recycling may let the old handle fire or cancel the new tenant.
func TestPoolCancelledHandleNeverFires(t *testing.T) {
	e := NewEngine()
	fired := 0
	stale := e.Schedule(1, func(Time) { fired++ })
	e.Cancel(stale)

	// Recycle the freed slot with a new event, then attack it with the stale
	// handle: the generation tag must protect the new tenant.
	kept := 0
	fresh := e.Schedule(2, func(Time) { kept++ })
	e.Cancel(stale)
	if !active(e, fresh) {
		t.Fatal("stale Cancel killed a recycled record's new event")
	}
	e.RunUntil(3)
	if fired != 0 {
		t.Fatal("cancelled event fired")
	}
	if kept != 1 {
		t.Fatal("recycled record's event did not fire")
	}

	// Same aliasing check through the fired path: a handle that fired is
	// stale even after thousands of reuses of its slot.
	h := e.Schedule(4, func(Time) {})
	e.RunUntil(5)
	for i := 0; i < 5000; i++ {
		e.Schedule(6, func(Time) { kept++ })
	}
	e.Cancel(h)
	e.RunUntil(7)
	if kept != 5001 {
		t.Fatalf("kept = %d, want 5001 (stale handle cancelled a pooled event)", kept)
	}
}

// TestPoolSteadyStateReuse checks the pool actually recycles: a long
// schedule/fire churn must not grow the record slab beyond the peak number
// of simultaneously pending events.
func TestPoolSteadyStateReuse(t *testing.T) {
	e := NewEngine()
	fn := func(Time) {}
	const width = 64
	for round := 0; round < 1000; round++ {
		for i := 0; i < width; i++ {
			e.After(1, fn)
		}
		e.RunUntil(e.Now() + 2)
	}
	if cap := len(e.recs); cap > 2*width {
		t.Fatalf("record slab grew to %d for a steady-state width of %d — pool not recycling", cap, width)
	}
}
