package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// active reports whether h still names a pending event (it does not once
// the event fires, is cancelled, or the handle is zero).
func active(e *Engine, h Handle) bool {
	_, ok := e.lookup(h)
	return ok
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func(now Time) {
			got = append(got, now)
		})
	}
	e.RunUntil(10)
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v after RunUntil(10), want 10", e.Now())
	}
}

func TestEngineEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		e.Schedule(1.0, func(Time) { order = append(order, i) })
	}
	e.RunUntil(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal times fired out of order: %v", order)
		}
	}
}

func TestEngineHorizonExcludesLaterEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func(Time) { fired++ })
	e.Schedule(3, func(Time) { fired++ })
	e.RunUntil(2)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if len(e.heap) != 1 {
		t.Fatalf("%d events pending, want 1", len(e.heap))
	}
	e.RunUntil(4)
	if fired != 2 {
		t.Fatalf("fired = %d after second run, want 2", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func(Time) { fired = true })
	e.Cancel(ev)
	if active(e, ev) {
		t.Error("handle still active after Cancel")
	}
	e.RunUntil(2)
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling again (and cancelling the zero handle) must be safe.
	e.Cancel(ev)
	e.Cancel(Handle(0))
}

func TestTimerResetMovesPendingEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(func(now Time) { fired = append(fired, now) })
	tm.Reset(5)
	tm.Reset(2) // supersedes the first arming; only one firing results
	if !active(e, tm.h) {
		t.Fatal("armed timer not pending")
	}
	e.RunUntil(10)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", fired)
	}
	if active(e, tm.h) {
		t.Error("fired timer still pending")
	}
	// Re-arming after a firing works (the record is re-acquired from the pool).
	tm.Reset(12)
	e.RunUntil(20)
	if len(fired) != 2 || fired[1] != 12 {
		t.Fatalf("fired = %v, want [2 12]", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	tm := e.NewTimer(func(Time) { count++ })
	tm.Reset(1)
	tm.Stop()
	if active(e, tm.h) {
		t.Error("stopped timer still pending")
	}
	e.RunUntil(5)
	if count != 0 {
		t.Fatalf("stopped timer fired %d times", count)
	}
	tm.Stop() // double-stop and stopping an un-armed timer are no-ops
	tm.Reset(6)
	e.RunUntil(10)
	if count != 1 {
		t.Fatalf("re-armed timer fired %d times, want 1", count)
	}
}

func TestTimerResetKeepsFIFOFreshness(t *testing.T) {
	// A timer reset to a time where other events already wait fires after
	// them: rescheduling counts as a fresh Schedule for tie-breaking.
	e := NewEngine()
	var order []string
	tm := e.NewTimer(func(Time) { order = append(order, "timer") })
	tm.Reset(1)
	e.Schedule(3, func(Time) { order = append(order, "a") })
	e.Schedule(3, func(Time) { order = append(order, "b") })
	tm.Reset(3)
	e.RunUntil(5)
	want := []string{"a", "b", "timer"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSchedulePastPanicsUnderValidate(t *testing.T) {
	// Validation is on by default under `go test`: scheduling before Now is
	// a caller bug and must be caught loudly, not silently clamped.
	e := NewEngine()
	var panicked any
	e.Schedule(5, func(Time) {
		defer func() { panicked = recover() }()
		e.Schedule(1, func(Time) {})
	})
	e.RunUntil(10)
	if panicked == nil {
		t.Fatal("past-time Schedule did not panic with validation on")
	}
	// reschedule (Timer.Reset) applies the same check.
	panicked = nil
	tm := e.NewTimer(func(Time) {})
	tm.Reset(20)
	func() {
		defer func() { panicked = recover() }()
		tm.Reset(3)
	}()
	if panicked == nil {
		t.Fatal("past-time reschedule did not panic with validation on")
	}
}

func TestEngineScheduleInsidePastClampsToNow(t *testing.T) {
	// With validation off (the release-build behavior) past times clamp to
	// Now so the event still fires.
	e := NewEngine()
	if !e.validate {
		t.Fatal("validation should be on under go test")
	}
	e.validate = false
	var firedAt Time = -1
	e.Schedule(5, func(now Time) {
		e.Schedule(1, func(now2 Time) { firedAt = now2 })
	})
	e.RunUntil(10)
	if firedAt != 5 {
		t.Fatalf("past-scheduled event fired at %v, want clamp to 5", firedAt)
	}
}

func TestEngineRejectsNonFiniteTimes(t *testing.T) {
	// NaN and ±Inf must panic in every build: an +Inf event would wedge the
	// global frontier (and the sharded drain's window bound) while never
	// firing.
	e := NewEngine()
	e.validate = false // non-finite rejection is not gated on validation
	for _, at := range []Time{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%v) did not panic", at)
				}
			}()
			e.Schedule(at, func(Time) {})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset(%v) did not panic", at)
				}
			}()
			tm := e.NewTimer(func(Time) {})
			tm.Reset(1)
			tm.Reset(at)
		}()
	}
	if len(e.heap) > 0 && math.IsInf(e.recs[e.heap[0]].at, 1) {
		t.Fatal("pending queue wedged at +Inf")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func(Time)
	rec = func(now Time) {
		depth++
		if depth < 5 {
			e.After(1, rec)
		}
	}
	e.After(1, rec)
	e.RunUntil(100)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestTickerRegularIntervals(t *testing.T) {
	e := NewEngine()
	var times []Time
	var dts []float64
	e.NewTicker(0, 0.5, func(now Time, dt float64) {
		times = append(times, now)
		dts = append(dts, dt)
	})
	e.RunUntil(2.0)
	want := []Time{0, 0.5, 1.0, 1.5, 2.0}
	if len(times) != len(want) {
		t.Fatalf("got %d ticks %v, want %d", len(times), times, len(want))
	}
	for i := 1; i < len(dts); i++ {
		if math.Abs(dts[i]-0.5) > 1e-12 {
			t.Errorf("tick %d dt = %v, want 0.5", i, dts[i])
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(0, 1, func(now Time, dt float64) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(100)
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestTickerPastStartReAnchorsDt(t *testing.T) {
	// A ticker whose start lies in the past is clamped to Now — and the
	// previous-tick anchor must be re-anchored with it, so the first tick
	// reports dt == interval instead of interval + (Now − start).
	e := NewEngine()
	e.RunUntil(5)
	var times []Time
	var dts []float64
	e.NewTicker(1, 2, func(now Time, dt float64) {
		times = append(times, now)
		dts = append(dts, dt)
	})
	e.RunUntil(9)
	wantTimes := []Time{5, 7, 9}
	if len(times) != len(wantTimes) {
		t.Fatalf("ticks at %v, want %v", times, wantTimes)
	}
	for i := range wantTimes {
		if times[i] != wantTimes[i] {
			t.Fatalf("ticks at %v, want %v", times, wantTimes)
		}
		if dts[i] != 2 {
			t.Fatalf("tick %d dt = %v, want the interval 2 (clamp must re-anchor last)", i, dts[i])
		}
	}
}

func TestTimerResetInsideOwnFire(t *testing.T) {
	// Re-arming a timer from inside its own fire callback: the handle was
	// zeroed before fn ran, so Reset must schedule fresh, not resurrect the
	// just-fired record.
	e := NewEngine()
	var fires []Time
	var tm *Timer
	tm = e.NewTimer(func(now Time) {
		fires = append(fires, now)
		if len(fires) < 3 {
			tm.Reset(now + 1)
		}
	})
	tm.Reset(1)
	e.RunUntil(10)
	want := []Time{1, 2, 3}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
	if active(e, tm.h) {
		t.Fatal("timer still pending after its last fire declined to re-arm")
	}
}

func TestZeroDurationAfterFIFO(t *testing.T) {
	// After(0) from inside an event schedules at the current instant; the
	// (at, seq) order must run those after the current event, in the order
	// they were scheduled, before time advances past the instant.
	e := NewEngine()
	var order []string
	e.Schedule(1, func(Time) {
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.After(0, func(now Time) {
				if now != 1 {
					t.Errorf("After(0) fired at %v, want 1", now)
				}
				order = append(order, name)
			})
		}
		order = append(order, "outer")
	})
	e.Schedule(2, func(Time) { order = append(order, "later") })
	e.RunUntil(3)
	want := []string{"outer", "a", "b", "c", "later"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: for any set of event times, execution order is the sorted order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		times := make([]Time, len(raw))
		for i, r := range raw {
			times[i] = Time(r) / 16.0
			at := times[i]
			e.Schedule(at, func(now Time) { fired = append(fired, now) })
		}
		e.RunUntil(math.Inf(1))
		sort.Float64s(times)
		if len(fired) != len(times) {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c, d := NewRNG(42).Split(), NewRNG(42).Split()
	for i := 0; i < 100; i++ {
		if c.Uniform(0, 1) != d.Uniform(0, 1) {
			t.Fatal("split children of same-seed RNGs diverged")
		}
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
	// Swapped bounds are tolerated.
	v := g.Uniform(5, 2)
	if v < 2 || v >= 5 {
		t.Fatalf("Uniform(5,2) = %v out of range", v)
	}
}
