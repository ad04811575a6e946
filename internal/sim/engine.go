// Package sim provides a deterministic discrete-event simulation engine with
// continuous (float64) time. It is the substrate on which the dynamic-network
// clock synchronization model of Kuhn, Lenzen, Locher and Oshman (PODC 2010)
// is executed: message deliveries, topology changes and handshake timeouts
// are events; algorithms additionally run on a fixed integration tick.
//
// The engine is built for scale (10⁴-node experiments schedule hundreds of
// millions of events): event records live in a pooled slab addressed by a
// 4-ary index min-heap, so the steady-state schedule/fire/cancel path
// performs zero heap allocations. Callers hold Handles — generation-tagged
// indices — instead of pointers, which makes cancelling a fired or recycled
// event a safe no-op.
//
// On top of the global queue the engine supports a sharded event drain
// (conservative parallel PDES): external shard-partitioned event streams
// register as Sources and are drained in parallel windows bounded by a
// caller-provided lookahead — the minimum link transit time Delay−Uncertainty
// in the reproduced model. See DESIGN.md ("Sharded event drain") for the
// shard keying, the safe-horizon bound and the determinism argument.
package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
)

// Time is a point in simulated continuous time, in abstract time units.
// The whole model of the paper is unit-free; see DESIGN.md for the default
// unit conventions used by the experiments.
type Time = float64

// Handle identifies a scheduled event. The zero Handle refers to no event;
// Cancel of a zero, fired or stale handle is a no-op. A handle becomes stale
// the moment its event fires or is cancelled — the underlying pooled record
// is recycled, but the generation tag keeps the old handle from ever
// touching the new tenant.
type Handle uint64

// handleFor packs a slab slot and its generation. Slot indices are stored
// +1 so the zero Handle never aliases slot 0.
func handleFor(slot int32, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(slot)+1))
}

// eventRec is one pooled event record. Records are reused through a free
// list; gen increments on every release so stale Handles miss.
type eventRec struct {
	at  Time
	fn  func(t Time)
	seq uint64
	gen uint32
	pos int32 // index in Engine.heap; -1 while free
}

// Source is an external, shard-partitioned event stream the engine drains
// alongside its own queue. The high-volume event classes of the reproduced
// system — beacon-wheel fires (sharded by sending node) and message
// deliveries (sharded by receiver) — live in Sources rather than the global
// heap, which is what the sharded event drain parallelizes.
//
// Contract:
//   - Peek(shard) returns the time of the shard's earliest pending item, or
//     +Inf when the shard is empty; it never moves backwards for a shard.
//   - FireNext(shard, now) pops and executes that earliest item. During a
//     parallel window it runs concurrently with other shards, so it must
//     write only state owned by this shard (and read only window-stable
//     state); work it creates for another shard must be staged in a
//     mailbox, not applied directly.
//   - Flush(shard) folds every mailbox addressed to this shard into the
//     shard's queue. It runs after the window's FireNext barrier,
//     concurrently across shards: shard s may read what other shards staged
//     for s because no shard writes mailboxes during the flush phase.
//
// Determinism: at equal times the engine's own (global) events fire before
// any source item, and items of the source registered first fire first.
// Items of different shards inside one window execute in unspecified
// relative order, so same-window items of different shards must commute —
// in the reproduced system they do, because every per-node effect of a
// delivery or beacon fire lands on state owned by that item's shard.
type Source interface {
	Peek(shard int) Time
	FireNext(shard int, now Time)
	Flush(shard int)
}

// shardCount is a per-shard event counter padded to its own cache line so
// concurrent window drains never false-share.
type shardCount struct {
	n uint64
	_ [7]uint64
}

// Engine owns the simulated clock, the global event queue and the sharded
// drain of any registered Sources.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	recs    []eventRec // pooled record slab; Handles index into it
	free    []int32    // recycled slots
	heap    []int32    // 4-ary min-heap of slots, ordered by (at, seq)
	nextSeq uint64
	stopped bool

	// validate enables the debug-build checks (past-time scheduling panics
	// instead of clamping). Defaults to true under `go test`.
	validate bool

	// Sharded drain state. shards is the window parallelism K (1 = serial);
	// sources fire in registration order at equal times, with serial sources
	// (serialSrc) always stepped one item at a time outside windows.
	// lookahead returns a receiving shard's conservative window width (the
	// minimum link transit into it); reference forces the serially merged
	// drain at any K, retained as the differential oracle.
	shards       int
	pool         *par.Pool
	sources      []Source
	serialSrc    []bool
	lookahead    func(shard int) float64
	reference    bool
	inWindow     bool
	winEnds      []Time
	winHorizon   Time
	drainFn      func(shard, lo, hi int)
	flushFn      func(shard, lo, hi int)
	eachShardFn  func(shard, lo, hi int)
	shardFn      func(shard int) // RunShards callback in flight
	shardStepped []shardCount

	// Tick-crossing state (SetCrossable): windows may extend past the
	// registered timer's pending event when the owner's gate allows it.
	crossTimer *Timer
	crossGate  func(tickAt Time) (limit Time, ok bool)
	crossBegin func(tickAt Time)

	stats DrainStats

	// Stepped counts executed events — global events, source fires and
	// deliveries alike — for diagnostics and tests.
	Stepped uint64
}

// DrainStats aggregates sharded-drain observability counters for one engine:
// how many parallel windows opened, how many source items they drained, what
// truncated them, and how often they crossed a tick barrier. All counters are
// updated serially (between windows), so reading them outside RunUntil is
// race-free. Window counts depend on the shard count and host, so these
// figures belong in machine-dependent footers, never in deterministic report
// bodies.
type DrainStats struct {
	// Windows is the number of parallel drain windows opened; WindowEvents
	// the total source items fired inside them.
	Windows      uint64
	WindowEvents uint64
	// SerialSteps counts source items fired one at a time outside windows:
	// every serial-source item (control deliveries), plus parallel-source
	// items stepped serially because the lookahead was degenerate. (With
	// K = 1 or the reference drain no windows open and nothing is tallied.)
	SerialSteps uint64
	// GlobalEvents counts global-heap fires (ticks, topology transitions,
	// scenario events, handshake timers).
	GlobalEvents uint64
	// Truncation causes: which bound set the window's effective end —
	// the next global event (ticks/topology/scenario), a pending control
	// (serial-source) item the clock was clamped back to, or the lookahead.
	TruncGlobal    uint64
	TruncControl   uint64
	TruncLookahead uint64
	// CrossedTicks counts windows that extended past a pending tick barrier
	// (SetCrossable).
	CrossedTicks uint64
	// WidthHist is a log₂ histogram of effective window widths: bucket i
	// covers widths in [2^(i−widthHistZero), 2^(i+1−widthHistZero)), with
	// under/overflows clamped to the end buckets.
	WidthHist [20]uint64
}

// widthHistZero is the bucket index of widths in [1, 2).
const widthHistZero = 14

func (s *DrainStats) recordWidth(w float64) {
	_, exp := math.Frexp(w) // w = f·2^exp with f ∈ [0.5, 1)
	b := exp - 1 + widthHistZero
	if b < 0 {
		b = 0
	}
	if b >= len(s.WidthHist) {
		b = len(s.WidthHist) - 1
	}
	s.WidthHist[b]++
}

// MeanEventsPerWindow returns the average number of source items drained per
// parallel window (0 when no window opened).
func (s *DrainStats) MeanEventsPerWindow() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.WindowEvents) / float64(s.Windows)
}

// DrainStats returns a snapshot of the sharded-drain counters.
func (e *Engine) DrainStats() DrainStats { return e.stats }

// NewEngine returns an engine with the clock at time 0. Validation (see
// SetValidate) starts enabled under `go test` and disabled otherwise.
func NewEngine() *Engine {
	e := &Engine{validate: testing.Testing(), shards: 1, shardStepped: make([]shardCount, 1)}
	e.drainFn = e.drainShards
	e.flushFn = e.flushShards
	e.eachShardFn = e.eachShard
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetValidate toggles the debug validation hook and returns the previous
// setting. With validation on (the default under `go test`), scheduling in
// the past panics; with it off, past times clamp to Now. Non-finite times
// panic regardless.
func (e *Engine) SetValidate(on bool) bool {
	prev := e.validate
	e.validate = on
	return prev
}

// SetEventParallelism sets the number of shards K the sharded drain fans
// Sources across. Values ≤ 1 keep the serial drain. Must be called before
// AddSource — sources size their shard state from EventShards. Results are
// byte-identical for every value; the knob trades wall-clock only.
func (e *Engine) SetEventParallelism(k int) {
	if len(e.sources) > 0 {
		panic("sim: SetEventParallelism after AddSource")
	}
	if k < 1 {
		k = 1
	}
	e.shards = k
	e.shardStepped = make([]shardCount, k)
	if k > 1 {
		e.pool = par.New(k)
	} else {
		e.pool = nil
	}
}

// EventShards returns the sharded-drain parallelism K (≥ 1).
func (e *Engine) EventShards() int { return e.shards }

// SetReferenceDrain forces the serially merged source drain at any K — the
// retained reference implementation the differential tests compare the
// windowed drain against. Under it the drain takes the K = 1 serial
// fireSource path, so the reference is that path, not a copy.
func (e *Engine) SetReferenceDrain(on bool) { e.reference = on }

// SetLookahead installs the conservative window bound: f(s) returns the
// minimum time any source item fired now can take to affect shard s — the
// model's minimum link transit, Delay−Uncertainty, over every (sender
// shard → s) pair — so shard s's window may extend to tmin + f(s) even when
// some other shard pair has a faster link. Soundness: an item fired at t on
// shard g can affect shard s no earlier than t + pair(g,s) ≥ tmin + f(s),
// and that holds for g = s too because f(s) ≤ pair(s,s). +Inf is sound
// when no interaction is possible; values ≤ 0 disable windowing (the drain
// degrades to serial steps). Without a bound every window is unbounded.
func (e *Engine) SetLookahead(f func(shard int) float64) { e.lookahead = f }

// shardLa returns the effective lookahead for shard s.
func (e *Engine) shardLa(s int) float64 {
	if e.lookahead != nil {
		return e.lookahead(s)
	}
	return math.Inf(1)
}

// AddSource registers a source. Registration order is the priority at equal
// item times: earlier sources fire first.
func (e *Engine) AddSource(s Source) {
	e.sources = append(e.sources, s)
	e.serialSrc = append(e.serialSrc, false)
}

// AddSerialSource registers a source whose items always fire one at a time on
// the serial path, outside parallel windows — the home of event classes that
// are receiver-sharded and deterministically ordered but whose handlers need
// serial-context rights (scheduling global events, reading cross-shard
// state). Control deliveries live here. Pending serial items do not truncate
// windows; instead the post-window clock is clamped back to the earliest
// pending serial item, so it still fires at its own timestamp, exactly as in
// the serial drain. That clamp is sound because window items commute with the
// skipped-over serial item: window fires write only per-shard message/beacon
// state that serial-source handlers never read in their synchronous bodies.
func (e *Engine) AddSerialSource(s Source) {
	e.sources = append(e.sources, s)
	e.serialSrc = append(e.serialSrc, true)
}

// SetCrossable lets parallel windows extend past tm's pending event (the
// integration tick in the reproduced system). When tm's event is the earliest
// global and gate(tickAt) allows it, the window end extends to
// min(limit, next other global), and begin(tickAt) is invoked — serially,
// before the window opens — so the owner can switch to lazy tick application
// for items the window fires past tickAt. begin must be idempotent per
// tickAt: several windows may cross the same pending tick. Crossing is
// refused while any serial-source item is pending before limit, so crossed
// stretches never contain a serial fire. The crossed event itself still fires
// at its own timestamp as the next global once the clock passes it.
func (e *Engine) SetCrossable(tm *Timer, gate func(tickAt Time) (limit Time, ok bool), begin func(tickAt Time)) {
	e.crossTimer, e.crossGate, e.crossBegin = tm, gate, begin
}

// InWindow reports whether a parallel window phase is in flight: a window
// drain, or a RunShards callback such as the runner's completion of a
// crossed tick. Either way each event shard's work runs on that shard's
// own worker, concurrently with the other shards. Sources use it to route
// cross-shard effects to mailboxes; mutating the global queue while it
// returns true is a contract violation and panics.
func (e *Engine) InWindow() bool { return e.inWindow }

// RunShards calls fn(s) once for every event shard s ∈ [0, K), concurrently
// on the window worker pool, and returns after all of them finished. It is
// a window phase without events: InWindow() is true for its duration, so
// the global queue is locked against fn exactly as against window fires,
// and fn(s) must write only state owned by shard s. Call it from serial
// context (a global event), never from inside a window.
func (e *Engine) RunShards(fn func(shard int)) {
	if e.inWindow {
		panic("sim: RunShards during a parallel window")
	}
	e.inWindow = true
	if e.pool == nil {
		fn(0)
	} else {
		e.shardFn = fn
		e.pool.Run(e.shards, e.eachShardFn)
		e.shardFn = nil
	}
	e.inWindow = false
}

// eachShard is RunShards' pool callback: the pool hands every worker a
// range of event shards (one each, since the pool has K workers).
func (e *Engine) eachShard(_, lo, hi int) {
	for s := lo; s < hi; s++ {
		e.shardFn(s)
	}
}

// alloc takes a record slot from the free list, growing the slab only when
// the pool is dry (steady state never grows).
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	e.recs = append(e.recs, eventRec{pos: -1})
	return int32(len(e.recs) - 1)
}

// release returns a slot to the pool. The generation bump invalidates every
// outstanding Handle to it; dropping fn releases captured state.
func (e *Engine) release(slot int32) {
	r := &e.recs[slot]
	r.fn = nil
	r.pos = -1
	r.gen++
	e.free = append(e.free, slot)
}

// lookup resolves a Handle to a live slot, or ok=false for zero, fired,
// cancelled or recycled handles.
func (e *Engine) lookup(h Handle) (int32, bool) {
	slot := int32(uint32(h)) - 1
	if slot < 0 || int(slot) >= len(e.recs) {
		return 0, false
	}
	r := &e.recs[slot]
	if r.gen != uint32(h>>32) || r.pos < 0 {
		return 0, false
	}
	return slot, true
}

// checkTime rejects non-finite event times. NaN breaks heap ordering; ±Inf
// wedges PeekNext and would poison the sharded drain's window frontier
// while never firing.
func checkTime(op string, at Time) {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: %s called with non-finite time %v", op, at))
	}
}

// Schedule registers fn to run at absolute time at. Non-finite times (NaN
// or ±Inf) always panic. Scheduling in the past (before Now) is an error in
// the caller: with validation on (the default under `go test`, see
// SetValidate) it panics; with validation off the engine clamps it to Now
// so the event still fires.
func (e *Engine) Schedule(at Time, fn func(t Time)) Handle {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	if e.inWindow {
		panic("sim: Schedule during a parallel window (source events must not mutate the global queue)")
	}
	checkTime("Schedule", at)
	if at < e.now {
		if e.validate {
			panic(fmt.Sprintf("sim: Schedule at %v is in the past (Now is %v)", at, e.now))
		}
		at = e.now
	}
	slot := e.alloc()
	r := &e.recs[slot]
	r.at = at
	r.fn = fn
	r.seq = e.nextSeq
	e.nextSeq++
	r.pos = int32(len(e.heap))
	e.heap = append(e.heap, slot)
	e.siftUp(int(r.pos))
	return handleFor(slot, r.gen)
}

// After registers fn to run d time units after Now.
func (e *Engine) After(d float64, fn func(t Time)) Handle {
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a pending event from the queue. Cancelling a zero, fired,
// already-cancelled or recycled handle is a no-op.
func (e *Engine) Cancel(h Handle) {
	slot, ok := e.lookup(h)
	if !ok {
		return
	}
	if e.inWindow {
		panic("sim: Cancel during a parallel window (source events must not mutate the global queue)")
	}
	e.removeAt(int(e.recs[slot].pos))
	e.release(slot)
}

// Active reports whether the handle still refers to a pending event (it does
// not once the event fires, is cancelled, or the handle is zero).
func (e *Engine) Active(h Handle) bool {
	_, ok := e.lookup(h)
	return ok
}

// reschedule moves a pending event to a new time in place — the record and
// its heap slot are reused — or schedules fn fresh when the handle is stale.
// Either way the event counts as newly scheduled for FIFO tie-breaking, and
// the time checks match Schedule's (non-finite panics; past panics under
// validation, clamps otherwise).
func (e *Engine) reschedule(h Handle, at Time, fn func(t Time)) Handle {
	slot, ok := e.lookup(h)
	if !ok {
		return e.Schedule(at, fn)
	}
	if e.inWindow {
		panic("sim: reschedule during a parallel window (source events must not mutate the global queue)")
	}
	checkTime("reschedule", at)
	if at < e.now {
		if e.validate {
			panic(fmt.Sprintf("sim: reschedule to %v is in the past (Now is %v)", at, e.now))
		}
		at = e.now
	}
	r := &e.recs[slot]
	r.at = at
	r.seq = e.nextSeq
	e.nextSeq++
	pos := int(r.pos)
	e.siftDown(pos)
	if int(e.recs[slot].pos) == pos {
		e.siftUp(pos)
	}
	return h
}

// Stop makes the current Run call return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// RunUntil executes events in time order until all queues (the global heap
// and every registered Source) are drained past horizon. The clock ends at
// horizon (or at the time Run was stopped).
//
// With Sources registered the drain interleaves three step kinds, always in
// global (time, priority) order: global events fire serially and win ties;
// source items fire serially when K = 1, under SetReferenceDrain, or when
// they belong to a serial source; and with K ≥ 2 parallel-source items drain
// in windows [tmin, wEnd(s)) with a per-shard end
// wEnd(s) = min(next global event, tmin + lookahead(s)), after which every
// source's cross-shard mailboxes are folded at the window barrier and the
// clock advances to min over shards of wEnd(s), clamped back to the earliest
// pending serial-source item (see AddSerialSource) and to the next-other
// global when a tick was crossed (see SetCrossable).
func (e *Engine) RunUntil(horizon Time) {
	e.stopped = false
	if len(e.sources) == 0 {
		e.drainGlobal(horizon)
		return
	}
	if e.winEnds == nil || len(e.winEnds) != e.shards {
		e.winEnds = make([]Time, e.shards)
	}
	for !e.stopped {
		gAt := math.Inf(1)
		if len(e.heap) > 0 {
			gAt = e.recs[e.heap[0]].at
		}
		srcMin, src, shard, isSerial, serialMin := e.peekSources()
		if gAt > horizon && srcMin > horizon {
			break
		}
		// Global events are the scheduling frontier — only they can mutate
		// the global queue or the topology — so they run serially, win ties,
		// and bound every window.
		if gAt <= srcMin {
			e.fireGlobal()
			continue
		}
		if isSerial || e.pool == nil || e.reference {
			if isSerial && e.pool != nil && !e.reference {
				e.stats.SerialSteps++
			}
			e.fireSource(src, shard, srcMin)
			continue
		}
		// Tick crossing: when the earliest global is the crossable timer and
		// its owner's gate allows a lazy stretch, the window may extend past
		// it up to min(gate limit, next other global) — but never past a
		// pending serial item, whose handler needs every tick applied.
		gAtEff := gAt
		if e.crossTimer != nil {
			if slot, ok := e.lookup(e.crossTimer.h); ok && e.heap[0] == slot {
				if limit, allow := e.crossGate(gAt); allow && serialMin >= limit && limit > gAt {
					eff := limit
					if second := e.secondGlobal(); second < eff {
						eff = second
					}
					if eff > gAt {
						gAtEff = eff
						e.crossBegin(gAt)
						e.stats.CrossedTicks++
					}
				}
			}
		}
		tmin := srcMin
		minEnd := math.Inf(1)
		for s := 0; s < e.shards; s++ {
			end := gAtEff
			if w := tmin + e.shardLa(s); w < end {
				end = w
			}
			e.winEnds[s] = end
			if end < minEnd {
				minEnd = end
			}
		}
		if !(e.winEnds[shard] > tmin) {
			// Degenerate lookahead (≤ 0) on the frontier shard: no window
			// would admit the earliest item; take one serial step so the
			// drain still makes progress.
			e.stats.SerialSteps++
			e.fireSource(src, shard, srcMin)
			continue
		}
		e.runWindow(tmin, minEnd, serialMin, gAtEff, horizon)
	}
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
}

// drainGlobal is the source-free drain — the engine's historical serial
// loop, kept on its own path so global-only workloads pay nothing for the
// sharded machinery.
func (e *Engine) drainGlobal(horizon Time) {
	for len(e.heap) > 0 && !e.stopped {
		if e.recs[e.heap[0]].at > horizon {
			break
		}
		e.fireGlobal()
	}
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
}

// fireGlobal pops and executes the earliest global event. The callback
// receives the event's own timestamp: normally that equals the clock after
// the forward-only advance (Schedule clamps past times at insert), but a
// crossed tick legitimately fires with its original time below Now, and its
// handler must see the tick time, not the advanced clock.
func (e *Engine) fireGlobal() {
	slot := e.heap[0]
	r := &e.recs[slot]
	at, fn := r.at, r.fn
	e.removeAt(0)
	// Release before firing so fn's own scheduling reuses the record.
	e.release(slot)
	if at > e.now {
		e.now = at
	}
	e.Stepped++
	e.stats.GlobalEvents++
	fn(at)
}

// secondGlobal returns the time of the earliest global event other than the
// heap root — in a 4-ary heap, the minimum over the root's children.
func (e *Engine) secondGlobal() Time {
	best := math.Inf(1)
	n := len(e.heap)
	for i := 1; i <= 4 && i < n; i++ {
		if at := e.recs[e.heap[i]].at; at < best {
			best = at
		}
	}
	return best
}

// peekSources returns the earliest pending source item over all shards —
// ties broken by registration order then shard index — whether that item
// belongs to a serial source, and the earliest pending serial-source item
// (the window clamp bound).
func (e *Engine) peekSources() (Time, Source, int, bool, Time) {
	best := math.Inf(1)
	serialMin := math.Inf(1)
	var bs Source
	bsh := 0
	bser := false
	for i, s := range e.sources {
		ser := e.serialSrc[i]
		for sh := 0; sh < e.shards; sh++ {
			t := s.Peek(sh)
			if t < best {
				best, bs, bsh, bser = t, s, sh, ser
			}
			if ser && t < serialMin {
				serialMin = t
			}
		}
	}
	return best, bs, bsh, bser, serialMin
}

// fireSource executes one source item serially (K = 1, reference mode, or a
// degenerate window).
func (e *Engine) fireSource(s Source, shard int, at Time) {
	if at > e.now {
		e.now = at
	}
	e.Stepped++
	s.FireNext(shard, at)
}

// runWindow drains every source item in [tmin, winEnds[s]) per shard in
// parallel, then folds cross-shard mailboxes at the barrier. Two pool
// fan-outs: the drain phase (shards fire their own items, staging remote
// effects) and the flush phase (shards fold the mailboxes addressed to
// them). Shard s's window never reaches winEnds[s], so items a flush
// materializes — which land at ≥ tmin + lookahead(s) ≥ winEnds[s] by the
// Source contract — can never have been missed by the window they were
// created in.
//
// After the barrier the clock advances to minEnd = min over shards of
// winEnds[s], clamped back to the earliest pending serial-source item: that
// item must still fire at its own timestamp (its handler's relative timers
// depend on it), and the clamp is sound because every window fire past it
// commutes with it. The advance is also capped at the run horizon so
// RunUntil never overshoots.
func (e *Engine) runWindow(tmin, minEnd, serialMin, gAtEff, horizon Time) {
	if tmin > e.now {
		e.now = tmin
	}
	e.winHorizon = horizon
	e.inWindow = true
	e.pool.Run(e.shards, e.drainFn)
	e.pool.Run(e.shards, e.flushFn)
	e.inWindow = false
	fired := uint64(0)
	for i := range e.shardStepped {
		fired += e.shardStepped[i].n
		e.shardStepped[i].n = 0
	}
	e.Stepped += fired
	e.stats.Windows++
	e.stats.WindowEvents += fired
	adv := minEnd
	switch {
	case serialMin < adv:
		adv = serialMin
		e.stats.TruncControl++
	case adv >= gAtEff:
		e.stats.TruncGlobal++
	default:
		e.stats.TruncLookahead++
	}
	e.stats.recordWidth(adv - tmin)
	if adv > horizon {
		adv = horizon
	}
	if adv > e.now {
		e.now = adv
	}
}

// drainShards fires, per shard, every source item strictly before the
// shard's window end (and not beyond the run horizon), merging the shard's
// sources by (time, registration order).
func (e *Engine) drainShards(_, lo, hi int) {
	horizon := e.winHorizon
	for sh := lo; sh < hi; sh++ {
		wEnd := e.winEnds[sh]
		fired := uint64(0)
		for {
			best := math.Inf(1)
			var bs Source
			for i, s := range e.sources {
				if e.serialSrc[i] {
					// Serial-source items never fire inside windows; the
					// post-window clock clamp routes them to the serial path.
					continue
				}
				if t := s.Peek(sh); t < best {
					best, bs = t, s
				}
			}
			if bs == nil || best >= wEnd || best > horizon {
				break
			}
			bs.FireNext(sh, best)
			fired++
		}
		e.shardStepped[sh].n += fired
	}
}

// flushShards folds cross-shard mailboxes after the drain barrier.
func (e *Engine) flushShards(_, lo, hi int) {
	for sh := lo; sh < hi; sh++ {
		for _, s := range e.sources {
			s.Flush(sh)
		}
	}
}

// Pending returns the number of events currently queued on the global heap
// (source items are not included).
func (e *Engine) Pending() int { return len(e.heap) }

// PeekNext returns the time of the earliest pending global event, or +Inf
// if none.
func (e *Engine) PeekNext() Time {
	if len(e.heap) == 0 {
		return math.Inf(1)
	}
	return e.recs[e.heap[0]].at
}

// less orders slots by (at, seq); the seq tie-break preserves the FIFO
// contract for events scheduled at equal times.
func (e *Engine) less(a, b int32) bool {
	ra, rb := &e.recs[a], &e.recs[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

// siftUp restores heap order from position i towards the root.
func (e *Engine) siftUp(i int) {
	h := e.heap
	slot := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(slot, h[p]) {
			break
		}
		h[i] = h[p]
		e.recs[h[i]].pos = int32(i)
		i = p
	}
	h[i] = slot
	e.recs[slot].pos = int32(i)
}

// siftDown restores heap order from position i towards the leaves. The 4-ary
// layout halves tree depth versus binary, which dominates pop cost on the
// deep queues large runs build up.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	slot := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(h[j], h[best]) {
				best = j
			}
		}
		if !e.less(h[best], slot) {
			break
		}
		h[i] = h[best]
		e.recs[h[i]].pos = int32(i)
		i = best
	}
	h[i] = slot
	e.recs[slot].pos = int32(i)
}

// removeAt deletes the heap entry at position i (the slot itself is not
// released; the caller decides whether to recycle or rebind it).
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.heap[i] = last
	e.recs[last].pos = int32(i)
	e.siftDown(i)
	if int(e.recs[last].pos) == i {
		e.siftUp(i)
	}
}

// Timer is a reusable scheduled callback: the function is bound once and
// Reset re-arms (or moves) the event without allocating, reusing the pooled
// record and heap slot when the timer is still pending. Recurring machinery
// — tickers, scenario generators — runs on Timers so steady-state operation
// schedules nothing new.
type Timer struct {
	engine *Engine
	fn     func(t Time)
	// fireFn is t.fire bound once at construction, so re-arming never
	// allocates a fresh method value.
	fireFn func(t Time)
	h      Handle
}

// NewTimer binds fn to a reusable timer. The timer starts un-armed; call
// Reset or After to schedule it.
func (e *Engine) NewTimer(fn func(t Time)) *Timer {
	if fn == nil {
		panic("sim: NewTimer called with nil function")
	}
	t := &Timer{engine: e, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset arms the timer to fire at absolute time at, superseding any pending
// firing. A reset timer counts as freshly scheduled for FIFO tie-breaking.
func (t *Timer) Reset(at Time) {
	t.h = t.engine.reschedule(t.h, at, t.fireFn)
}

// After arms the timer to fire d time units from now.
func (t *Timer) After(d float64) { t.Reset(t.engine.now + d) }

// Stop disarms the timer; a stopped timer can be re-armed with Reset.
func (t *Timer) Stop() {
	t.engine.Cancel(t.h)
	t.h = 0
}

// Pending reports whether the timer is currently armed.
func (t *Timer) Pending() bool { return t.engine.Active(t.h) }

func (t *Timer) fire(now Time) {
	t.h = 0
	t.fn(now)
}

// Ticker invokes fn every interval units of simulated time, starting at
// start, until the engine run ends or the ticker is stopped. The tick
// callback receives the tick time and the elapsed time since the previous
// tick (equal to interval except possibly for the first tick).
type Ticker struct {
	timer    *Timer
	interval float64
	fn       func(t Time, dt float64)
	last     Time
	stopped  bool
}

// NewTicker schedules a recurring tick. interval must be positive. A start
// before Now is clamped to Now, and the previous-tick anchor is re-anchored
// to the clamped start, so the first tick reports dt == interval rather
// than silently inflating dt by the amount the start was in the past.
func (e *Engine) NewTicker(start Time, interval float64, fn func(t Time, dt float64)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: ticker interval must be positive, got %v", interval))
	}
	if start < e.now {
		start = e.now
	}
	tk := &Ticker{interval: interval, fn: fn, last: start - interval}
	tk.timer = e.NewTimer(tk.fire)
	tk.timer.Reset(start)
	return tk
}

func (tk *Ticker) fire(t Time) {
	if tk.stopped {
		return
	}
	dt := t - tk.last
	tk.last = t
	tk.fn(t, dt)
	if !tk.stopped {
		tk.timer.Reset(t + tk.interval)
	}
}

// Stop cancels the ticker; no further ticks fire.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.timer.Stop()
}

// Timer exposes the ticker's underlying timer, the handle SetCrossable needs
// to recognize the pending tick on the global heap.
func (tk *Ticker) Timer() *Timer { return tk.timer }
