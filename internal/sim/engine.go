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
// register as Sources and are drained in parallel windows bounded by one
// caller-provided lookahead — the minimum link transit time
// Delay−Uncertainty in the reproduced model. See DESIGN.md ("Sharded event
// drain") for the shard keying, the safe-horizon bound and the determinism
// argument.
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

// shardCount is a shard's window state, padded to its own cache line so
// concurrent window drains never false-share: n counts the items the shard
// fired in the window, and ticked records that step(shard) already ran for
// the armed crossed tick (SetCrossable). Only the shard's own drain writes
// them; the engine reads and resets them serially, between windows.
type shardCount struct {
	n      uint64
	ticked bool
	_      [6]uint64
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

	// validate enables the debug-build checks (past-time scheduling panics
	// instead of clamping). It is on under `go test` and off otherwise.
	validate bool
	// inlineItems is the window executor's size rule: a window whose
	// estimated item count is below it runs on the calling goroutine (see
	// runWindow). NewEngine sets it to inlineWindowItems; like validate it
	// has no setter, and only package tests change it — to 0, which fans
	// out every window, or +Inf, which runs every window of finite advance
	// inline once the clock has left 0.
	inlineItems float64

	// Sharded drain state. shards is the window parallelism K (1 = serial);
	// sources fire in registration order at equal times, with serial sources
	// (serialSrc) always stepped one item at a time outside windows.
	// lookahead returns the conservative window width (the minimum link
	// transit); winEnd is the open window's end, the same for every shard.
	shards       int
	pool         *par.Pool
	sources      []Source
	serialSrc    []bool
	lookahead    func() float64
	inWindow     bool
	winEnd       Time
	winHorizon   Time
	drainFn      func(shard, lo, hi int)
	flushFn      func(shard, lo, hi int)
	shardStepped []shardCount

	// Tick-crossing state (SetCrossable): windows may extend past the
	// registered ticker's pending event up to its next fire. crossAt is the
	// time of the armed crossed tick, +Inf when none is.
	crossTicker *Ticker
	crossBegin  func(tickAt Time)
	crossStep   func(shard int)
	crossAt     Time

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
	// the total source items fired inside them. InlineWindows counts the
	// windows among them that ran on the calling goroutine instead of the
	// worker pool (see runWindow).
	Windows       uint64
	WindowEvents  uint64
	InlineWindows uint64
	// SerialSteps counts source items fired one at a time outside windows:
	// every serial-source item (control deliveries), plus parallel-source
	// items stepped serially because the lookahead was degenerate. (With
	// K = 1 no windows open and nothing is tallied.)
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
// Schedule) is enabled under `go test` and disabled otherwise.
func NewEngine() *Engine {
	e := &Engine{
		validate:     testing.Testing(),
		inlineItems:  inlineWindowItems,
		shards:       1,
		shardStepped: make([]shardCount, 1),
		crossAt:      math.Inf(1),
	}
	e.drainFn = e.drainShards
	e.flushFn = e.flushShards
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

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

// Owner is the one keying rule of node-keyed sources: the event shard, of
// k, that owns node u. Every item about a node — its beacon-wheel slot, the
// deliveries addressed to it, the crossed-tick step of its clocks — fires
// on its owner's shard, so a window writes each node's state from one
// shard. The rule is u mod k.
func Owner(u, k int) int { return u % k }

// FirstOwned returns the smallest node shard s owns at k shards, and
// NextOwned the next node after u that u's shard owns: the owned sequence
// a shard walks in ascending order, FirstOwned(s, k), NextOwned of that,
// and so on while the node is below the node count. Owner of every node of
// the sequence is s.
func FirstOwned(s, k int) int { return s }

// NextOwned is the step of the owned sequence (see FirstOwned).
func NextOwned(u, k int) int { return u + k }

// SetLookahead installs the conservative window bound: f() returns the
// minimum time any source item fired now can take to affect any shard — the
// model's minimum link transit, Delay−Uncertainty, over every link — so a
// window opened at tmin may extend to tmin + f() on every shard. Soundness:
// an item fired at t ≥ tmin can create work for a shard, its own included,
// no earlier than t + f() ≥ tmin + f(). +Inf is sound when no interaction
// is possible; values ≤ 0 disable windowing (the drain degrades to serial
// steps). Without a bound every window is unbounded.
func (e *Engine) SetLookahead(f func() float64) { e.lookahead = f }

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

// SetCrossable lets parallel windows extend past tk's pending tick (the
// integration tick in the reproduced system). The caller registers it only
// when a tick can always be applied one shard at a time, so the engine asks
// nothing per tick: when tk's event at tickAt is the earliest global, the
// window end extends to min(tickAt + interval, next other global), the
// crossed stretch ending at the ticker's next fire. The first window to
// cross a pending tick arms it: begin(tickAt) runs serially, before that
// window opens, and later windows crossing the same tick find it armed. The
// armed tick is then applied one event shard at a time: step(s) runs once
// for every shard s, inside a window just before the shard's first item at
// or after tickAt, and for each shard no window reached, serially just
// before the crossed event itself fires. Either way InWindow() is true and
// step(s) must write only state owned by shard s, like the shard's items.
// Crossing is refused while any serial-source item is pending before the
// stretch ends, so crossed stretches never contain a serial fire. The
// crossed event still fires at its own timestamp as the next global once
// the clock passes it.
func (e *Engine) SetCrossable(tk *Ticker, begin func(tickAt Time), step func(shard int)) {
	e.crossTicker, e.crossBegin, e.crossStep = tk, begin, step
}

// InWindow reports whether a parallel window phase is in flight: a window
// drain, or the serial step of a crossed tick's remaining shards just before
// the tick fires (SetCrossable). Either way a shard's items run on one
// goroutine at a time, possibly concurrently with other shards' items: a
// pooled window hands each shard to one pool worker, and an inline window
// and the crossed tick's step run the shards one after another on the
// calling goroutine. Sources use it to route cross-shard effects to
// mailboxes; mutating the global queue while it returns true is a contract
// violation and panics.
func (e *Engine) InWindow() bool { return e.inWindow }

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
// wedges the global frontier and would poison the sharded drain's window
// bound while never firing.
func checkTime(op string, at Time) {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: %s called with non-finite time %v", op, at))
	}
}

// Schedule registers fn to run at absolute time at. Non-finite times (NaN
// or ±Inf) always panic. Scheduling in the past (before Now) is an error in
// the caller: with validation on (under `go test`) it panics; with it off
// (every other build) the engine clamps it to Now so the event still fires.
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

// RunUntil executes events in time order until nothing is pending at or
// before horizon, in the global heap or in any registered Source. The clock
// ends at horizon; an engine with nothing pending stops at once, even when
// horizon is +Inf.
//
// The drain interleaves three step kinds, always in global (time, priority)
// order: global events fire serially and win ties; source items fire
// serially when K = 1 or when they belong to a serial source; and with
// K ≥ 2 parallel-source items drain in windows [tmin, wEnd) with one end for
// every shard, wEnd = min(next global event, tmin + lookahead()), where a
// pending crossable tick stands for the earlier of its next fire and the
// global after it (see SetCrossable). Every source's cross-shard mailboxes
// are then folded at the window barrier, and the clock advances to wEnd,
// clamped back to the earliest pending serial-source item (see
// AddSerialSource).
func (e *Engine) RunUntil(horizon Time) {
	for {
		gAt := math.Inf(1)
		if len(e.heap) > 0 {
			gAt = e.recs[e.heap[0]].at
		}
		srcMin, src, shard, isSerial, serialMin := e.peekSources()
		// Event times are finite (checkTime), so +Inf means nothing pending.
		if next := min(gAt, srcMin); next > horizon || math.IsInf(next, 1) {
			break
		}
		// Global events are the scheduling frontier — only they can mutate
		// the global queue or the topology — so they run serially, win ties,
		// and bound every window.
		if gAt <= srcMin {
			e.fireGlobal()
			continue
		}
		if isSerial || e.pool == nil {
			if isSerial && e.pool != nil {
				e.stats.SerialSteps++
			}
			e.fireSource(src, shard, srcMin)
			continue
		}
		// Tick crossing: when the earliest global is the crossable tick, the
		// window may extend past it up to min(next fire, next other global)
		// — but never past a pending serial item, whose handler needs every
		// tick applied. The first window to cross the tick arms it and
		// clears every shard's flag.
		gAtEff := gAt
		if tk := e.crossTicker; tk != nil {
			if slot, ok := e.lookup(tk.timer.h); ok && e.heap[0] == slot {
				if limit := gAt + tk.interval; serialMin >= limit {
					eff := min(limit, e.secondGlobal())
					if eff > gAt {
						gAtEff = eff
						if e.crossAt != gAt {
							e.crossAt = gAt
							for s := range e.shardStepped {
								e.shardStepped[s].ticked = false
							}
							e.crossBegin(gAt)
						}
						e.stats.CrossedTicks++
					}
				}
			}
		}
		end := gAtEff
		if e.lookahead != nil {
			end = min(end, srcMin+e.lookahead())
		}
		if !(end > srcMin) {
			// Degenerate lookahead (≤ 0): no window would admit the earliest
			// item; take one serial step so the drain still makes progress.
			e.stats.SerialSteps++
			e.fireSource(src, shard, srcMin)
			continue
		}
		e.runWindow(srcMin, end, serialMin, gAtEff, horizon)
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// fireGlobal pops and executes the earliest global event. The callback
// receives the event's own timestamp: normally that equals the clock after
// the forward-only advance (Schedule clamps past times at insert), but a
// crossed tick legitimately fires with its original time below Now, and its
// handler must see the tick time, not the advanced clock. When the event is
// the armed crossed tick's, the shards no window stepped are stepped first.
func (e *Engine) fireGlobal() {
	slot := e.heap[0]
	if e.crossAt < math.Inf(1) {
		if cs, ok := e.lookup(e.crossTicker.timer.h); ok && cs == slot {
			e.finishCross()
		}
	}
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

// finishCross steps, on the calling goroutine in shard order, every shard no
// window reached since the crossed tick was armed, and disarms it. It runs as
// a window phase without events: InWindow() is true, so the global queue is
// locked against step exactly as against window fires.
func (e *Engine) finishCross() {
	e.inWindow = true
	for s := range e.shardStepped {
		if !e.shardStepped[s].ticked {
			e.crossStep(s)
		}
	}
	e.inWindow = false
	e.crossAt = math.Inf(1)
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

// fireSource executes one source item serially (K = 1, a serial source, or a
// degenerate window).
func (e *Engine) fireSource(s Source, shard int, at Time) {
	if at > e.now {
		e.now = at
	}
	e.Stepped++
	s.FireNext(shard, at)
}

// inlineWindowItems is the window size, in estimated source items, below
// which runWindow drains and flushes on the calling goroutine instead of
// making its two pool fan-outs. Per-window wall times at K = 2, each
// executor forced for two whole runs on a 2-vCPU Xeon VM, size it. On
// geo-mobile-10k inline won every size bucket, from 1.4–1.7 µs against
// 5.7–5.8 µs pooled for one item to 79–86 µs against 92–101 µs for 256–511
// items; 98.2% of geo's windows hold under 256 items and none 512. Oracle
// rings with chord churn broke even at 1,024–2,047 items, and
// ring-messaging-100k's windows of 16,384–65,535 items ran 1.7–1.8 times
// faster pooled. On another 2-vCPU host, 256–511-item windows ran 15–22%
// faster pooled. 256 is the lower of the two crossovers; values up to
// about 2,000 would split the two benchmark workloads much the same way.
// DESIGN.md ("Window executor") has the full measurement.
const inlineWindowItems = 256

// runWindow drains every shard's source items in [tmin, end), then folds
// cross-shard mailboxes at the barrier: a drain phase (shards fire their own
// items, staging remote effects) and a flush phase (shards fold the
// mailboxes addressed to them). No shard's window reaches end, so items a
// flush materializes — which land at ≥ tmin + lookahead() ≥ end by the
// Source contract — can never have been missed by the window they were
// created in.
//
// The two phases run on one of two executors. A window the size rule
// expects to hold fewer than inlineItems source items runs both phases on
// the calling goroutine, every shard in index order; any other window fans
// each phase out over the pool, one shard per worker. The estimate is the
// run's source-item rate so far, (Stepped − GlobalEvents)/Now(), times the
// window's advance end − tmin; at Now() = 0 there is no rate yet and the
// window fans out. Both executors produce the same run: same-window items
// of different shards commute by the Source contract, so the order in which
// shards drain — concurrent or sequential — is unobservable, and InWindow,
// the mailboxes and every DrainStats counter but InlineWindows behave the
// same.
//
// After the barrier the clock advances to end, clamped back to the earliest
// pending serial-source item: that item must still fire at its own
// timestamp (its handler's relative timers depend on it), and the clamp is
// sound because every window fire past it commutes with it. The advance is
// also capped at the run horizon so RunUntil never overshoots.
func (e *Engine) runWindow(tmin, end, serialMin, gAtEff, horizon Time) {
	if tmin > e.now {
		e.now = tmin
	}
	e.winEnd, e.winHorizon = end, horizon
	e.inWindow = true
	// Written so that Now() = 0 (0 < 0), an unbounded advance and a NaN
	// estimate all fail the test and fan out.
	if float64(e.Stepped-e.stats.GlobalEvents)*(end-tmin) < e.inlineItems*e.now {
		e.drainShards(0, 0, e.shards)
		e.flushShards(0, 0, e.shards)
		e.stats.InlineWindows++
	} else {
		e.pool.Run(e.shards, e.drainFn)
		e.pool.Run(e.shards, e.flushFn)
	}
	e.inWindow = false
	fired := uint64(0)
	for i := range e.shardStepped {
		fired += e.shardStepped[i].n
		e.shardStepped[i].n = 0
	}
	e.Stepped += fired
	e.stats.Windows++
	e.stats.WindowEvents += fired
	adv := end
	switch {
	case serialMin < adv:
		adv = serialMin
		e.stats.TruncControl++
	case adv >= gAtEff:
		e.stats.TruncGlobal++
	default:
		e.stats.TruncLookahead++
	}
	if adv > horizon {
		adv = horizon
	}
	if adv > e.now {
		e.now = adv
	}
}

// drainShards fires, per shard, every source item strictly before the
// window end (and not beyond the run horizon), merging the shard's sources
// by (time, registration order). Before the shard's first item at or after
// an armed crossed tick it steps the shard (SetCrossable).
func (e *Engine) drainShards(_, lo, hi int) {
	wEnd, horizon := e.winEnd, e.winHorizon
	for sh := lo; sh < hi; sh++ {
		c := &e.shardStepped[sh]
		tickAt := e.crossAt
		if c.ticked {
			tickAt = math.Inf(1)
		}
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
			if best >= tickAt {
				c.ticked = true
				tickAt = math.Inf(1)
				e.crossStep(sh)
			}
			bs.FireNext(sh, best)
			fired++
		}
		c.n += fired
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
// Reset to schedule it.
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

// Stop disarms the timer; a stopped timer can be re-armed with Reset.
func (t *Timer) Stop() {
	t.engine.Cancel(t.h)
	t.h = 0
}

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
