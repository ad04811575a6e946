package sim

// Differential test for the sharded event drain at the engine level: a toy
// Source with self-propagating, cross-shard-spawning items is drained at
// K = 1 (serial), K = 2 and K = 8 (windowed), and K = 8 in reference mode
// (serially merged), interleaved with global events that snapshot progress
// and inject new items. Every mode must agree bit for bit on the per-owner
// fire traces, the global snapshots, the event count and the final clock.
// Under `make race` the K = 8 runs are also the detector's workout for the
// drain/flush barrier discipline.

import (
	"math"
	"testing"
)

// toyItem is one pending source item, owned by a logical entity ("owner",
// the analogue of a node); owners shard by owner mod K.
type toyItem struct {
	at    Time
	owner int32
	id    uint64
}

// toyShard is one shard's queue plus its outbox row (out[dst] stages items
// spawned for shard dst during a window).
type toyShard struct {
	items []toyItem
	out   [][]toyItem
}

// toySource mimics the transport's sharding contract: items fire in
// (at, owner, id) order per shard; firing appends to the owner's trace and
// may spawn a successor at ≥ now + lookahead for a derived owner, staged
// via the outbox when the target shard differs inside a window. All spawn
// decisions derive from the fired item's id alone, so behavior is a pure
// function of content — independent of shard count and window layout.
type toySource struct {
	engine    *Engine
	k, owners int
	lookahead float64
	sh        []toyShard
	trace     [][]uint64 // per-owner fired ids; owner's shard writes only
}

func newToySource(e *Engine, owners int, lookahead float64) *toySource {
	k := e.EventShards()
	s := &toySource{engine: e, k: k, owners: owners, lookahead: lookahead}
	s.sh = make([]toyShard, k)
	for i := range s.sh {
		s.sh[i].out = make([][]toyItem, k)
	}
	s.trace = make([][]uint64, owners)
	e.AddSource(s)
	return s
}

func (s *toySource) less(a, b toyItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.id < b.id
}

// minIdx returns the index of the shard's earliest item (linear scan is
// plenty at test sizes), or -1.
func (s *toySource) minIdx(shard int) int {
	sh := &s.sh[shard]
	best := -1
	for i := range sh.items {
		if best < 0 || s.less(sh.items[i], sh.items[best]) {
			best = i
		}
	}
	return best
}

func (s *toySource) Peek(shard int) Time {
	i := s.minIdx(shard)
	if i < 0 {
		return math.Inf(1)
	}
	return s.sh[shard].items[i].at
}

func (s *toySource) FireNext(shard int, now Time) {
	sh := &s.sh[shard]
	i := s.minIdx(shard)
	it := sh.items[i]
	sh.items[i] = sh.items[len(sh.items)-1]
	sh.items = sh.items[:len(sh.items)-1]
	s.trace[it.owner] = append(s.trace[it.owner], it.id)
	r := SplitMix64(it.id)
	if r%3 == 0 {
		return // chain ends
	}
	frac := float64(r>>40) / (1 << 24)
	next := toyItem{
		// Strictly beyond the lookahead so a same-shard push during a
		// window can never land inside the window that spawned it.
		at:    now + s.lookahead*(1.0001+frac),
		owner: int32((r >> 8) % uint64(s.owners)),
		id:    r,
	}
	dst := int(next.owner) % s.k
	if s.engine.InWindow() && dst != shard {
		sh.out[dst] = append(sh.out[dst], next)
		return
	}
	s.sh[dst].items = append(s.sh[dst].items, next)
}

func (s *toySource) Flush(shard int) {
	dst := &s.sh[shard]
	for g := range s.sh {
		staged := s.sh[g].out[shard]
		dst.items = append(dst.items, staged...)
		s.sh[g].out[shard] = staged[:0]
	}
}

// inject seeds an item from global context (the analogue of a test or
// scenario sending a beacon directly).
func (s *toySource) inject(it toyItem) {
	s.sh[int(it.owner)%s.k].items = append(s.sh[int(it.owner)%s.k].items, it)
}

func (s *toySource) fired() int {
	total := 0
	for _, tr := range s.trace {
		total += len(tr)
	}
	return total
}

// toyRun drains one full configuration and returns its observables.
type toyOutcome struct {
	traces    [][]uint64
	snapshots []int // fired count at each global ticker event
	stepped   uint64
	now       Time
}

func toyRun(k int, reference bool) toyOutcome {
	const (
		owners    = 13
		lookahead = 0.05
		horizon   = 40.0
	)
	e := NewEngine()
	e.SetEventParallelism(k)
	e.SetReferenceDrain(reference)
	e.SetLookahead(func() float64 { return lookahead })
	src := newToySource(e, owners, lookahead)
	for i := 0; i < 60; i++ {
		id := SplitMix64(uint64(i) * 977)
		src.inject(toyItem{
			at:    float64(i%29) * 0.37,
			owner: int32((id >> 16) % owners),
			id:    id,
		})
	}
	var out toyOutcome
	tick := 0
	e.NewTicker(0.7, 0.7, func(t Time, _ float64) {
		// Windows never cross a global event, so this snapshot — and the
		// injection below — sees the same drained prefix in every mode.
		out.snapshots = append(out.snapshots, src.fired())
		tick++
		if tick%5 == 0 {
			id := SplitMix64(uint64(tick) * 131071)
			src.inject(toyItem{at: t + 0.01, owner: int32((id >> 24) % owners), id: id})
		}
	})
	// Chunked horizons exercise window truncation at run boundaries.
	for _, h := range []Time{9.5, 10.0, 27.3, horizon} {
		e.RunUntil(h)
	}
	out.traces = src.trace
	out.stepped = e.Stepped
	out.now = e.Now()
	return out
}

func (a toyOutcome) diff(t *testing.T, b toyOutcome, mode string) {
	t.Helper()
	if a.stepped != b.stepped {
		t.Errorf("%s: stepped %d, want %d", mode, b.stepped, a.stepped)
	}
	if a.now != b.now {
		t.Errorf("%s: final now %v, want %v", mode, b.now, a.now)
	}
	if len(a.snapshots) != len(b.snapshots) {
		t.Fatalf("%s: %d snapshots, want %d", mode, len(b.snapshots), len(a.snapshots))
	}
	for i := range a.snapshots {
		if a.snapshots[i] != b.snapshots[i] {
			t.Fatalf("%s: snapshot %d = %d, want %d", mode, i, b.snapshots[i], a.snapshots[i])
		}
	}
	for o := range a.traces {
		if len(a.traces[o]) != len(b.traces[o]) {
			t.Fatalf("%s: owner %d fired %d items, want %d", mode, o, len(b.traces[o]), len(a.traces[o]))
		}
		for i := range a.traces[o] {
			if a.traces[o][i] != b.traces[o][i] {
				t.Fatalf("%s: owner %d item %d = %x, want %x", mode, o, i, b.traces[o][i], a.traces[o][i])
			}
		}
	}
}

// TestWindowedDrainDifferential is the engine-level analogue of the
// queue_test reference model, for the sharded drain: serial, windowed and
// reference-merged runs of the same item population must be bit-identical.
func TestWindowedDrainDifferential(t *testing.T) {
	serial := toyRun(1, false)
	if len(serial.snapshots) == 0 || serial.stepped == 0 {
		t.Fatal("toy run executed nothing; test harness broken")
	}
	serial.diff(t, toyRun(2, false), "K=2 windowed")
	serial.diff(t, toyRun(8, false), "K=8 windowed")
	serial.diff(t, toyRun(8, true), "K=8 reference")
}

// toyCtlSource is a serial source mimicking the transport's control queue:
// receiver-sharded storage, content-keyed (at, owner, id) order per shard,
// but items fire one at a time on the engine's serial path — never inside a
// window. Fires append to per-owner traces (cross-owner fire order is
// unobservable by the commutation argument: a control handler reads only its
// receiver's state) and spawn items into the parallel source, exercising the
// serial→windowed hand-off.
type toyCtlSource struct {
	src *toySource
	k   int
	sh  [][]toyItem
	// trace[owner] logs (id) per receiving owner; the owner's fires are
	// totally ordered by the per-shard content key.
	trace [][]uint64
}

func newToyCtlSource(e *Engine, src *toySource) *toyCtlSource {
	c := &toyCtlSource{src: src, k: e.EventShards(), trace: make([][]uint64, src.owners)}
	c.sh = make([][]toyItem, c.k)
	e.AddSerialSource(c)
	return c
}

func (c *toyCtlSource) minIdx(shard int) int {
	best := -1
	for i := range c.sh[shard] {
		if best < 0 || c.src.less(c.sh[shard][i], c.sh[shard][best]) {
			best = i
		}
	}
	return best
}

func (c *toyCtlSource) Peek(shard int) Time {
	i := c.minIdx(shard)
	if i < 0 {
		return math.Inf(1)
	}
	return c.sh[shard][i].at
}

func (c *toyCtlSource) FireNext(shard int, now Time) {
	i := c.minIdx(shard)
	it := c.sh[shard][i]
	c.sh[shard][i] = c.sh[shard][len(c.sh[shard])-1]
	c.sh[shard] = c.sh[shard][:len(c.sh[shard])-1]
	c.trace[it.owner] = append(c.trace[it.owner], it.id)
	// Serial context: direct push into the parallel source is legal (the
	// analogue of a control handler scheduling follow-up traffic). The spawn
	// time derives from content only — the clamp guarantees now == it.at.
	r := SplitMix64(it.id ^ 0x9e3779b97f4a7c15)
	c.src.inject(toyItem{
		at:    now + 0.01 + float64(r>>40)/(1<<24),
		owner: int32((r >> 8) % uint64(c.src.owners)),
		id:    r,
	})
}

func (c *toyCtlSource) Flush(int) {}

func (c *toyCtlSource) inject(it toyItem) {
	c.sh[int(it.owner)%c.k] = append(c.sh[int(it.owner)%c.k], it)
}

// toyCtlRun drains the combined parallel + serial source population.
func toyCtlRun(k int, reference bool) (toyOutcome, [][]uint64, DrainStats) {
	const (
		owners    = 11
		lookahead = 0.05
		horizon   = 35.0
	)
	e := NewEngine()
	e.SetEventParallelism(k)
	e.SetReferenceDrain(reference)
	e.SetLookahead(func() float64 { return lookahead })
	src := newToySource(e, owners, lookahead)
	ctl := newToyCtlSource(e, src)
	for i := 0; i < 40; i++ {
		id := SplitMix64(uint64(i) * 1223)
		src.inject(toyItem{at: float64(i%23) * 0.41, owner: int32((id >> 16) % owners), id: id})
	}
	var out toyOutcome
	tick := 0
	e.NewTicker(0.9, 0.9, func(t Time, _ float64) {
		out.snapshots = append(out.snapshots, src.fired())
		tick++
		// Globals are the only legal control injectors besides serial fires;
		// offsets land controls mid-window to exercise the post-window clamp.
		if tick%2 == 0 {
			id := SplitMix64(uint64(tick) * 524287)
			ctl.inject(toyItem{at: t + 0.13 + float64(id>>48)/(1<<18), owner: int32((id >> 24) % owners), id: id})
		}
	})
	for _, h := range []Time{7.7, 8.0, 21.2, horizon} {
		e.RunUntil(h)
	}
	out.traces = src.trace
	out.stepped = e.Stepped
	out.now = e.Now()
	return out, ctl.trace, e.DrainStats()
}

// TestSerialSourceDifferential pins the serial-source discipline: with a
// control queue riding alongside the windowed source, serial, windowed and
// reference runs must agree bit for bit — on the windowed traces, the global
// snapshots AND the per-owner control traces — and the windowed run must
// actually have exercised the serial path and the control clamp.
func TestSerialSourceDifferential(t *testing.T) {
	diffCtl := func(mode string, a, b [][]uint64) {
		t.Helper()
		for o := range a {
			if len(a[o]) != len(b[o]) {
				t.Fatalf("%s: owner %d got %d control fires, want %d", mode, o, len(b[o]), len(a[o]))
			}
			for i := range a[o] {
				if a[o][i] != b[o][i] {
					t.Fatalf("%s: owner %d control %d = %x, want %x", mode, o, i, b[o][i], a[o][i])
				}
			}
		}
	}
	serial, serialCtl, _ := toyCtlRun(1, false)
	if len(serialCtl) == 0 {
		t.Fatal("no control traces; harness broken")
	}
	fired := 0
	for _, tr := range serialCtl {
		fired += len(tr)
	}
	if fired == 0 {
		t.Fatal("no controls fired; harness broken")
	}
	for _, k := range []int{2, 8} {
		got, gotCtl, stats := toyCtlRun(k, false)
		serial.diff(t, got, "windowed")
		diffCtl("windowed", serialCtl, gotCtl)
		if stats.SerialSteps == 0 {
			t.Errorf("K=%d: no serial steps recorded; controls did not take the serial path", k)
		}
		if stats.TruncControl == 0 {
			t.Errorf("K=%d: no window was clamped by a pending control", k)
		}
	}
	ref, refCtl, _ := toyCtlRun(8, true)
	serial.diff(t, ref, "reference")
	diffCtl("reference", serialCtl, refCtl)
}

// crossToy is the engine-level model of the runner's lazy tick application:
// each owner has a clock integrated at a per-owner constant rate on a global
// ticker, items read their owner's clock when they fire, and the harness
// implements the tick-crossing contract — gate always allows, a crossed tick
// is applied per owner at first touch, the ticker sweep finishes stragglers.
// The fired (id, clock-bits) traces must match the serial run exactly, which
// fails if a lazy application is missed, doubled, or uses the wrong dt.
type crossToy struct {
	engine    *Engine
	k, owners int
	sh        []toyShard
	clock     []float64
	trace     [][]uint64 // per owner: id, Float64bits(clock) pairs

	lastTick   Time
	lazyActive bool
	lazyT      Time
	lazyDt     float64
	epoch      uint32
	ownerEpoch []uint32
	snapshots  []uint64 // per tick per owner: Float64bits(clock)
}

func newCrossToy(e *Engine, owners int) *crossToy {
	k := e.EventShards()
	c := &crossToy{
		engine: e, k: k, owners: owners,
		clock:      make([]float64, owners),
		trace:      make([][]uint64, owners),
		ownerEpoch: make([]uint32, owners),
		sh:         make([]toyShard, k),
	}
	for i := range c.sh {
		c.sh[i].out = make([][]toyItem, k)
	}
	e.AddSource(c)
	return c
}

func (c *crossToy) rate(o int) float64 { return 1 + 0.01*float64(o%7) }

func (c *crossToy) gate(tickAt Time) (Time, bool) { return tickAt + 0.7, true }

func (c *crossToy) begin(tickAt Time) {
	if c.lazyActive && c.lazyT == tickAt {
		return
	}
	c.lazyActive = true
	c.lazyT = tickAt
	c.lazyDt = tickAt - c.lastTick
	c.epoch++
}

func (c *crossToy) touch(o int, at Time) {
	if !c.lazyActive || at < c.lazyT || c.ownerEpoch[o] == c.epoch {
		return
	}
	c.ownerEpoch[o] = c.epoch
	c.clock[o] += c.rate(o) * c.lazyDt
}

func (c *crossToy) tick(t Time, _ float64) {
	if c.lazyActive {
		c.lazyActive = false
		for o := 0; o < c.owners; o++ {
			if c.ownerEpoch[o] != c.epoch {
				c.ownerEpoch[o] = c.epoch
				c.clock[o] += c.rate(o) * c.lazyDt
			}
		}
	} else {
		dt := t - c.lastTick
		for o := 0; o < c.owners; o++ {
			c.clock[o] += c.rate(o) * dt
		}
	}
	c.lastTick = t
	for o := 0; o < c.owners; o++ {
		c.snapshots = append(c.snapshots, math.Float64bits(c.clock[o]))
	}
}

func (c *crossToy) less(a, b toyItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.id < b.id
}

func (c *crossToy) minIdx(shard int) int {
	sh := &c.sh[shard]
	best := -1
	for i := range sh.items {
		if best < 0 || c.less(sh.items[i], sh.items[best]) {
			best = i
		}
	}
	return best
}

func (c *crossToy) Peek(shard int) Time {
	i := c.minIdx(shard)
	if i < 0 {
		return math.Inf(1)
	}
	return c.sh[shard].items[i].at
}

func (c *crossToy) FireNext(shard int, now Time) {
	sh := &c.sh[shard]
	i := c.minIdx(shard)
	it := sh.items[i]
	sh.items[i] = sh.items[len(sh.items)-1]
	sh.items = sh.items[:len(sh.items)-1]
	// The lazy contract: apply a crossed tick to the owner before reading
	// its clock.
	c.touch(int(it.owner), now)
	c.trace[it.owner] = append(c.trace[it.owner], it.id, math.Float64bits(c.clock[it.owner]))
	r := SplitMix64(it.id)
	if r%4 == 0 {
		return
	}
	next := toyItem{
		// Spacing > the widest possible crossed window (two ticker periods),
		// so a same-shard push can never land inside the spawning window.
		at:    now + 1.5 + float64(r>>40)/(1<<24),
		owner: int32((r >> 8) % uint64(c.owners)),
		id:    r,
	}
	dst := int(next.owner) % c.k
	if c.engine.InWindow() && dst != shard {
		sh.out[dst] = append(sh.out[dst], next)
		return
	}
	c.sh[dst].items = append(c.sh[dst].items, next)
}

func (c *crossToy) Flush(shard int) {
	dst := &c.sh[shard]
	for g := range c.sh {
		staged := c.sh[g].out[shard]
		dst.items = append(dst.items, staged...)
		c.sh[g].out[shard] = staged[:0]
	}
}

func crossRun(k int, reference bool) (traces [][]uint64, snapshots []uint64, stats DrainStats) {
	const owners = 13
	e := NewEngine()
	e.SetEventParallelism(k)
	e.SetReferenceDrain(reference)
	// A lookahead far beyond the tick period: without crossing every window
	// truncates at the next tick; with it, at the tick after that.
	e.SetLookahead(func() float64 { return 10 })
	c := newCrossToy(e, owners)
	tk := e.NewTicker(0.7, 0.7, c.tick)
	e.SetCrossable(tk.Timer(), c.gate, c.begin)
	for i := 0; i < 80; i++ {
		id := SplitMix64(uint64(i)*69427 + 3)
		c.sh[int(id>>16)%owners%c.k].items = append(c.sh[int(id>>16)%owners%c.k].items, toyItem{
			at:    float64(i%31) * 0.83,
			owner: int32((id >> 16) % owners),
			id:    id,
		})
	}
	// Chunked horizons leave crossed-but-unfired ticks pending at run
	// boundaries (the harmless-arming case).
	for _, h := range []Time{5.3, 5.35, 17.9, 40} {
		e.RunUntil(h)
	}
	return c.trace, c.snapshots, e.DrainStats()
}

// TestTickCrossingDifferentialEngine pins the crossing machinery at the
// engine level: serial, windowed and reference runs of the lazy-tick toy
// must agree bit for bit on fired clock readings and post-tick clock
// snapshots, and the windowed runs must actually have crossed ticks.
func TestTickCrossingDifferentialEngine(t *testing.T) {
	serialTr, serialSnap, serialStats := crossRun(1, false)
	if serialStats.CrossedTicks != 0 {
		t.Fatalf("serial run crossed %d ticks; crossing must be a parallel-only path", serialStats.CrossedTicks)
	}
	check := func(mode string, tr [][]uint64, snap []uint64) {
		t.Helper()
		if len(serialSnap) != len(snap) {
			t.Fatalf("%s: %d snapshots, want %d", mode, len(snap), len(serialSnap))
		}
		for i := range serialSnap {
			if serialSnap[i] != snap[i] {
				t.Fatalf("%s: snapshot %d = %x, want %x", mode, i, snap[i], serialSnap[i])
			}
		}
		for o := range serialTr {
			if len(serialTr[o]) != len(tr[o]) {
				t.Fatalf("%s: owner %d trace length %d, want %d", mode, o, len(tr[o]), len(serialTr[o]))
			}
			for i := range serialTr[o] {
				if serialTr[o][i] != tr[o][i] {
					t.Fatalf("%s: owner %d entry %d = %x, want %x", mode, o, i, tr[o][i], serialTr[o][i])
				}
			}
		}
	}
	for _, k := range []int{2, 8} {
		tr, snap, stats := crossRun(k, false)
		check("windowed", tr, snap)
		if stats.CrossedTicks == 0 {
			t.Errorf("K=%d: no ticks crossed; gate or window layout broken", k)
		}
	}
	tr, snap, refStats := crossRun(8, true)
	check("reference", tr, snap)
	if refStats.CrossedTicks != 0 {
		t.Errorf("reference run crossed %d ticks; crossing must be disabled under SetReferenceDrain", refStats.CrossedTicks)
	}
}

// TestWindowRespectsGlobalFrontier pins the ordering contract directly: a
// global event at time g observes every source item with time < g as fired
// and none at ≥ g, for every shard count.
func TestWindowRespectsGlobalFrontier(t *testing.T) {
	for _, k := range []int{1, 4} {
		e := NewEngine()
		e.SetEventParallelism(k)
		e.SetLookahead(func() float64 { return 10 })
		src := newToySource(e, 4, 10)
		// Ids chosen so no chains spawn (SplitMix64(id)%3 == 0 is not
		// guaranteed, so give items far-future spawn room instead: the
		// lookahead of 10 pushes any successor past the horizon).
		src.inject(toyItem{at: 1, owner: 0, id: 1})
		src.inject(toyItem{at: 2, owner: 1, id: 2})
		src.inject(toyItem{at: 2, owner: 2, id: 3})
		src.inject(toyItem{at: 3, owner: 3, id: 4})
		var at2 int
		e.Schedule(2, func(Time) { at2 = src.fired() })
		e.RunUntil(5)
		// The item strictly before 2 must be in; the two at exactly 2 fire
		// after the global event; the one at 3 later still.
		if at2 != 1 {
			t.Errorf("K=%d: global event at t=2 saw %d fired items, want 1 (globals win ties)", k, at2)
		}
		if got := src.fired(); got != 4 {
			t.Errorf("K=%d: %d items fired by horizon, want 4", k, got)
		}
	}
}

// TestRunShards pins the window phase without events: fn runs once per
// event shard, every call sees InWindow(), the global queue is locked
// against it, and a nested call panics. Run under -race, the per-shard
// writes and the serial read after the barrier must be clean.
func TestRunShards(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		e := NewEngine()
		e.SetEventParallelism(k)
		calls := make([]shardCount, k)
		outside := make([]shardCount, k)
		e.RunShards(func(s int) {
			calls[s].n++
			if !e.InWindow() {
				outside[s].n++
			}
		})
		if e.InWindow() {
			t.Fatalf("K=%d: InWindow still true after RunShards", k)
		}
		for s := range calls {
			if calls[s].n != 1 || outside[s].n != 0 {
				t.Errorf("K=%d shard %d: %d calls, %d outside the window flag; want 1 and 0", k, s, calls[s].n, outside[s].n)
			}
		}
		// Shard 0 runs on the calling goroutine, so its panic reaches the
		// caller; each case gets a fresh engine, since a panic leaves the
		// window flag set.
		for name, fn := range map[string]func(e *Engine){
			"Schedule":  func(e *Engine) { e.Schedule(1, func(Time) {}) },
			"RunShards": func(e *Engine) { e.RunShards(func(int) {}) },
		} {
			e := NewEngine()
			e.SetEventParallelism(k)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("K=%d: %s inside RunShards did not panic", k, name)
					}
				}()
				e.RunShards(func(s int) {
					if s == 0 {
						fn(e)
					}
				})
			}()
		}
	}
}
