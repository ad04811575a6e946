package sim

// Differential test for the sharded event drain at the engine level: a toy
// Source with self-propagating, cross-shard-spawning items is drained at
// K = 1 (serial, the reference) and at K = 2 and K = 8 (windowed),
// interleaved with global events that snapshot progress and inject new
// items. Every mode must agree bit for bit on the per-owner
// fire traces, the global snapshots, the event count and the final clock.
// Each windowed run goes through both window executors (see executors);
// under `make race` the pooled K = 8 runs are the detector's workout for
// the drain/flush barrier discipline.

import (
	"fmt"
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

// executors are the two settings of the engine's window-executor size rule
// the differentials run windowed drains under: 0 fans every window out over
// the pool, so the shards drain concurrently; +Inf runs every window after
// time 0 on the calling goroutine, shard after shard.
var executors = []struct {
	name        string
	inlineItems float64
}{
	{"pooled", 0},
	{"inline", math.Inf(1)},
}

// toyRun drains one full configuration and returns its observables.
type toyOutcome struct {
	traces    [][]uint64
	snapshots []int // fired count at each global ticker event
	stepped   uint64
	now       Time
	stats     DrainStats
}

func toyRun(k int, inlineItems float64) toyOutcome {
	const (
		owners    = 13
		lookahead = 0.05
		horizon   = 40.0
	)
	e := NewEngine()
	e.inlineItems = inlineItems
	e.SetEventParallelism(k)
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
	out.stats = e.DrainStats()
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

// checkExecutor fails unless a windowed run went through the executor it
// was set to: no inline window when pooled, and some when inline (the
// windows at time 0 fan out under either setting).
func checkExecutor(t *testing.T, mode string, inlineItems float64, st DrainStats) {
	t.Helper()
	if st.Windows == 0 {
		t.Fatalf("%s: no windows opened; harness broken", mode)
	}
	if inlineItems == 0 && st.InlineWindows != 0 {
		t.Errorf("%s: %d of %d windows ran inline, want none", mode, st.InlineWindows, st.Windows)
	}
	if inlineItems != 0 && st.InlineWindows == 0 {
		t.Errorf("%s: no window ran inline", mode)
	}
}

// TestWindowedDrainDifferential is the engine-level analogue of the
// queue_test reference model, for the sharded drain: serial and windowed
// runs of the same item population must be bit-identical, under either
// window executor.
func TestWindowedDrainDifferential(t *testing.T) {
	serial := toyRun(1, 0)
	if len(serial.snapshots) == 0 || serial.stepped == 0 {
		t.Fatal("toy run executed nothing; test harness broken")
	}
	for _, k := range []int{2, 8} {
		for _, ex := range executors {
			mode := fmt.Sprintf("K=%d %s", k, ex.name)
			got := toyRun(k, ex.inlineItems)
			serial.diff(t, got, mode)
			checkExecutor(t, mode, ex.inlineItems, got.stats)
		}
	}
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
func toyCtlRun(k int, inlineItems float64) (toyOutcome, [][]uint64) {
	const (
		owners    = 11
		lookahead = 0.05
		horizon   = 35.0
	)
	e := NewEngine()
	e.inlineItems = inlineItems
	e.SetEventParallelism(k)
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
	out.stats = e.DrainStats()
	return out, ctl.trace
}

// diffCtl fails unless two runs fired the same control ids per owner, in
// the same order.
func diffCtl(t *testing.T, mode string, a, b [][]uint64) {
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

// TestSerialSourceDifferential pins the serial-source discipline: with a
// control queue riding alongside the windowed source, serial and windowed
// runs must agree bit for bit — on the windowed traces, the global
// snapshots AND the per-owner control traces — and the windowed run must
// actually have exercised the serial path and the control clamp.
func TestSerialSourceDifferential(t *testing.T) {
	serial, serialCtl := toyCtlRun(1, 0)
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
		for _, ex := range executors {
			mode := fmt.Sprintf("K=%d %s", k, ex.name)
			got, gotCtl := toyCtlRun(k, ex.inlineItems)
			serial.diff(t, got, mode)
			diffCtl(t, mode, serialCtl, gotCtl)
			checkExecutor(t, mode, ex.inlineItems, got.stats)
			if got.stats.SerialSteps == 0 {
				t.Errorf("%s: no serial steps recorded; controls did not take the serial path", mode)
			}
			if got.stats.TruncControl == 0 {
				t.Errorf("%s: no window was clamped by a pending control", mode)
			}
		}
	}
}

// randomToyRun drains a population drawn from seed — shard count, owners,
// the lookahead, item times, control injections, the ticker period and the
// run's horizon chunks — with the executor size rule set to inlineItems.
// Items start after time 0, so under +Inf every window runs inline.
func randomToyRun(seed int64, inlineItems float64) (toyOutcome, [][]uint64) {
	rng := NewRNG(seed)
	k := 2 + rng.Intn(7)
	owners := k + rng.Intn(24)
	// Spawns land at least spawn after their fire, and the lookahead is at
	// most spawn, so the Source contract holds.
	spawn := rng.Uniform(0.02, 0.3)
	la := spawn * rng.Uniform(0.2, 1)
	e := NewEngine()
	e.inlineItems = inlineItems
	e.SetEventParallelism(k)
	e.SetLookahead(func() float64 { return la })
	src := newToySource(e, owners, spawn)
	ctl := newToyCtlSource(e, src)
	for i, n := 0, 10+rng.Intn(90); i < n; i++ {
		src.inject(toyItem{at: rng.Uniform(0.001, 8), owner: int32(rng.Intn(owners)), id: rng.Uint64()})
	}
	var out toyOutcome
	period := rng.Uniform(0.1, 1.5)
	// Ticks fire in the same order under both executors, so the draws
	// below do too.
	e.NewTicker(period, period, func(t Time, _ float64) {
		out.snapshots = append(out.snapshots, src.fired())
		if rng.Intn(3) == 0 {
			ctl.inject(toyItem{at: t + rng.Uniform(0, 2*spawn), owner: int32(rng.Intn(owners)), id: rng.Uint64()})
		}
	})
	h := 0.0
	for i := 0; i < 4; i++ {
		h += rng.Uniform(0.01, 6)
		e.RunUntil(h)
	}
	out.traces = src.trace
	out.stepped = e.Stepped
	out.now = e.Now()
	out.stats = e.DrainStats()
	return out, ctl.trace
}

// TestWindowExecutorDifferential runs random populations once with every
// window fanned out over the pool and once with every window on the calling
// goroutine. The two runs must agree on every owner's fire order, the
// control traces, the global snapshots, the event count, the final clock
// and every DrainStats counter but InlineWindows.
func TestWindowExecutorDifferential(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		mode := fmt.Sprintf("seed %d", seed)
		pooled, pooledCtl := randomToyRun(seed, 0)
		inline, inlineCtl := randomToyRun(seed, math.Inf(1))
		pooled.diff(t, inline, mode)
		diffCtl(t, mode, pooledCtl, inlineCtl)
		ps, is := pooled.stats, inline.stats
		if ps.Windows == 0 {
			t.Fatalf("%s: no windows opened; harness broken", mode)
		}
		if ps.InlineWindows != 0 || is.InlineWindows != is.Windows {
			t.Errorf("%s: %d of %d pooled windows and %d of %d inline windows ran inline, want none and all",
				mode, ps.InlineWindows, ps.Windows, is.InlineWindows, is.Windows)
		}
		is.InlineWindows = 0
		if ps != is {
			t.Errorf("%s: DrainStats differ:\npooled %+v\ninline %+v", mode, ps, is)
		}
	}
}

// crossToy is the engine-level model of the runner's crossed tick: each
// owner has a clock integrated at a per-owner constant rate on a global
// ticker, items read their owner's clock when they fire, and the harness
// implements the tick-crossing contract — a crossed tick is applied one
// event shard at a time by step, to every owner o ≡ shard (mod K). The
// fired (id, clock-bits) traces must match the serial run exactly, which
// fails if a shard step is missed, doubled, comes after one of the shard's
// items at or past the tick, or uses the wrong dt.
type crossToy struct {
	engine    *Engine
	k, owners int
	sh        []crossShard
	clock     []float64
	trace     [][]uint64 // per owner: id, Float64bits(clock) pairs

	lastTick  Time
	armed     bool // begin ran and the crossed tick has not fired yet
	crossT    Time
	crossDt   float64
	stepped   []uint8  // per owner: applications of the armed tick
	snapshots []uint64 // per tick or probe, per owner: Float64bits(clock)
	tally     crossTally
}

// crossShard is one crossToy shard: its queue and outbox, and its record of
// the crossed tick's steps. pending marks a step that no item of the shard
// has followed yet; the engine's drain fires an item right after each step
// it makes, so a step still pending when the tick fires was made there.
type crossShard struct {
	toyShard
	pending          bool
	inDrain, outside int
}

// crossTally sums a crossRun's shard steps: where they ran, how many ran
// outside InWindow(), and how many owners a completed crossed tick stepped
// other than once.
type crossTally struct {
	ticks, inDrain, atFire, outside, wrongCount int
}

func newCrossToy(e *Engine, owners int) *crossToy {
	k := e.EventShards()
	c := &crossToy{
		engine: e, k: k, owners: owners,
		clock:   make([]float64, owners),
		trace:   make([][]uint64, owners),
		stepped: make([]uint8, owners),
		sh:      make([]crossShard, k),
	}
	for i := range c.sh {
		c.sh[i].out = make([][]toyItem, k)
	}
	e.AddSource(c)
	return c
}

func (c *crossToy) rate(o int) float64 { return 1 + 0.01*float64(o%7) }

func (c *crossToy) begin(tickAt Time) {
	c.armed = true
	c.crossT = tickAt
	c.crossDt = tickAt - c.lastTick
}

// step applies the armed tick to every owner of shard s.
func (c *crossToy) step(s int) {
	sh := &c.sh[s]
	if !c.engine.InWindow() {
		sh.outside++
	}
	for o := s; o < c.owners; o += c.k {
		c.stepped[o]++
		c.clock[o] += c.rate(o) * c.crossDt
	}
	sh.pending = true
}

func (c *crossToy) tick(t Time, _ float64) {
	if c.armed {
		// Every shard no window reached was stepped just before this fire.
		c.armed = false
		c.tally.ticks++
		if t != c.crossT {
			c.tally.wrongCount += c.owners
		}
		for s := range c.sh {
			if c.sh[s].pending {
				c.sh[s].pending = false
				c.tally.atFire++
			}
		}
		for o, n := range c.stepped {
			if n != 1 {
				c.tally.wrongCount++
			}
			c.stepped[o] = 0
		}
	} else {
		dt := t - c.lastTick
		for o := 0; o < c.owners; o++ {
			c.clock[o] += c.rate(o) * dt
		}
	}
	c.lastTick = t
	c.snapshot()
}

func (c *crossToy) snapshot() {
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
	if sh.pending {
		sh.pending = false
		sh.inDrain++
	}
	i := c.minIdx(shard)
	it := sh.items[i]
	sh.items[i] = sh.items[len(sh.items)-1]
	sh.items = sh.items[:len(sh.items)-1]
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

func crossRun(k int, inlineItems float64) (traces [][]uint64, snapshots []uint64, stats DrainStats, tally crossTally) {
	const owners = 13
	e := NewEngine()
	e.inlineItems = inlineItems
	e.SetEventParallelism(k)
	// A lookahead far beyond the tick period: without crossing every window
	// truncates at the next tick; with it, at the tick after that.
	e.SetLookahead(func() float64 { return 10 })
	c := newCrossToy(e, owners)
	tk := e.NewTicker(0.7, 0.7, c.tick)
	e.SetCrossable(tk, c.begin, c.step)
	for i := 0; i < 80; i++ {
		id := SplitMix64(uint64(i)*69427 + 3)
		c.sh[int(id>>16)%owners%c.k].items = append(c.sh[int(id>>16)%owners%c.k].items, toyItem{
			at:    float64(i%31) * 0.83,
			owner: int32((id >> 16) % owners),
			id:    id,
		})
	}
	// Items at exactly a tick's time, accumulated as the ticker accumulates
	// it: the serial drain fires the tick first, so a crossed tick must be
	// stepped before them.
	at := 0.0
	for i := 1; i <= 40; i++ {
		at += 0.7
		if i%3 == 0 {
			o := (i * 5) % owners
			c.sh[o%c.k].items = append(c.sh[o%c.k].items, toyItem{at: at, owner: int32(o), id: SplitMix64(uint64(i) * 7919)})
		}
	}
	// Chunked horizons leave crossed-but-unfired ticks armed at run
	// boundaries. A probe scheduled just after each boundary, before the
	// armed tick, then fires first and snapshots every clock: no shard may
	// have been stepped for a tick that has not fired, so it must read the
	// serial run's clocks.
	for _, h := range []Time{5.3, 5.35, 17.9, 40} {
		e.RunUntil(h)
		e.Schedule(h+0.02, func(Time) { c.snapshot() })
	}
	for s := range c.sh {
		c.tally.inDrain += c.sh[s].inDrain
		c.tally.outside += c.sh[s].outside
	}
	return c.trace, c.snapshots, e.DrainStats(), c.tally
}

// TestTickCrossingDifferentialEngine pins the crossing machinery at the
// engine level: serial and windowed runs of the crossed-tick toy must agree
// bit for bit on fired clock readings and on the clock snapshots at every
// tick and probe, and the windowed runs must actually have crossed ticks.
// Every shard step must run under InWindow(), every completed crossed tick
// must step each owner exactly once, and under both window executors some
// shards must be stepped inside a drain and some at the tick's fire.
func TestTickCrossingDifferentialEngine(t *testing.T) {
	serialTr, serialSnap, serialStats, serialTally := crossRun(1, 0)
	if serialStats.CrossedTicks != 0 || serialTally.ticks != 0 {
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
		for _, ex := range executors {
			mode := fmt.Sprintf("K=%d %s", k, ex.name)
			tr, snap, stats, tally := crossRun(k, ex.inlineItems)
			check(mode, tr, snap)
			checkExecutor(t, mode, ex.inlineItems, stats)
			if stats.CrossedTicks == 0 || tally.ticks == 0 {
				t.Errorf("%s: no ticks crossed; window layout broken", mode)
			}
			if tally.wrongCount != 0 || tally.outside != 0 {
				t.Errorf("%s: %d owner-ticks not stepped exactly once, %d shard steps outside InWindow()",
					mode, tally.wrongCount, tally.outside)
			}
			if tally.inDrain+tally.atFire != tally.ticks*k {
				t.Errorf("%s: %d shard steps in drains and %d at fires over %d crossed ticks, want %d in all",
					mode, tally.inDrain, tally.atFire, tally.ticks, tally.ticks*k)
			}
			if tally.inDrain == 0 || tally.atFire == 0 {
				t.Errorf("%s: %d shard steps in drains and %d at fires; want both paths", mode, tally.inDrain, tally.atFire)
			}
		}
	}
}

// TestWindowRespectsGlobalFrontier pins the ordering contract directly: a
// global event at time g observes every source item with time < g as fired
// and none at ≥ g, for every shard count and window executor.
func TestWindowRespectsGlobalFrontier(t *testing.T) {
	for _, k := range []int{1, 4} {
		for _, ex := range executors {
			e := NewEngine()
			e.inlineItems = ex.inlineItems
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
				t.Errorf("K=%d %s: global event at t=2 saw %d fired items, want 1 (globals win ties)", k, ex.name, at2)
			}
			if got := src.fired(); got != 4 {
				t.Errorf("K=%d %s: %d items fired by horizon, want 4", k, ex.name, got)
			}
		}
	}
}

// oneShotSource holds a single item, at time at on shard 0, whose fire
// calls fn.
type oneShotSource struct {
	at Time
	fn func()
}

func (s *oneShotSource) Peek(shard int) Time {
	if shard != 0 {
		return math.Inf(1)
	}
	return s.at
}

func (s *oneShotSource) FireNext(int, Time) {
	s.at = math.Inf(1)
	s.fn()
}

func (s *oneShotSource) Flush(int) {}

// TestRunUntilInfStopsWhenIdle pins RunUntil's stop test on an engine with
// a source: a run to +Inf fires what is pending, a source item and a global
// event, and returns once nothing is, at one shard and in windows.
func TestRunUntilInfStopsWhenIdle(t *testing.T) {
	for _, k := range []int{1, 2} {
		e := NewEngine()
		e.SetEventParallelism(k)
		e.SetLookahead(func() float64 { return 1 })
		fired := 0
		e.Schedule(3, func(Time) { fired++ })
		e.AddSource(&oneShotSource{at: 1, fn: func() { fired++ }})
		e.RunUntil(math.Inf(1))
		if fired != 2 {
			t.Errorf("K=%d: %d events fired, want 2", k, fired)
		}
	}
}

// TestWindowLocksGlobalQueue pins the window guards under both executors:
// an item fired inside a window sees InWindow(), and scheduling or
// cancelling a global event from it panics. The item sits on shard 0,
// which runs on the calling goroutine under either executor, so the panic
// reaches the test.
func TestWindowLocksGlobalQueue(t *testing.T) {
	for _, ex := range executors {
		for name, op := range map[string]func(e *Engine, h Handle){
			"Schedule": func(e *Engine, _ Handle) { e.Schedule(5, func(Time) {}) },
			"Cancel":   func(e *Engine, h Handle) { e.Cancel(h) },
		} {
			e := NewEngine()
			e.inlineItems = ex.inlineItems
			e.SetEventParallelism(2)
			e.SetLookahead(func() float64 { return 1 })
			h := e.Schedule(10, func(Time) {})
			inWindow := false
			e.AddSource(&oneShotSource{at: 1, fn: func() {
				inWindow = e.InWindow()
				op(e, h)
			}})
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s inside a window did not panic", ex.name, name)
					}
				}()
				e.RunUntil(2)
			}()
			if !inWindow {
				t.Errorf("%s: the window's item did not see InWindow()", ex.name)
			}
		}
	}
}
