package topo

// Differential for the structure-of-arrays graph: randomized churn scripts
// of declares, appears, disappears and time advances run on Dynamic and, in
// lockstep, on shadowGraph — a map-of-pointers model with one heap object
// per edge and per-node adjacency maps, kept here as the executable
// specification of Dynamic's observable behaviour. The shadow forgets a
// link by the same rule, stated without a queue: once the link has been
// dead, both sides down and nothing pending, for strictly more than the
// largest Delay ever declared, checked at every declare, toggle and lagged
// transition. The links forgotten together free their slots in ascending
// order, and a declare takes the last slot freed, else the next new one,
// so directed indices agree. The shadow draws its detection lags from an
// identically seeded RNG in the same order, so lagged transitions land at
// the same times.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// shadowEdge is the state of one declared link of the shadow graph.
type shadowEdge struct {
	id     EdgeID
	slot   int32
	params LinkParams
	// up[i] is the visibility of the directed edge from endpoint i (0 = U,
	// 1 = V) to the other endpoint; upSince[i] is when it last became
	// visible; pending[i] is its outstanding lagged transition.
	up      [2]bool
	upSince [2]sim.Time
	pending [2]sim.Handle
	// dead reports that a down transition left the link dead, at deadAt,
	// and nothing revived it since.
	dead   bool
	deadAt sim.Time
}

func (e *shadowEdge) side(u int) int {
	if u == e.id.U {
		return 0
	}
	return 1
}

// shadowGraph is the map-backed model of Dynamic.
type shadowGraph struct {
	n          int
	engine     *sim.Engine
	rng        *sim.RNG
	edges      map[EdgeID]*shadowEdge
	adj        []map[int]*shadowEdge
	slots      int32   // slots ever made
	freeSlots  []int32 // slots of forgotten links, the last freed on top
	reused     int     // declares that took a freed slot
	minTransit float64
	maxDelay   float64
	// reclaimed is the time of the latest declare, toggle or lagged
	// transition, each of which forgets the links run out by then.
	reclaimed sim.Time
}

func newShadowGraph(n int, engine *sim.Engine, rng *sim.RNG) *shadowGraph {
	g := &shadowGraph{
		n: n, engine: engine, rng: rng,
		edges:      make(map[EdgeID]*shadowEdge),
		adj:        make([]map[int]*shadowEdge, n),
		minTransit: math.Inf(1),
	}
	for i := range g.adj {
		g.adj[i] = make(map[int]*shadowEdge)
	}
	return g
}

// expired reports whether e's quarantine has run out at now.
func (g *shadowGraph) expired(e *shadowEdge, now sim.Time) bool {
	return e.dead && now > e.deadAt+g.maxDelay
}

// forgetExpired forgets every link whose quarantine has run out, freeing
// their slots in ascending order.
func (g *shadowGraph) forgetExpired() {
	now := g.engine.Now()
	g.reclaimed = now
	var gone []*shadowEdge
	for _, e := range g.edges {
		if g.expired(e, now) {
			gone = append(gone, e)
		}
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i].slot < gone[j].slot })
	for _, e := range gone {
		delete(g.edges, e.id)
		delete(g.adj[e.id.U], e.id.V)
		delete(g.adj[e.id.V], e.id.U)
		g.freeSlots = append(g.freeSlots, e.slot)
	}
}

func (g *shadowGraph) declare(a, b int, p LinkParams) error {
	g.forgetExpired()
	if a == b || a < 0 || a >= g.n || b < 0 || b >= g.n {
		return fmt.Errorf("bad pair {%d,%d}", a, b)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	id := MakeEdgeID(a, b)
	e, ok := g.edges[id]
	if ok && (e.up[0] || e.up[1]) && e.params != p {
		return fmt.Errorf("re-declare of visible link {%d,%d}", a, b)
	}
	if mt := p.Delay - p.Uncertainty; mt < g.minTransit {
		g.minTransit = mt
	}
	g.maxDelay = max(g.maxDelay, p.Delay)
	if ok {
		e.params = p
		return nil
	}
	e = &shadowEdge{id: id, slot: g.slots, params: p}
	if k := len(g.freeSlots); k > 0 {
		e.slot = g.freeSlots[k-1]
		g.freeSlots = g.freeSlots[:k-1]
		g.reused++
	} else {
		g.slots++
	}
	g.edges[id] = e
	g.adj[id.U][id.V] = e
	g.adj[id.V][id.U] = e
	return nil
}

// toggle draws one detection lag per side, side 0 first, exactly as
// Dynamic does (no draw for instant toggles or τ ≤ 0), and then forgets
// the links whose quarantine has run out.
func (g *shadowGraph) toggle(a, b int, up, instant bool) error {
	defer g.forgetExpired()
	e, ok := g.edges[MakeEdgeID(a, b)]
	if !ok {
		return fmt.Errorf("undeclared link {%d,%d}", a, b)
	}
	for side := 0; side < 2; side++ {
		lag := 0.0
		if !instant && e.params.Tau > 0 {
			lag = g.rng.Uniform(0, e.params.Tau)
		}
		g.transition(e, side, up, lag)
	}
	return nil
}

// transition revives e while it runs: a pending transition or a side up
// is not dead. A down transition that leaves both sides down with nothing
// pending makes the link dead at that moment.
func (g *shadowGraph) transition(e *shadowEdge, side int, up bool, lag float64) {
	g.engine.Cancel(e.pending[side])
	e.pending[side] = 0
	e.dead = false
	apply := func(t sim.Time) {
		e.pending[side] = 0
		if e.up[side] != up {
			e.up[side] = up
			if up {
				e.upSince[side] = t
			}
		}
		if !up && !e.up[0] && !e.up[1] && e.pending[0] == 0 && e.pending[1] == 0 {
			e.dead, e.deadAt = true, t
		}
	}
	if lag <= 0 {
		apply(g.engine.Now())
		return
	}
	e.pending[side] = g.engine.After(lag, func(t sim.Time) {
		g.forgetExpired()
		apply(t)
	})
}

func (g *shadowGraph) sees(u, v int) bool {
	e, ok := g.adj[u][v]
	return ok && e.up[e.side(u)]
}

func (g *shadowGraph) bothUp(u, v int) bool {
	e, ok := g.adj[u][v]
	return ok && e.up[0] && e.up[1]
}

func (g *shadowGraph) ageBoth(u, v int, now sim.Time) (float64, bool) {
	e, ok := g.adj[u][v]
	if !ok || !e.up[0] || !e.up[1] {
		return 0, false
	}
	return now - math.Max(e.upSince[0], e.upSince[1]), true
}

func (g *shadowGraph) params(u, v int) (LinkParams, bool) {
	e, ok := g.adj[u][v]
	if !ok {
		return LinkParams{}, false
	}
	return e.params, true
}

func (g *shadowGraph) dir(u, v int) (int32, bool) {
	e, ok := g.adj[u][v]
	if !ok {
		return 0, false
	}
	return 2*e.slot + int32(e.side(u)), true
}

func (g *shadowGraph) neighbors(u int) []int {
	var out []int
	for v, e := range g.adj[u] {
		if e.up[e.side(u)] {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// edgesWhere returns the declared edges keep accepts, sorted.
func (g *shadowGraph) edgesWhere(keep func(*shadowEdge) bool) []EdgeID {
	var out []EdgeID
	for id, e := range g.edges {
		if keep(e) {
			out = append(out, id)
		}
	}
	sortEdges(out)
	return out
}

// layoutPair drives Dynamic and the shadow in lockstep on two engines: same
// node count, same scripted operations, and the same lag draws in the same
// order. peak is the most transition cells Dynamic has held pending at
// once, sampled after every operation.
type layoutPair struct {
	soaEng, refEng *sim.Engine
	soa            *Dynamic
	ref            *shadowGraph
	peak           int
}

func newLayoutPair(n int, seed int64) *layoutPair {
	p := &layoutPair{soaEng: sim.NewEngine(), refEng: sim.NewEngine()}
	p.soa = NewDynamic(n, p.soaEng, sim.NewRNG(seed))
	p.ref = newShadowGraph(n, p.refEng, sim.NewRNG(seed))
	return p
}

// equalEdges fails unless got and want list the same edges.
func equalEdges(t *testing.T, ctx, what string, got, want []EdgeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s %d edges, shadow %d", ctx, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %s edge %d: %v vs shadow %v", ctx, what, i, got[i], want[i])
		}
	}
}

// check asserts full observable equality of the graph and the shadow at the
// current time: declared and both-up edges, and per-pair
// Sees/BothUp/age/Params/Declared/Dir/Neighbors for every declared pair and
// endpoint. The rows must hold the present graph as of the latest declare,
// toggle or lagged transition: exactly the links that have a side up, a
// transition pending or a quarantine not yet run out, and those that have
// not gone dead since their declare.
func (p *layoutPair) check(t *testing.T, ctx string) {
	t.Helper()
	now := p.soaEng.Now()
	if rn := p.refEng.Now(); rn != now {
		t.Fatalf("%s: engines diverged: soa t=%v shadow t=%v", ctx, now, rn)
	}
	sd := p.soa.DeclaredEdges(nil)
	present := func(e *shadowEdge) bool {
		live := e.up[0] || e.up[1] || e.pending[0] != 0 || e.pending[1] != 0
		return live || !e.dead || !p.ref.expired(e, p.ref.reclaimed)
	}
	equalEdges(t, ctx, "declared", sd, p.ref.edgesWhere(present))
	equalEdges(t, ctx, "both-up", p.soa.EdgesBothUp(nil), p.ref.edgesWhere(func(e *shadowEdge) bool { return e.up[0] && e.up[1] }))
	if m := p.soa.MinTransit(); m != p.ref.minTransit {
		t.Fatalf("%s: MinTransit %v vs shadow %v", ctx, m, p.ref.minTransit)
	}
	for _, id := range sd {
		for _, pair := range [][2]int{{id.U, id.V}, {id.V, id.U}} {
			u, v := pair[0], pair[1]
			if got, want := p.soa.Sees(u, v), p.ref.sees(u, v); got != want {
				t.Fatalf("%s: Sees(%d,%d) = %v, shadow %v", ctx, u, v, got, want)
			}
			if got, want := p.soa.BothUp(u, v), p.ref.bothUp(u, v); got != want {
				t.Fatalf("%s: BothUp(%d,%d) = %v, shadow %v", ctx, u, v, got, want)
			}
			ga, gaok := ageBoth(p.soa, u, v, now)
			wa, waok := p.ref.ageBoth(u, v, now)
			if ga != wa || gaok != waok {
				t.Fatalf("%s: ageBoth(%d,%d) = (%v,%v), shadow (%v,%v)", ctx, u, v, ga, gaok, wa, waok)
			}
			gp, gpok := p.soa.Params(u, v)
			wp, wpok := p.ref.params(u, v)
			if gp != wp || gpok != wpok {
				t.Fatalf("%s: Params(%d,%d) = (%v,%v), shadow (%v,%v)", ctx, u, v, gp, gpok, wp, wpok)
			}
			if got, want := p.soa.Declared(u, v), !p.ref.expired(p.ref.adj[u][v], now); got != want {
				t.Fatalf("%s: Declared(%d,%d) = %v, shadow %v", ctx, u, v, got, want)
			}
			// Both number slots alike, so directed indices agree, and the
			// index-keyed reads agree with the pair-keyed ones.
			gd, gdok := p.soa.Dir(u, v)
			wd, wdok := p.ref.dir(u, v)
			if gd != wd || gdok != wdok || !gdok {
				t.Fatalf("%s: Dir(%d,%d) = (%v,%v), shadow (%v,%v)", ctx, u, v, gd, gdok, wd, wdok)
			}
			if (gd&1 == 1) != (u > v) {
				t.Fatalf("%s: Dir(%d,%d) = %d has the wrong side", ctx, u, v, gd)
			}
			if p.soa.SeesAt(gd) != p.soa.Sees(u, v) || p.soa.ParamsAt(gd) != gp {
				t.Fatalf("%s: SeesAt/ParamsAt(%d) disagree with Sees/Params(%d,%d)", ctx, gd, u, v)
			}
		}
	}
	if got, want := p.soa.DirCap(), 2*int(p.ref.slots); got != want || got != 2*(len(sd)+len(p.soa.freeSlots)) {
		t.Fatalf("%s: DirCap %d, shadow %d, with %d links and %d free slots", ctx, got, want, len(sd), len(p.soa.freeSlots))
	}
	entries := 0
	var sn []int
	for u := 0; u < p.soa.N(); u++ {
		peers, dirs := p.soa.Row(u)
		entries += len(peers)
		for i, v := range peers {
			if d, ok := p.ref.dir(u, int(v)); !ok || d != dirs[i] {
				t.Fatalf("%s: Row(%d) holds (%d, %d), shadow Dir (%d, %v)", ctx, u, v, dirs[i], d, ok)
			}
		}
		sn = p.soa.Neighbors(u, sn[:0])
		rn := p.ref.neighbors(u)
		if len(sn) != len(rn) {
			t.Fatalf("%s: Neighbors(%d) = %v, shadow %v", ctx, u, sn, rn)
		}
		for i := range sn {
			if sn[i] != rn[i] {
				t.Fatalf("%s: Neighbors(%d) = %v, shadow %v", ctx, u, sn, rn)
			}
		}
	}
	if entries != 2*len(sd) {
		t.Fatalf("%s: rows hold %d entries for %d declared links", ctx, entries, len(sd))
	}
	p.checkCells(t, ctx)
}

// checkCells asserts that a directed index holds a transition cell exactly
// while the shadow has a lagged transition pending for it, and that the
// pool has made no more cells than were ever pending at once. Transitions
// only become pending in a toggle, which check follows, so sampling the
// peak here sees it.
func (p *layoutPair) checkCells(t *testing.T, ctx string) {
	t.Helper()
	held := 0
	for _, e := range p.ref.edges {
		for side := 0; side < 2; side++ {
			dir := 2*e.slot + int32(side)
			c := p.soa.pending[dir]
			if (c != nil) != (e.pending[side] != 0) {
				t.Fatalf("%s: dir %d of %v holds cell %v, shadow pending %v", ctx, dir, e.id, c != nil, e.pending[side] != 0)
			}
			if c != nil {
				if c.dir != dir {
					t.Fatalf("%s: cell filed under dir %d names dir %d", ctx, dir, c.dir)
				}
				held++
			}
		}
	}
	if held != len(p.soa.pending) {
		t.Fatalf("%s: %d cells pending, %d of them for declared links", ctx, len(p.soa.pending), held)
	}
	p.peak = max(p.peak, held)
	if made := held + len(p.soa.free); made > p.peak {
		t.Fatalf("%s: pool made %d cells, but at most %d were pending at once", ctx, made, p.peak)
	}
}

// runLayoutScript executes one churn script step-by-step, checking equality
// after every operation and after every engine advance, and returns how
// many declares took a freed slot. Byte values map to operations over a
// small node universe, so the fuzz target can share it.
// A hub script runs on a star-shaped universe: three pairs in four join
// node 0 to one of 32 leaves, the hub first or last, so node 0's row grows
// long and slot lookups run on it from the hub's end and from the leaves'.
func runLayoutScript(t *testing.T, script []byte, hub bool) int {
	t.Helper()
	n := 9
	pair := func(x, y byte) (int, int) { return int(x) % n, int(y) % n }
	if hub {
		n = 33
		pair = func(x, y byte) (int, int) {
			a, b := 0, 1+int(y)%(n-1)
			if x >= 192 { // a leaf pair
				a = 1 + int(x)%(n-1)
			}
			if x&1 == 1 {
				a, b = b, a
			}
			return a, b
		}
	}
	p := newLayoutPair(n, 42)
	params := []LinkParams{
		DefaultLinkParams(),
		{Eps: 0.1, Tau: 0, Delay: 0.2, Uncertainty: 0.1},   // τ=0: inline transitions
		{Eps: 0.3, Tau: 0.25, Delay: 0.15, Uncertainty: 0}, // long τ: overlapping flaps
	}
	agree := func(i int, op string, a, b int, e1, e2 error) {
		t.Helper()
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("op %d: %s(%d,%d) err %v vs shadow %v", i, op, a, b, e1, e2)
		}
	}
	for i := 0; i+2 < len(script); i += 3 {
		a, b := pair(script[i], script[i+1])
		if a == b {
			continue
		}
		op := script[i+2] % 5
		ctx := ""
		switch op {
		case 0, 1:
			lp := params[int(script[i+2]/5)%len(params)]
			agree(i, "DeclareLink", a, b, p.soa.DeclareLink(a, b, lp), p.ref.declare(a, b, lp))
			ctx = "declare"
		case 2:
			agree(i, "Appear", a, b, p.soa.Appear(a, b), p.ref.toggle(a, b, true, false))
			ctx = "appear"
		case 3:
			agree(i, "Disappear", a, b, p.soa.Disappear(a, b), p.ref.toggle(a, b, false, false))
			ctx = "disappear"
		case 4:
			dt := 0.01 + float64(script[i+2]>>3)/256.0
			p.soaEng.RunUntil(p.soaEng.Now() + dt)
			p.refEng.RunUntil(p.refEng.Now() + dt)
			ctx = "advance"
		}
		p.check(t, ctx)
	}
	// Drain all pending detections and compare the settled state. Every
	// cell is back in the pool.
	p.soaEng.RunUntil(p.soaEng.Now() + 1)
	p.refEng.RunUntil(p.refEng.Now() + 1)
	p.check(t, "drain")
	if k := len(p.soa.pending); k != 0 {
		t.Fatalf("%d transition cells still pending after the drain", k)
	}
	return p.ref.reused
}

// TestLayoutDifferentialChurn runs random declare/appear/disappear scripts
// (with interleaved time advances, so lagged detections land and dead
// links are forgotten) on Dynamic and the map-backed shadow, asserting
// observable equality after every step. Enough operations that CSR row
// relocation triggers and every script reuses freed slots. The hub scripts
// grow one long row.
func TestLayoutDifferentialChurn(t *testing.T) {
	for _, hub := range []bool{false, true} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([]byte, 3*400)
			rng.Read(script)
			if reused := runLayoutScript(t, script, hub); reused == 0 {
				t.Errorf("hub %v seed %d: no declare reused a freed slot", hub, seed)
			}
		}
	}
}

// FuzzTopoChurn lets the fuzzer hunt for operation interleavings where
// Dynamic and the map-backed shadow disagree, on either node universe. The
// reuseSeed script flaps {0,1}, waits out its quarantine and declares
// {2,3}, which must take {0,1}'s slot.
func FuzzTopoChurn(f *testing.F) {
	reuseSeed := []byte{0, 1, 0, 0, 1, 2, 0, 1, 254, 0, 1, 3, 0, 1, 254, 0, 1, 254, 2, 3, 0, 2, 3, 2, 2, 3, 254}
	f.Add(false, reuseSeed)
	f.Add(false, []byte{0, 1, 0, 0, 1, 2, 0, 1, 4, 0, 1, 3, 0, 1, 4})
	f.Add(false, []byte{3, 4, 5, 3, 4, 2, 3, 4, 2, 3, 4, 3, 3, 4, 4})
	// The hub declares and flaps links to leaves 3, 4 and 5, naming itself
	// first and last; then a leaf pair.
	f.Add(true, []byte{0, 2, 0, 1, 3, 0, 0, 4, 0, 0, 2, 2, 1, 3, 2, 0, 4, 2, 0, 2, 4,
		1, 2, 3, 0, 3, 3, 200, 2, 0, 200, 2, 2, 0, 2, 4})
	f.Fuzz(func(t *testing.T, hub bool, script []byte) {
		if len(script) > 3*600 {
			script = script[:3*600]
		}
		if reused := runLayoutScript(t, script, hub); !hub && bytes.Equal(script, reuseSeed) && reused == 0 {
			t.Fatal("the reuse seed reused no slot")
		}
	})
}

// upHook is a Listener that calls fn at every up transition.
type upHook func()

func (h upHook) EdgeUp(int, int, sim.Time) { h() }
func (upHook) EdgeDown(int, int, sim.Time) {}

// TestRedeclareVisibleLink pins DeclareLink's contract: re-declaring a link
// either endpoint sees is an error when the parameters change (and leaves
// the old ones in force), a no-op when they do not, and an update once both
// endpoints have lost the link.
func TestRedeclareVisibleLink(t *testing.T) {
	narrow := DefaultLinkParams()
	wide := narrow
	wide.Eps = 0.8
	engine := sim.NewEngine()
	d := NewDynamic(3, engine, sim.NewRNG(1))
	if err := d.DeclareLink(0, 1, narrow); err != nil {
		t.Fatal(err)
	}
	// At the first detection exactly one endpoint sees the link.
	ups := 0
	d.SetListener(upHook(func() {
		if ups++; ups > 1 {
			return
		}
		if d.Sees(0, 1) == d.Sees(1, 0) {
			t.Error("want exactly one endpoint to see the link")
		}
		if err := d.DeclareLink(1, 0, wide); err == nil {
			t.Error("re-declare with new parameters while visible to one endpoint succeeded")
		}
	}))
	if err := d.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(engine.Now() + 1)
	if ups != 2 {
		t.Fatalf("%d detections, want 2", ups)
	}
	if err := d.DeclareLink(0, 1, wide); err == nil {
		t.Fatal("re-declare with new parameters while visible succeeded")
	}
	if p, _ := d.Params(0, 1); p != narrow {
		t.Fatalf("rejected re-declare changed the parameters to %+v", p)
	}
	if err := d.DeclareLink(0, 1, narrow); err != nil {
		t.Fatalf("re-declare with unchanged parameters while visible: %v", err)
	}
	if err := d.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(engine.Now() + 1)
	if err := d.DeclareLink(0, 1, wide); err != nil {
		t.Fatalf("re-declare while down: %v", err)
	}
	if p, _ := d.Params(1, 0); p != wide {
		t.Fatalf("re-declare while down left parameters %+v", p)
	}
}
