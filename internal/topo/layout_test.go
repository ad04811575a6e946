package topo

// Differential for the structure-of-arrays graph: randomized churn scripts
// of declares, appears, disappears and time advances run on Dynamic and, in
// lockstep, on shadowGraph — a map-of-pointers model with one heap object
// per edge and per-node adjacency maps, kept here as the executable
// specification of Dynamic's observable behaviour. The shadow numbers its
// slots in declare order, so directed indices agree, and draws its
// detection lags from an identically seeded RNG in the same order, so
// lagged transitions land at the same times.

import (
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
	slots      int32 // links declared so far
	minTransit float64
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

func (g *shadowGraph) declare(a, b int, p LinkParams) error {
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
	if ok {
		e.params = p
		return nil
	}
	e = &shadowEdge{id: id, slot: g.slots, params: p}
	g.slots++
	g.edges[id] = e
	g.adj[id.U][id.V] = e
	g.adj[id.V][id.U] = e
	return nil
}

// toggle draws one detection lag per side, side 0 first, exactly as
// Dynamic does (no draw for instant toggles or τ ≤ 0).
func (g *shadowGraph) toggle(a, b int, up, instant bool) error {
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

func (g *shadowGraph) transition(e *shadowEdge, side int, up bool, lag float64) {
	g.engine.Cancel(e.pending[side])
	e.pending[side] = 0
	apply := func(t sim.Time) {
		e.pending[side] = 0
		if e.up[side] == up {
			return
		}
		e.up[side] = up
		if up {
			e.upSince[side] = t
		}
	}
	if lag <= 0 {
		apply(g.engine.Now())
		return
	}
	e.pending[side] = g.engine.After(lag, apply)
}

func (g *shadowGraph) sees(u, v int) bool {
	e, ok := g.adj[u][v]
	return ok && e.up[e.side(u)]
}

func (g *shadowGraph) bothUp(u, v int) bool {
	e, ok := g.adj[u][v]
	return ok && e.up[0] && e.up[1]
}

func (g *shadowGraph) upSince(u, v int) (sim.Time, bool) {
	e, ok := g.adj[u][v]
	if !ok || !e.up[e.side(u)] {
		return 0, false
	}
	return e.upSince[e.side(u)], true
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
// order.
type layoutPair struct {
	soaEng, refEng *sim.Engine
	soa            *Dynamic
	ref            *shadowGraph
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
// current time: declared, both-up and stable edges, and per-pair
// Sees/BothUp/UpSince/AgeBoth/Params/Dir/Neighbors for every declared pair
// and endpoint.
func (p *layoutPair) check(t *testing.T, ctx string) {
	t.Helper()
	now := p.soaEng.Now()
	if rn := p.refEng.Now(); rn != now {
		t.Fatalf("%s: engines diverged: soa t=%v shadow t=%v", ctx, now, rn)
	}
	sd := p.soa.DeclaredEdges(nil)
	equalEdges(t, ctx, "declared", sd, p.ref.edgesWhere(func(*shadowEdge) bool { return true }))
	equalEdges(t, ctx, "both-up", p.soa.EdgesBothUp(nil), p.ref.edgesWhere(func(e *shadowEdge) bool { return e.up[0] && e.up[1] }))
	equalEdges(t, ctx, "stable", p.soa.StableEdges(now, 0.05, nil), p.ref.edgesWhere(func(e *shadowEdge) bool {
		age, ok := p.ref.ageBoth(e.id.U, e.id.V, now)
		return ok && age >= 0.05
	}))
	if m := minInTransit(p.soa); m != p.ref.minTransit {
		t.Fatalf("%s: min InTransit %v vs shadow %v", ctx, m, p.ref.minTransit)
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
			gt, gok := p.soa.UpSince(u, v)
			wt, wok := p.ref.upSince(u, v)
			if gt != wt || gok != wok {
				t.Fatalf("%s: UpSince(%d,%d) = (%v,%v), shadow (%v,%v)", ctx, u, v, gt, gok, wt, wok)
			}
			ga, gaok := p.soa.AgeBoth(u, v, now)
			wa, waok := p.ref.ageBoth(u, v, now)
			if ga != wa || gaok != waok {
				t.Fatalf("%s: AgeBoth(%d,%d) = (%v,%v), shadow (%v,%v)", ctx, u, v, ga, gaok, wa, waok)
			}
			gp, gpok := p.soa.Params(u, v)
			wp, wpok := p.ref.params(u, v)
			if gp != wp || gpok != wpok {
				t.Fatalf("%s: Params(%d,%d) = (%v,%v), shadow (%v,%v)", ctx, u, v, gp, gpok, wp, wpok)
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
	if got, want := p.soa.DirCap(), 2*int(p.ref.slots); got != want || got != 2*len(sd) {
		t.Fatalf("%s: DirCap %d, shadow %d", ctx, got, want)
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
}

// runLayoutScript executes one churn script step-by-step, checking equality
// after every operation and after every engine advance. Byte values map to
// operations over a small node universe, so the fuzz target can share it.
func runLayoutScript(t *testing.T, script []byte) {
	t.Helper()
	const n = 9
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
		a := int(script[i]) % n
		b := int(script[i+1]) % n
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
	// Drain all pending detections and compare the settled state.
	p.soaEng.RunUntil(p.soaEng.Now() + 1)
	p.refEng.RunUntil(p.refEng.Now() + 1)
	p.check(t, "drain")
}

// TestLayoutDifferentialChurn runs random declare/appear/disappear scripts
// (with interleaved time advances, so lagged detections land) on Dynamic
// and the map-backed shadow, asserting observable equality after every
// step. Enough operations that CSR row relocation triggers.
func TestLayoutDifferentialChurn(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*400)
		rng.Read(script)
		runLayoutScript(t, script)
	}
}

// FuzzTopoChurn lets the fuzzer hunt for operation interleavings where
// Dynamic and the map-backed shadow disagree.
func FuzzTopoChurn(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 2, 0, 1, 4, 0, 1, 3, 0, 1, 4})
	f.Add([]byte{3, 4, 5, 3, 4, 2, 3, 4, 2, 3, 4, 3, 3, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*600 {
			script = script[:3*600]
		}
		runLayoutScript(t, script)
	})
}

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
	if err := d.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	// Run to the first detection: one endpoint sees the link.
	engine.RunUntil(engine.PeekNext())
	if d.Sees(0, 1) == d.Sees(1, 0) {
		t.Fatal("want exactly one endpoint to see the link")
	}
	if err := d.DeclareLink(1, 0, wide); err == nil {
		t.Fatal("re-declare with new parameters while visible to one endpoint succeeded")
	}
	engine.RunUntil(engine.Now() + 1)
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
