package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/runner"
	"repro/internal/sim"
)

// RandomGeometric is a mobility scenario: nodes live on the unit torus and
// share an estimate edge exactly while their torus distance is at most
// Radius. Every StepEvery time units one node (or one companion group)
// hops StepSize in a random direction and the edge set is reconciled —
// the random-geometric generalization of the cell-hopping mobile example.
//
// Reconciliation runs on a sparse spatial hash (cellGrid): cells have side
// ≥ Radius, so any in-range pair lies in the same or an adjacent cell and
// each node only ever examines its 3×3 cell neighborhood plus its current
// mirror neighbors. The first reconciliation sweeps every node once to align
// a caller-chosen initial topology with the radius graph (O(N·deg)); after
// that only moved nodes are re-examined (O(deg) per hop), since an edge can
// only change state when an endpoint moved. Changes are applied in ascending
// (u,v) order, the same order the previous all-pairs scan used, so runs are
// byte-identical to the O(N²) implementation this replaces.
//
// Nodes start in a deterministic chain spaced 0.45·Radius apart, so the
// initial graph is connected as the model requires; InitialEdges exposes
// that edge set so callers can hand it to the topology configuration.
type RandomGeometric struct {
	// Radius is the connection radius on the unit torus; it must be
	// positive.
	Radius float64
	// StepEvery is the time between hops (default 4).
	StepEvery float64
	// StepSize is the hop distance (default 0.45·Radius).
	StepSize float64
	// Companions lists node groups whose members replicate each other's
	// hops, so edges inside a group persist while the group roams.
	Companions [][]int

	// Moves counts hops, EdgeEvents counts add/cut reconciliations, and
	// Err records the first failure.
	Moves      int
	EdgeEvents int
	Err        error

	rt      *runner.Runtime
	rng     *sim.RNG
	pos     [][2]float64
	groupOf []int // companion group id per node, -1 for solo nodes

	grid   cellGrid
	nbr    [][]int32 // sorted per-node mirror of the radius graph
	synced bool      // the initial full sweep has run

	// scratch, reused across steps
	moved   []int32
	isMoved []bool
	cand    []int32
	changes []geoChange
}

// geoChange is one pending edge reconciliation, canonical u < v.
type geoChange struct {
	u, v int32
	add  bool
}

var _ runner.Scenario = (*RandomGeometric)(nil)

// cellGrid is a sparse spatial hash over the unit torus: side m cells of
// width 1/m ≥ radius, so two nodes within radius always land in the same or
// an adjacent cell (±1 per axis, torus-wrapped). Only occupied cells hold
// buckets, and a cell's last node to leave deletes its bucket, so memory
// tracks the node count rather than m² — with very small radii m can be in
// the tens of thousands — or the cells nodes have ever visited.
type cellGrid struct {
	m     int
	cells map[int64][]int32
}

func newCellGrid(radius float64, n int) cellGrid {
	m := 1
	if radius < 1 {
		m = int(1 / radius)
		if m < 1 {
			m = 1
		}
		if m > 1<<30 {
			m = 1 << 30
		}
	}
	return cellGrid{m: m, cells: make(map[int64][]int32, n)}
}

// coords maps a torus position to its cell coordinates, guarding the
// x·m → m rounding edge for positions just below 1.
func (g *cellGrid) coords(p [2]float64) (cx, cy int) {
	cx = int(p[0] * float64(g.m))
	if cx >= g.m {
		cx = g.m - 1
	}
	cy = int(p[1] * float64(g.m))
	if cy >= g.m {
		cy = g.m - 1
	}
	return cx, cy
}

func (g *cellGrid) key(p [2]float64) int64 {
	cx, cy := g.coords(p)
	return int64(cx)*int64(g.m) + int64(cy)
}

func (g *cellGrid) insert(u int32, p [2]float64) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], u)
}

func (g *cellGrid) remove(u int32, p [2]float64) {
	k := g.key(p)
	b := g.cells[k]
	for i, v := range b {
		if v == u {
			if len(b) == 1 {
				delete(g.cells, k)
				return
			}
			b[i] = b[len(b)-1]
			g.cells[k] = b[:len(b)-1]
			return
		}
	}
}

// gather appends every node in the 3×3 cell neighborhood of p to dst,
// deduplicating wrapped cells when m < 3, and returns the slice. Bucket
// order is arbitrary; callers sort whatever they derive from it.
func (g *cellGrid) gather(p [2]float64, dst []int32) []int32 {
	cx, cy := g.coords(p)
	var seen [9]int64
	ns := 0
	for dx := -1; dx <= 1; dx++ {
		x := cx + dx
		if x < 0 {
			x += g.m
		} else if x >= g.m {
			x -= g.m
		}
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 {
				y += g.m
			} else if y >= g.m {
				y -= g.m
			}
			k := int64(x)*int64(g.m) + int64(y)
			dup := false
			for i := 0; i < ns; i++ {
				if seen[i] == k {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[ns] = k
			ns++
			dst = append(dst, g.cells[k]...)
		}
	}
	return dst
}

// adjacent reports whether two positions are in the same or neighboring
// cells (torus-wrapped): the region gather covers. Any pair outside it is
// farther apart than one cell side ≥ Radius.
func (g *cellGrid) adjacent(a, b [2]float64) bool {
	ax, ay := g.coords(a)
	bx, by := g.coords(b)
	return wrapNear(ax, bx, g.m) && wrapNear(ay, by, g.m)
}

// wrapNear reports |a−b| ≤ 1 on the cyclic group of m cells.
func wrapNear(a, b, m int) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1 || d >= m-1
}

// initialPositions places n nodes in a chain along the x axis, spaced
// 0.45·Radius so consecutive and second neighbors connect.
func (g *RandomGeometric) initialPositions(n int) [][2]float64 {
	spacing := 0.45 * g.Radius
	pos := make([][2]float64, n)
	for i := range pos {
		x := float64(i) * spacing
		pos[i] = [2]float64{x - math.Floor(x), 0}
	}
	return pos
}

// torusDist is the Euclidean distance on the unit torus.
func torusDist(a, b [2]float64) float64 {
	var sum float64
	for i := 0; i < 2; i++ {
		d := math.Abs(a[i] - b[i])
		d -= math.Floor(d)
		if d > 0.5 {
			d = 1 - d
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// InitialEdges returns the radius graph of the deterministic initial
// placement, for use as the run's initial topology, in ascending (u,v)
// order. An unset Radius returns nil (Install reports the error), rather
// than the complete graph a zero spacing would degenerate to.
func (g *RandomGeometric) InitialEdges(n int) []Pair {
	if g.Radius <= 0 {
		return nil
	}
	pos := g.initialPositions(n)
	grid := newCellGrid(g.Radius, n)
	for u := 0; u < n; u++ {
		grid.insert(int32(u), pos[u])
	}
	var out []Pair
	var cand []int32
	for u := 0; u < n; u++ {
		cand = grid.gather(pos[u], cand[:0])
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		for _, v := range cand {
			if int(v) <= u {
				continue
			}
			if torusDist(pos[u], pos[v]) <= g.Radius {
				out = append(out, Pair{u, int(v)})
			}
		}
	}
	return out
}

// Install implements runner.Scenario.
func (g *RandomGeometric) Install(rt *runner.Runtime, rng *sim.RNG) {
	if g.Radius <= 0 {
		g.Err = fmt.Errorf("scenario geometric: Radius must be positive, got %v", g.Radius)
		return
	}
	if g.StepEvery <= 0 {
		g.StepEvery = 4
	}
	if g.StepSize <= 0 {
		g.StepSize = 0.45 * g.Radius
	}
	g.rt = rt
	g.rng = rng
	n := rt.N()
	g.pos = g.initialPositions(n)
	g.groupOf = make([]int, n)
	for i := range g.groupOf {
		g.groupOf[i] = -1
	}
	for gi, group := range g.Companions {
		for _, u := range group {
			if u < 0 || u >= n {
				g.Err = fmt.Errorf("scenario geometric: companion node %d out of range [0,%d)", u, n)
				return
			}
			g.groupOf[u] = gi
		}
	}
	g.grid = newCellGrid(g.Radius, n)
	for u := 0; u < n; u++ {
		g.grid.insert(int32(u), g.pos[u])
	}
	// Seed the edge-state mirror from the graph itself, so a caller that
	// started from a different initial topology still reconciles correctly
	// (the first step's full sweep aligns it with the radius graph).
	// EdgesBothUp iterates declared edges, O(E log E) — not O(N²).
	g.nbr = make([][]int32, n)
	for _, id := range rt.Dyn.EdgesBothUp(nil) {
		g.nbr[id.U] = append(g.nbr[id.U], int32(id.V))
		g.nbr[id.V] = append(g.nbr[id.V], int32(id.U))
	}
	for _, row := range g.nbr {
		slices.Sort(row)
	}
	g.isMoved = make([]bool, n)
	rt.Engine.NewTicker(g.StepEvery, g.StepEvery, func(sim.Time, float64) { g.step() })
}

// step hops one node (dragging its companions along) and reconciles edges.
func (g *RandomGeometric) step() {
	n := g.rt.N()
	mover := g.rng.Intn(n)
	angle := g.rng.Uniform(0, 2*math.Pi)
	dx := g.StepSize * math.Cos(angle)
	dy := g.StepSize * math.Sin(angle)
	g.moved = g.moved[:0]
	move := func(u int) {
		g.grid.remove(int32(u), g.pos[u])
		x := g.pos[u][0] + dx
		y := g.pos[u][1] + dy
		g.pos[u] = [2]float64{x - math.Floor(x), y - math.Floor(y)}
		g.grid.insert(int32(u), g.pos[u])
		g.moved = append(g.moved, int32(u))
	}
	if gi := g.groupOf[mover]; gi >= 0 {
		for _, u := range g.Companions[gi] {
			move(u)
		}
	} else {
		move(mover)
	}
	g.Moves++
	g.refresh()
}

// hasNbr reports whether v is in u's sorted mirror adjacency.
func (g *RandomGeometric) hasNbr(u, v int32) bool {
	s := g.nbr[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// reconcileNode compares node u's mirror against the radius graph using the
// grid and records every divergent pair as a pending change. skipMoved
// suppresses pairs whose lower-id endpoint is another moved node (those are
// recorded once, from that endpoint's own pass).
func (g *RandomGeometric) reconcileNode(u int32, skipMoved bool, lowerOnly bool) {
	pu := g.pos[u]
	g.cand = g.grid.gather(pu, g.cand[:0])
	for _, v := range g.cand {
		if v == u || (lowerOnly && v < u) {
			continue
		}
		if skipMoved && g.isMoved[v] && v < u {
			continue
		}
		near := torusDist(pu, g.pos[v]) <= g.Radius
		if near != g.hasNbr(u, v) {
			g.pushChange(u, v, near)
		}
	}
	// Mirror neighbors outside the 3×3 neighborhood are farther than one
	// cell side ≥ Radius: cut without computing a distance.
	for _, v := range g.nbr[u] {
		if lowerOnly && v < u {
			continue
		}
		if skipMoved && g.isMoved[v] && v < u {
			continue
		}
		if !g.grid.adjacent(pu, g.pos[v]) {
			g.pushChange(u, v, false)
		}
	}
}

func (g *RandomGeometric) pushChange(u, v int32, add bool) {
	if u > v {
		u, v = v, u
	}
	g.changes = append(g.changes, geoChange{u: u, v: v, add: add})
}

// refresh reconciles the edge set with current positions. The first call
// sweeps every node (aligning whatever topology the run started from);
// later calls only re-examine the nodes that just moved — no other pair's
// distance changed. Either way the accumulated changes are applied in
// ascending (u,v) order, matching the fixed pair order of the all-pairs
// scan this replaces.
func (g *RandomGeometric) refresh() {
	g.changes = g.changes[:0]
	if !g.synced {
		n := g.rt.N()
		for u := 0; u < n; u++ {
			g.reconcileNode(int32(u), false, true)
		}
		g.synced = true
	} else {
		slices.Sort(g.moved)
		w := 0
		for i, u := range g.moved { // dedupe (a companion list may repeat)
			if i > 0 && u == g.moved[i-1] {
				continue
			}
			g.moved[w] = u
			w++
			g.isMoved[u] = true
		}
		g.moved = g.moved[:w]
		for _, u := range g.moved {
			g.reconcileNode(u, true, false)
		}
		for _, u := range g.moved {
			g.isMoved[u] = false
		}
	}
	sort.Slice(g.changes, func(i, j int) bool {
		if g.changes[i].u != g.changes[j].u {
			return g.changes[i].u < g.changes[j].u
		}
		return g.changes[i].v < g.changes[j].v
	})
	for _, c := range g.changes {
		var err error
		if c.add {
			err = g.rt.AddEdge(int(c.u), int(c.v))
		} else {
			err = g.rt.CutEdge(int(c.u), int(c.v))
		}
		if err != nil {
			if g.Err == nil {
				g.Err = edgeErrf("geometric", int(c.u), int(c.v), err)
			}
			continue
		}
		g.setNbr(c.u, c.v, c.add)
		g.setNbr(c.v, c.u, c.add)
		g.EdgeEvents++
	}
}

// setNbr inserts or removes v in u's sorted mirror adjacency.
func (g *RandomGeometric) setNbr(u, v int32, add bool) {
	s := g.nbr[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if add {
		if i < len(s) && s[i] == v {
			return
		}
		s = append(s, 0)
		copy(s[i+1:], s[i:])
		s[i] = v
		g.nbr[u] = s
		return
	}
	if i < len(s) && s[i] == v {
		g.nbr[u] = append(s[:i], s[i+1:]...)
	}
}
