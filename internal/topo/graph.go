// Package topo models the dynamic estimate graph of Section 3.1: a fixed
// node set with undirected estimate edges that appear and disappear under
// adversary control. Asymmetric discovery is modelled per the paper: when an
// edge changes state, the two endpoints observe the change within the edge's
// detection delay τ of each other.
package topo

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csr"
	"repro/internal/sim"
)

// LinkParams are the per-edge quantities of the model (Section 3.1).
type LinkParams struct {
	// Eps is the estimate uncertainty ε_e of eq. (1).
	Eps float64
	// Tau is the detection delay τ_e for edge appearance/disappearance.
	Tau float64
	// Delay is the message delay bound T_e for explicit messages.
	Delay float64
	// Uncertainty is the delay uncertainty U ≤ Delay: a receiver knows the
	// message was in transit at least Delay−Uncertainty.
	Uncertainty float64
}

// DefaultLinkParams returns the unit conventions used throughout the
// experiments (see DESIGN.md): ε = 0.2, τ = 0.1, T = 0.1, U = 0.05.
func DefaultLinkParams() LinkParams {
	return LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}
}

// Validate reports whether the parameters are internally consistent.
func (p LinkParams) Validate() error {
	switch {
	case math.IsNaN(p.Eps) || math.IsNaN(p.Tau) || math.IsNaN(p.Delay) || math.IsNaN(p.Uncertainty):
		return fmt.Errorf("topo: link parameters must not be NaN, got %+v", p)
	case p.Eps <= 0:
		return fmt.Errorf("topo: Eps must be positive, got %v", p.Eps)
	case p.Tau < 0:
		return fmt.Errorf("topo: Tau must be non-negative, got %v", p.Tau)
	case p.Delay <= 0:
		return fmt.Errorf("topo: Delay must be positive, got %v", p.Delay)
	case p.Uncertainty < 0 || p.Uncertainty > p.Delay:
		return fmt.Errorf("topo: Uncertainty must be in [0, Delay], got %v", p.Uncertainty)
	}
	return nil
}

// EdgeID canonically identifies an undirected edge (U < V).
type EdgeID struct{ U, V int }

// MakeEdgeID returns the canonical id for the pair {a, b}.
func MakeEdgeID(a, b int) EdgeID {
	if a > b {
		a, b = b, a
	}
	return EdgeID{U: a, V: b}
}

// Other returns the endpoint of e that is not u.
func (e EdgeID) Other(u int) int {
	if u == e.U {
		return e.V
	}
	return e.U
}

// pack is the compact index-map key for a canonical edge (U < V).
func (e EdgeID) pack() uint64 { return uint64(uint32(e.U))<<32 | uint64(uint32(e.V)) }

// Listener receives per-endpoint visibility transitions. self is the node
// whose directed edge (self, peer) changed.
type Listener interface {
	EdgeUp(self, peer int, t sim.Time)
	EdgeDown(self, peer int, t sim.Time)
}

// churnState is the transition bookkeeping of one edge. It is created
// lazily on the first scheduled (lagged) transition, so edges that never
// churn — the overwhelming majority at scale — pay nothing for it, and a
// steady-state flap cycle reuses the two apply closures without allocating.
type churnState struct {
	pending [2]sim.Handle
	want    [2]bool
	apply   [2]func(sim.Time)
}

// Side-visibility bits of the eUp bytes: bit side is the
// visibility of directed index 2·slot+side.
const (
	upU uint8 = 1 << 0 // directed edge (U → sees V)
	upV uint8 = 1 << 1
)

// Dynamic is the dynamic estimate graph.
//
// The layout is structure-of-arrays (DESIGN.md §Structure-of-arrays
// layout): every declared edge owns a stable int32 slot in flat parallel
// slabs (endpoints, interned parameter class, visibility bits, up-since
// times), per-node adjacency is a csr.Rows mapping peer → directed index,
// and the only remaining keyed lookup — Declare and the scenario edge
// toggles — goes through one compact packed-EdgeID → slot map off the hot
// path. Hot reads (Sees, Params, Neighbors, AgeBoth) scan one contiguous
// sorted row.
//
// The directed index dir = 2·slot + side names the directed edge (u, v),
// side 0 when u is the smaller endpoint. It is the one key of per-directed-
// edge state in the whole stack: the algorithm's edge records and the
// estimate layers' samples are slabs indexed by it, and a caller walking
// Row(u) reads them without any further lookup (SeesAt, ParamsAt). A slot
// is stable while its link is declared; Undeclare frees it for reuse, and
// the OnDeclare hooks tell the index-keyed layers to reset it.
type Dynamic struct {
	n        int
	engine   *sim.Engine
	rng      *sim.RNG
	listener Listener
	// minTransit is the minimum Delay−Uncertainty over every link ever
	// declared — the conservative lookahead the sharded event drain windows
	// on. It only ratchets down (a re-declare that raises a link's transit
	// does not raise the bound), which keeps it sound without rescanning:
	// the true minimum over declared links can never be below it.
	minTransit float64
	// Per-shard-pair transit bounds for the sharded drain (kShards = the
	// engine's event parallelism; nodes map to shards by id mod kShards).
	// pairTransit[g*kShards+s] is the ratcheted minimum Delay−Uncertainty
	// over links from a node in shard g to a node in shard s; inMin[s] is the
	// minimum over all incoming pairs — the bound InTransit feeds the drain.
	// Both ratchet exactly like minTransit; RecomputeTransit rescans on
	// demand after churn retires fast links.
	kShards     int
	pairTransit []float64
	inMin       []float64
	// onDeclare hooks run after each newly declared link (never for
	// re-declares); the layers keyed by directed index use them to size
	// their slabs and reset a reused slot, so beacon ingestion and the
	// trigger fold stay structurally read-only.
	onDeclare []func(a, b int)
	// slots numbers the declared links.
	slots csr.FreeList

	idx      map[uint64]int32 // packed canonical EdgeID → slot; control path only
	adj      *csr.Rows        // (node, peer) → directed index
	eU, eV   []int32
	eClass   []int32 // index into classes
	eUp      []uint8 // upU | upV visibility bits
	eSince   [][2]sim.Time
	classes  []LinkParams // interned parameter classes
	classIdx map[LinkParams]int32
	churn    map[int32]*churnState // lazily allocated transition state
}

// NewDynamic creates a graph over n nodes with no edges. The listener may be
// nil (useful in tests); SetListener installs it later.
func NewDynamic(n int, engine *sim.Engine, rng *sim.RNG) *Dynamic {
	k := 1
	if engine != nil {
		k = engine.EventShards()
	}
	d := &Dynamic{
		n:           n,
		engine:      engine,
		rng:         rng,
		idx:         make(map[uint64]int32),
		adj:         csr.NewRows(n),
		classIdx:    make(map[LinkParams]int32),
		churn:       make(map[int32]*churnState),
		minTransit:  math.Inf(1),
		kShards:     k,
		pairTransit: make([]float64, k*k),
		inMin:       make([]float64, k),
	}
	for i := range d.pairTransit {
		d.pairTransit[i] = math.Inf(1)
	}
	for i := range d.inMin {
		d.inMin[i] = math.Inf(1)
	}
	return d
}

// MinTransit returns the minimum Delay−Uncertainty over all links ever
// declared, or +Inf when none exist. Monotone non-increasing over a run, so
// it is always a sound (if conservative) window bound for the sharded event
// drain: no message can cross a link faster.
func (d *Dynamic) MinTransit() float64 { return d.minTransit }

// InTransit returns the minimum Delay−Uncertainty over every link whose
// receiver lives in event shard s (ratcheted like MinTransit, per
// sender-shard pair), or +Inf when shard s has no incoming links. This is
// the per-shard lookahead of the sharded drain: no message can reach a node
// of shard s faster, from any shard — including s itself.
func (d *Dynamic) InTransit(s int) float64 { return d.inMin[s] }

// PairTransit returns the ratcheted minimum transit bound for links from
// sender shard g to receiver shard s (+Inf when no such link was declared).
func (d *Dynamic) PairTransit(g, s int) float64 { return d.pairTransit[g*d.kShards+s] }

// pairRatchet folds one directed link bound into the K×K matrix.
func (d *Dynamic) pairRatchet(from, to int, mt float64) {
	g, s := from%d.kShards, to%d.kShards
	if i := g*d.kShards + s; mt < d.pairTransit[i] {
		d.pairTransit[i] = mt
		if mt < d.inMin[s] {
			d.inMin[s] = mt
		}
	}
}

// RecomputeTransit rescans every currently declared link and resets the
// global and per-pair transit bounds to the true minima, undoing the ratchet
// for links that have since been undeclared or re-declared slower. Purely a
// performance lever for the drain lookahead — window layout never affects
// results — so callers invoke it explicitly (e.g. after churn retires a
// fast edge class) from a serial context, never inside a window.
func (d *Dynamic) RecomputeTransit() {
	inf := math.Inf(1)
	d.minTransit = inf
	for i := range d.pairTransit {
		d.pairTransit[i] = inf
	}
	for i := range d.inMin {
		d.inMin[i] = inf
	}
	visit := func(u, v int, p LinkParams) {
		mt := p.Delay - p.Uncertainty
		if mt < d.minTransit {
			d.minTransit = mt
		}
		d.pairRatchet(u, v, mt)
		d.pairRatchet(v, u, mt)
	}
	for _, slot := range d.idx {
		visit(int(d.eU[slot]), int(d.eV[slot]), d.classes[d.eClass[slot]])
	}
}

// SetListener installs the visibility-transition listener.
func (d *Dynamic) SetListener(l Listener) { d.listener = l }

// OnDeclare registers a hook invoked after every newly declared link (not
// for re-declares) with its canonical endpoints a < b. The link may occupy
// a slot Undeclare freed, so a hook keyed by directed index must reset
// both of the link's indices. Declares only happen in serial contexts
// (construction and global scenario events), so hooks may mutate shared
// structures.
func (d *Dynamic) OnDeclare(fn func(a, b int)) { d.onDeclare = append(d.onDeclare, fn) }

// N returns the number of nodes.
func (d *Dynamic) N() int { return d.n }

// classOf interns the parameter class, returning its index.
func (d *Dynamic) classOf(p LinkParams) int32 {
	if ci, ok := d.classIdx[p]; ok {
		return ci
	}
	ci := int32(len(d.classes))
	d.classes = append(d.classes, p)
	d.classIdx[p] = ci
	return ci
}

// DeclareLink registers the parameters of a potential edge. A link must be
// declared before it can appear. Re-declaring an existing link while it is
// down updates its parameters (endpoints derive their per-edge constants
// afresh at the next appearance); re-declaring it with different
// parameters while either endpoint sees it is an error, since the
// endpoints' running estimates and weights were derived from the old ones.
func (d *Dynamic) DeclareLink(a, b int, p LinkParams) error {
	if a == b {
		return fmt.Errorf("topo: self-loop {%d,%d} not allowed", a, b)
	}
	if a < 0 || a >= d.n || b < 0 || b >= d.n {
		return fmt.Errorf("topo: endpoint out of range in {%d,%d}", a, b)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	id := MakeEdgeID(a, b)
	if old, visible, ok := d.declared(id); ok && visible && old != p {
		return fmt.Errorf("topo: re-declare of visible link {%d,%d} with new parameters", a, b)
	}
	mt := p.Delay - p.Uncertainty
	if mt < d.minTransit {
		d.minTransit = mt
	}
	d.pairRatchet(a, b, mt)
	d.pairRatchet(b, a, mt)
	if slot, ok := d.idx[id.pack()]; ok {
		d.eClass[slot] = d.classOf(p)
		return nil
	}
	slot := d.slots.Alloc()
	if int(slot) == len(d.eU) {
		d.eU = append(d.eU, 0)
		d.eV = append(d.eV, 0)
		d.eClass = append(d.eClass, 0)
		d.eUp = append(d.eUp, 0)
		d.eSince = append(d.eSince, [2]sim.Time{})
	}
	d.eU[slot] = int32(id.U)
	d.eV[slot] = int32(id.V)
	d.eClass[slot] = d.classOf(p)
	d.eUp[slot] = 0
	d.eSince[slot] = [2]sim.Time{}
	d.adj.Insert(id.U, int32(id.V), 2*slot)
	d.adj.Insert(id.V, int32(id.U), 2*slot+1)
	d.idx[id.pack()] = slot
	for _, fn := range d.onDeclare {
		fn(id.U, id.V)
	}
	return nil
}

// declared returns the parameters of a declared link and whether either
// endpoint currently sees it.
func (d *Dynamic) declared(id EdgeID) (p LinkParams, visible, ok bool) {
	slot, ok := d.idx[id.pack()]
	if !ok {
		return LinkParams{}, false, false
	}
	return d.classes[d.eClass[slot]], d.eUp[slot] != 0, true
}

// Undeclare removes a declared link entirely, returning its slot to the
// free list. The link must be invisible to both endpoints; any in-flight
// detection events are cancelled. MinTransit deliberately stays at its
// ratcheted value (it is a sound lower bound, and rescanning would make the
// drain lookahead depend on removal order).
func (d *Dynamic) Undeclare(a, b int) error {
	id := MakeEdgeID(a, b)
	slot, ok := d.idx[id.pack()]
	if !ok {
		return fmt.Errorf("topo: Undeclare of undeclared link {%d,%d}", a, b)
	}
	if d.eUp[slot] != 0 {
		return fmt.Errorf("topo: Undeclare of visible link {%d,%d}", a, b)
	}
	if cs := d.churn[slot]; cs != nil {
		d.engine.Cancel(cs.pending[0])
		d.engine.Cancel(cs.pending[1])
		delete(d.churn, slot)
	}
	delete(d.idx, id.pack())
	d.adj.Remove(id.U, int32(id.V))
	d.adj.Remove(id.V, int32(id.U))
	d.slots.Free(slot)
	return nil
}

// Params returns the link parameters for {a,b}.
func (d *Dynamic) Params(a, b int) (LinkParams, bool) {
	dir, ok := d.adj.Find(a, int32(b))
	if !ok {
		return LinkParams{}, false
	}
	return d.classes[d.eClass[dir>>1]], true
}

// Dir returns the directed index 2·slot+side of the declared link (u, v),
// side 0 when u < v — the key of every per-directed-edge slab. ok is false
// when the link is not declared.
func (d *Dynamic) Dir(u, v int) (dir int32, ok bool) {
	return d.adj.Find(u, int32(v))
}

// DirCap bounds every directed index handed out so far: slabs keyed by
// directed index are in range when sized to DirCap.
func (d *Dynamic) DirCap() int { return 2 * d.slots.Cap() }

// Row returns u's declared peers in ascending order and, in parallel, the
// directed index of each (u, peer): the adjacency walk, with no per-peer
// lookup. The slices alias internal storage and are only valid until the
// next declare or undeclare.
func (d *Dynamic) Row(u int) (peers, dirs []int32) { return d.adj.Row(u) }

// SeesAt is Sees for the directed index of a declared link.
func (d *Dynamic) SeesAt(dir int32) bool {
	return d.eUp[dir>>1]&(upU<<(dir&1)) != 0
}

// ParamsAt is Params for the directed index of a declared link.
func (d *Dynamic) ParamsAt(dir int32) LinkParams {
	return d.classes[d.eClass[dir>>1]]
}

// Appear makes edge {a,b} appear now. Each endpoint observes the appearance
// after an independent delay drawn uniformly from [0, τ], matching the
// asymmetric-discovery model. The link must have been declared.
func (d *Dynamic) Appear(a, b int) error {
	return d.toggle(a, b, true, false, "Appear")
}

// AppearInstant makes the edge visible to both endpoints immediately (used
// for initial topologies, where the paper assumes N_u(0) contains all edges
// present at time 0).
func (d *Dynamic) AppearInstant(a, b int) error {
	return d.toggle(a, b, true, true, "AppearInstant")
}

// Disappear makes edge {a,b} disappear now; endpoints observe within τ.
func (d *Dynamic) Disappear(a, b int) error {
	return d.toggle(a, b, false, false, "Disappear")
}

func (d *Dynamic) toggle(a, b int, up, instant bool, op string) error {
	id := MakeEdgeID(a, b)
	slot, ok := d.idx[id.pack()]
	if !ok {
		return fmt.Errorf("topo: %s on undeclared link {%d,%d}", op, a, b)
	}
	tau := d.classes[d.eClass[slot]].Tau
	for side := 0; side < 2; side++ {
		lag := 0.0
		if !instant {
			lag = d.detectionLag(tau)
		}
		d.transition(slot, side, up, lag)
	}
	return nil
}

func (d *Dynamic) detectionLag(tau float64) float64 {
	if tau <= 0 || d.rng == nil {
		return 0
	}
	return d.rng.Uniform(0, tau)
}

// transition schedules the visibility flip of one side of an edge after
// lag time units. An outstanding pending transition for that side is
// superseded. The lag-0 path applies inline and touches no churn state, so
// static initial topologies never allocate it; a lagged transition creates
// the edge's churnState (and its two apply closures) once, after which
// steady-state flapping is allocation-free.
func (d *Dynamic) transition(slot int32, side int, up bool, lag float64) {
	cs := d.churn[slot]
	if cs != nil {
		d.engine.Cancel(cs.pending[side]) // no-op for the zero or stale handle
		cs.pending[side] = 0
	}
	if lag <= 0 {
		d.apply(slot, side, up, d.engine.Now())
		return
	}
	if cs == nil {
		cs = &churnState{}
		d.churn[slot] = cs
	}
	if cs.apply[side] == nil {
		s, sd := slot, side
		cs.apply[side] = func(t sim.Time) {
			cs.pending[sd] = 0
			d.apply(s, sd, cs.want[sd], t)
		}
	}
	cs.want[side] = up
	cs.pending[side] = d.engine.After(lag, cs.apply[side])
}

// apply flips the visibility of one side of an edge and notifies the
// listener.
func (d *Dynamic) apply(slot int32, side int, up bool, t sim.Time) {
	bit := upU << side
	if (d.eUp[slot]&bit != 0) == up {
		return
	}
	self, peer := int(d.eU[slot]), int(d.eV[slot])
	if side == 1 {
		self, peer = peer, self
	}
	if up {
		d.eUp[slot] |= bit
		d.eSince[slot][side] = t
		if d.listener != nil {
			d.listener.EdgeUp(self, peer, t)
		}
	} else {
		d.eUp[slot] &^= bit
		if d.listener != nil {
			d.listener.EdgeDown(self, peer, t)
		}
	}
}

// Sees reports whether the directed estimate edge (u, v) currently exists,
// i.e. v ∈ N_u(t) in the paper's notation.
func (d *Dynamic) Sees(u, v int) bool {
	dir, ok := d.adj.Find(u, int32(v))
	if !ok {
		return false
	}
	return d.eUp[dir>>1]&(upU<<(dir&1)) != 0
}

// BothUp reports whether {u,v} exists in both directions.
func (d *Dynamic) BothUp(u, v int) bool {
	dir, ok := d.adj.Find(u, int32(v))
	if !ok {
		return false
	}
	return d.eUp[dir>>1] == upU|upV
}

// UpSince returns the time the directed edge (u,v) last became visible; the
// second result is false if the edge is currently down for u.
func (d *Dynamic) UpSince(u, v int) (sim.Time, bool) {
	dir, ok := d.adj.Find(u, int32(v))
	if !ok {
		return 0, false
	}
	slot, s := dir>>1, dir&1
	if d.eUp[slot]&(upU<<s) == 0 {
		return 0, false
	}
	return d.eSince[slot][s], true
}

// AgeBoth returns how long {u,v} has been continuously visible to both
// endpoints, or false if it is not currently both-up.
func (d *Dynamic) AgeBoth(u, v int, now sim.Time) (float64, bool) {
	dir, ok := d.adj.Find(u, int32(v))
	if !ok {
		return 0, false
	}
	return d.ageBothSlot(dir>>1, now)
}

// ageBothSlot is AgeBoth for an already-resolved slot.
func (d *Dynamic) ageBothSlot(slot int32, now sim.Time) (float64, bool) {
	if d.eUp[slot] != upU|upV {
		return 0, false
	}
	return now - math.Max(d.eSince[slot][0], d.eSince[slot][1]), true
}

// Neighbors appends to dst the peers currently visible to u, in ascending
// id order (deterministic iteration keeps whole simulations reproducible),
// and returns the slice. The adjacency row is already sorted, so this is
// one contiguous filtered scan with no sort.
func (d *Dynamic) Neighbors(u int, dst []int) []int {
	peers, dirs := d.adj.Row(u)
	for i, v := range peers {
		if dir := dirs[i]; d.eUp[dir>>1]&(upU<<(dir&1)) != 0 {
			dst = append(dst, int(v))
		}
	}
	return dst
}

// DeclaredEdges appends to dst every declared (potential) edge, up or down,
// sorted. Scenario generators use it to tell the protected initial topology
// apart from the pairs they are free to toggle.
func (d *Dynamic) DeclaredEdges(dst []EdgeID) []EdgeID {
	start := len(dst)
	for slot := int32(0); slot < int32(d.slots.Cap()); slot++ {
		if d.slots.Live(slot) {
			dst = append(dst, EdgeID{U: int(d.eU[slot]), V: int(d.eV[slot])})
		}
	}
	sortEdges(dst[start:])
	return dst
}

// EdgesBothUp appends to dst all edges visible in both directions, sorted.
func (d *Dynamic) EdgesBothUp(dst []EdgeID) []EdgeID {
	start := len(dst)
	for slot := int32(0); slot < int32(d.slots.Cap()); slot++ {
		if d.slots.Live(slot) && d.eUp[slot] == upU|upV {
			dst = append(dst, EdgeID{U: int(d.eU[slot]), V: int(d.eV[slot])})
		}
	}
	sortEdges(dst[start:])
	return dst
}

// StableEdges appends all edges both-up continuously for at least minAge,
// sorted.
func (d *Dynamic) StableEdges(now sim.Time, minAge float64, dst []EdgeID) []EdgeID {
	start := len(dst)
	for slot := int32(0); slot < int32(d.slots.Cap()); slot++ {
		if !d.slots.Live(slot) {
			continue
		}
		if age, ok := d.ageBothSlot(slot, now); ok && age >= minAge {
			dst = append(dst, EdgeID{U: int(d.eU[slot]), V: int(d.eV[slot])})
		}
	}
	sortEdges(dst[start:])
	return dst
}

func sortEdges(edges []EdgeID) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
}

// HopDistances runs BFS from src over both-up edges at least minAge old and
// returns hop counts (-1 for unreachable).
func (d *Dynamic) HopDistances(src int, now sim.Time, minAge float64) []int {
	dist := make([]int, d.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		peers, dirs := d.adj.Row(u)
		for i, v := range peers {
			if dist[v] >= 0 {
				continue
			}
			if age, ok := d.ageBothSlot(dirs[i]>>1, now); !ok || age < minAge {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, int(v))
		}
	}
	return dist
}

// WeightedDistances runs Dijkstra from src over stable both-up edges using a
// per-edge weight function (e.g. the algorithm's κ_e). Unreachable nodes get
// +Inf.
func (d *Dynamic) WeightedDistances(src int, now sim.Time, minAge float64, weight func(EdgeID, LinkParams) float64) []float64 {
	const inf = math.MaxFloat64
	dist := make([]float64, d.n)
	done := make([]bool, d.n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		u, best := -1, inf
		for i := range dist {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		peers, dirs := d.adj.Row(u)
		for i, v := range peers {
			slot := dirs[i] >> 1
			if age, ok := d.ageBothSlot(slot, now); !ok || age < minAge {
				continue
			}
			w := weight(MakeEdgeID(u, int(v)), d.classes[d.eClass[slot]])
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	for i := range dist {
		if dist[i] == inf {
			dist[i] = math.Inf(1)
		}
	}
	return dist
}

// HopDiameter returns the maximum finite BFS eccentricity over stable edges,
// and whether the stable subgraph is connected.
func (d *Dynamic) HopDiameter(now sim.Time, minAge float64) (int, bool) {
	diam := 0
	for u := 0; u < d.n; u++ {
		dist := d.HopDistances(u, now, minAge)
		for _, v := range dist {
			if v < 0 {
				return 0, false
			}
			if v > diam {
				diam = v
			}
		}
	}
	return diam, true
}
