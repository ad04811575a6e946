// Package topo models the dynamic estimate graph of Section 3.1: a fixed
// node set with undirected estimate edges that appear and disappear under
// adversary control. Asymmetric discovery is modelled per the paper: when an
// edge changes state, the two endpoints observe the change within the edge's
// detection delay τ of each other.
package topo

import (
	"fmt"
	"math"
	"slices"
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

// Validate checks each parameter against its legal range: Eps ∈ (0, ∞),
// Tau ∈ [0, ∞), Delay ∈ (0, ∞) and Uncertainty ∈ [0, Delay]. Each check
// negates the range, so NaN and +Inf fail it.
func (p LinkParams) Validate() error {
	inf := math.Inf(1)
	switch {
	case !(p.Eps > 0 && p.Eps < inf):
		return fmt.Errorf("topo: Eps must be positive and finite, got %v", p.Eps)
	case !(p.Tau >= 0 && p.Tau < inf):
		return fmt.Errorf("topo: Tau must be non-negative and finite, got %v", p.Tau)
	case !(p.Delay > 0 && p.Delay < inf):
		return fmt.Errorf("topo: Delay must be positive and finite, got %v", p.Delay)
	case !(p.Uncertainty >= 0 && p.Uncertainty <= p.Delay):
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

// Listener receives per-endpoint visibility transitions. self is the node
// whose directed edge (self, peer) changed.
type Listener interface {
	EdgeUp(self, peer int, t sim.Time)
	EdgeDown(self, peer int, t sim.Time)
}

// cell is one lagged transition in flight: directed index dir turns
// visible (up) or not when the engine event handle fires. fire is bound
// once, when the cell is made; a cell that fires or is superseded goes back
// to the pool, so steady-state churn allocates nothing.
type cell struct {
	dir    int32
	up     bool
	handle sim.Handle
	fire   func(sim.Time)
}

// Per-link record bits: bit side of eRec is the visibility of directed
// index 2·slot+side, wentDead marks a link that has gone dead since its
// declare, and the bits above recClassShift hold the link's interned
// parameter class.
const (
	upU           uint32 = 1 << 0 // directed edge (U → sees V)
	upV           uint32 = 1 << 1
	upBoth               = upU | upV
	wentDead      uint32 = 1 << 2
	recClassShift        = 3
)

// deadLink is one entry of the quarantine queue: the link in slot went
// dead, both sides down and no transition pending, at time at.
type deadLink struct {
	slot int32
	at   sim.Time
}

// Dynamic is the dynamic estimate graph.
//
// The layout is structure-of-arrays (DESIGN.md §Structure-of-arrays
// layout): every present link owns an int32 slot in flat parallel slabs
// (endpoints, one per-link record of visibility bits and interned parameter
// class, one time), and per-node adjacency is a csr.Rows mapping peer →
// directed index. Reads (Sees, Params, Neighbors) scan one contiguous
// sorted row; declares and toggles find a pair's slot by searching the
// shorter of its endpoints' rows, so no keyed map shadows the rows.
//
// The directed index dir = 2·slot + side names the directed edge (u, v),
// side 0 when u is the smaller endpoint, so dir^1 names (v, u). It is the
// one key of per-directed-edge state in the whole stack: the algorithm's
// edge records and the estimate layers' samples are slabs indexed by it,
// and a caller walking Row(u) reads them without any further lookup
// (SeesAt, ParamsAt).
//
// Slot lifecycle. A declare takes a slot, the last one freed or else a
// new one, and the OnDeclare hooks reset the index-keyed slabs there. The
// link is dead once a down transition leaves both sides down with no
// transition pending; a link declared but never yet toggled down is not.
// A dead link is forgotten once strictly more than maxDelay, the largest
// Delay ever declared, has passed since it went dead: its row entries go,
// its parameters are dropped, and its slot joins the free list. Until then
// an index carried in flight still names its pair. Every message is sent
// while its sender sees the link, so no later than the moment the link
// went dead, and it is delivered within its link's Delay of the send, so at
// the latest at that moment plus maxDelay. The bound is strict because a
// global event at that very time, such as a declare that might take the
// slot, fires before a delivery due then. So no message reaches a freed or
// reused slot. Dead links wait in a queue in the order they went dead.
// Declares and lagged transitions forget the links whose quarantine has
// run out before they act, and toggles after they act, so the work rides
// on events that happen anyway and none is scheduled for it; Declared
// counts such a link as gone as soon as its quarantine has run out.
//
// Lagged transitions hold a cell each from a pool, and pending maps a
// directed index to its cell only while the transition is in flight. So
// the transition state alive after a drain is bounded by the transitions
// pending at once, not by how many links ever churned.
type Dynamic struct {
	n        int
	engine   *sim.Engine
	rng      *sim.RNG
	listener Listener
	// minTransit is the minimum Delay−Uncertainty over every link version
	// ever declared: the conservative lookahead MinTransit feeds the
	// sharded drain. It only ratchets down (a re-declare that raises a
	// link's transit does not raise it), which keeps it sound without
	// rescanning: the true minimum over declared links can never be below
	// it. maxDelay is its companion ratchet, the largest Delay ever
	// declared, and a dead link's quarantine.
	minTransit float64
	maxDelay   float64
	// onDeclare hooks run after each newly declared link (never for
	// re-declares) with the slot it took; the layers keyed by directed index
	// use them to size and reset their slabs, so beacon ingestion and the
	// trigger fold stay structurally read-only.
	onDeclare []func(slot int32)

	adj *csr.Rows // (node, peer) → directed index
	// eU and eV are a slot's endpoints, −1 while the slot is free. eRec is
	// its record: the visibility bits, the went-dead bit and the parameter
	// class. eSince is one time: while both sides see the link, when that
	// began; while the link is dead, when it went dead.
	eU, eV    []int32
	eRec      []uint32
	eSince    []sim.Time
	classes   []LinkParams // interned parameter classes
	classIdx  map[LinkParams]int32
	pending   map[int32]*cell // directed index → its lagged transition in flight
	free      []*cell         // cells no transition holds
	dying     []deadLink      // dead links in the order they went dead
	freeSlots []int32         // slots of forgotten links, reused last first
}

// NewDynamic creates a graph over n nodes with no edges. The listener may be
// nil (useful in tests); SetListener installs it later.
func NewDynamic(n int, engine *sim.Engine, rng *sim.RNG) *Dynamic {
	return &Dynamic{
		n:          n,
		engine:     engine,
		rng:        rng,
		minTransit: math.Inf(1),
		adj:        csr.NewRows(n),
		classIdx:   make(map[LinkParams]int32),
		pending:    make(map[int32]*cell),
	}
}

// MinTransit returns the minimum Delay−Uncertainty over every link version
// ever declared, or +Inf before the first declare. It never increases, so
// it is always a sound (if conservative) window bound: the lookahead of the
// sharded drain, since no message can reach any node faster.
func (d *Dynamic) MinTransit() float64 { return d.minTransit }

// SetListener installs the visibility-transition listener.
func (d *Dynamic) SetListener(l Listener) { d.listener = l }

// OnDeclare registers a hook invoked after every newly declared link (not
// for re-declares) with the slot the link took. The link's two directed
// indices are 2·slot and 2·slot+1, below DirCap: a slab keyed by directed
// index grows to DirCap and resets those two entries to its zero state,
// since a freed slot held another pair's state. Declares only happen in
// serial contexts (construction and global scenario events), so hooks may
// mutate shared structures.
func (d *Dynamic) OnDeclare(fn func(slot int32)) { d.onDeclare = append(d.onDeclare, fn) }

// N returns the number of nodes.
func (d *Dynamic) N() int { return d.n }

// classOf interns the parameter class, returning its index. Uniform links
// match the last class interned and skip the hash.
func (d *Dynamic) classOf(p LinkParams) int32 {
	if last := len(d.classes) - 1; last >= 0 && d.classes[last] == p {
		return int32(last)
	}
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
// A link stays declared until it is forgotten, some time after both sides
// lost it (see Dynamic); a forgotten link must be declared again before it
// can appear. A declare first forgets every link whose quarantine has run
// out, and a new link takes the last slot freed, if any.
func (d *Dynamic) DeclareLink(a, b int, p LinkParams) error {
	d.reclaim(d.engine.Now())
	if a == b {
		return fmt.Errorf("topo: self-loop {%d,%d} not allowed", a, b)
	}
	if a < 0 || a >= d.n || b < 0 || b >= d.n {
		return fmt.Errorf("topo: endpoint out of range in {%d,%d}", a, b)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	slot, ok := d.slotOf(a, b)
	if ok && d.eRec[slot]&upBoth != 0 && d.ParamsAt(2*slot) != p {
		return fmt.Errorf("topo: re-declare of visible link {%d,%d} with new parameters", a, b)
	}
	d.minTransit = min(d.minTransit, p.Delay-p.Uncertainty)
	d.maxDelay = max(d.maxDelay, p.Delay)
	rec := uint32(d.classOf(p)) << recClassShift
	if ok {
		d.eRec[slot] = rec | d.eRec[slot]&(upBoth|wentDead)
		return nil
	}
	id := MakeEdgeID(a, b)
	if k := len(d.freeSlots); k > 0 {
		slot = d.freeSlots[k-1]
		d.freeSlots = d.freeSlots[:k-1]
		d.eU[slot], d.eV[slot], d.eRec[slot], d.eSince[slot] = int32(id.U), int32(id.V), rec, 0
	} else {
		slot = int32(len(d.eU))
		d.eU = append(d.eU, int32(id.U))
		d.eV = append(d.eV, int32(id.V))
		d.eRec = append(d.eRec, rec)
		d.eSince = append(d.eSince, 0)
	}
	d.adj.Insert(id.U, int32(id.V), 2*slot)
	d.adj.Insert(id.V, int32(id.U), 2*slot+1)
	for _, fn := range d.onDeclare {
		fn(slot)
	}
	return nil
}

// dead reports whether the link in slot is dead: both sides down and no
// transition pending for either.
func (d *Dynamic) dead(slot int32) bool {
	return d.eRec[slot]&upBoth == 0 && d.pending[2*slot] == nil && d.pending[2*slot+1] == nil
}

// expired reports whether the link in slot is dead, and has been since
// strictly more than its quarantine before now. A dead link that went
// dead since its declare holds in eSince when it last did, since only a
// down transition can leave a link dead.
func (d *Dynamic) expired(slot int32, now sim.Time) bool {
	return d.eRec[slot]&wentDead != 0 && d.dead(slot) && now > d.eSince[slot]+d.maxDelay
}

// reclaim forgets every link whose quarantine has run out at now. Each such
// link has an entry in the run-out prefix of the queue: the queue is in
// the order the links went dead, and every entry waits the same maxDelay.
// An entry whose link came back (a side up or a transition pending) or
// went dead again since (a later entry stands for it) forgets nothing. The
// links forgotten together free their slots in ascending order, which
// keeps the free list a function of the set of links forgotten, not of
// the order they died in.
func (d *Dynamic) reclaim(now sim.Time) {
	i, freed := 0, len(d.freeSlots)
	for ; i < len(d.dying); i++ {
		k := d.dying[i]
		if !(now > k.at+d.maxDelay) {
			break
		}
		if d.eU[k.slot] >= 0 && d.expired(k.slot, now) {
			d.forget(k.slot)
		}
	}
	if i > 0 {
		d.dying = append(d.dying[:0], d.dying[i:]...)
		slices.Sort(d.freeSlots[freed:])
	}
}

// forget frees the slot of a dead link: its row entries and parameters go,
// and the slot joins the free list.
func (d *Dynamic) forget(slot int32) {
	u, v := d.eU[slot], d.eV[slot]
	d.adj.Remove(int(u), v)
	d.adj.Remove(int(v), u)
	d.eU[slot], d.eV[slot], d.eRec[slot] = -1, -1, 0
	d.freeSlots = append(d.freeSlots, slot)
}

// slotOf returns the slot of the declared link {a,b}. It searches the
// shorter of the two endpoints' rows, so a hub's row is searched from the
// leaf side.
func (d *Dynamic) slotOf(a, b int) (int32, bool) {
	if d.adj.Len(b) < d.adj.Len(a) {
		a, b = b, a
	}
	dir, ok := d.adj.Find(a, int32(b))
	return dir >> 1, ok
}

// Params returns the link parameters for {a,b}; ok is false when the link
// is not declared, or was forgotten.
func (d *Dynamic) Params(a, b int) (LinkParams, bool) {
	dir, ok := d.adj.Find(a, int32(b))
	if !ok {
		return LinkParams{}, false
	}
	return d.ParamsAt(dir), true
}

// Declared reports whether {a,b} has a link now: declared, and not dead
// for longer than the quarantine. A link counts as forgotten from the
// moment its quarantine runs out, although its entries stay, and Params,
// Dir and a toggle still find it, until the next declare, toggle or
// lagged transition forgets it. So a caller that declares a link afresh
// when Declared is false treats a cut link by its own history alone.
func (d *Dynamic) Declared(a, b int) bool {
	slot, ok := d.slotOf(a, b)
	return ok && !d.expired(slot, d.engine.Now())
}

// Dir returns the directed index 2·slot+side of the declared link (u, v),
// side 0 when u < v — the key of every per-directed-edge slab. ok is false
// when the link is not declared. The index names the pair until the link
// is forgotten; a later declare may hand its slot to another pair.
func (d *Dynamic) Dir(u, v int) (dir int32, ok bool) {
	return d.adj.Find(u, int32(v))
}

// DirCap bounds every directed index handed out so far: slabs keyed by
// directed index are in range when sized to DirCap. It is twice the most
// links held at once, since freed slots are reused before new ones.
func (d *Dynamic) DirCap() int { return 2 * len(d.eU) }

// Row returns u's declared peers in ascending order and, in parallel, the
// directed index of each (u, peer): the adjacency walk, with no per-peer
// lookup. The slices alias internal storage and are only valid until the
// next declare, toggle or lagged transition, any of which may forget a
// link.
func (d *Dynamic) Row(u int) (peers, dirs []int32) { return d.adj.Row(u) }

// SeesAt is Sees for the directed index of a declared link.
func (d *Dynamic) SeesAt(dir int32) bool {
	return d.eRec[dir>>1]&(upU<<(dir&1)) != 0
}

// ParamsAt is Params for the directed index of a declared link.
func (d *Dynamic) ParamsAt(dir int32) LinkParams {
	return d.classes[d.eRec[dir>>1]>>recClassShift]
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

// toggle schedules both sides' transitions of {a,b}, then forgets the links
// whose quarantine has run out. It forgets last, so that a toggle on a
// dead link whose quarantine has just run out revives it, as on any other
// declared link, rather than failing on a link it has just forgotten.
func (d *Dynamic) toggle(a, b int, up, instant bool, op string) error {
	defer d.reclaim(d.engine.Now())
	slot, ok := d.slotOf(a, b)
	if !ok {
		return fmt.Errorf("topo: %s on undeclared link {%d,%d}", op, a, b)
	}
	tau := d.ParamsAt(2 * slot).Tau
	for side := int32(0); side < 2; side++ {
		lag := 0.0
		if !instant {
			lag = d.detectionLag(tau)
		}
		d.transition(2*slot+side, up, lag)
	}
	return nil
}

func (d *Dynamic) detectionLag(tau float64) float64 {
	if tau <= 0 || d.rng == nil {
		return 0
	}
	return d.rng.Uniform(0, tau)
}

// transition schedules the visibility flip of directed index dir after lag
// time units. A transition still pending for dir is superseded: its event
// is cancelled before anything new is scheduled. The lag-0 path applies
// inline, so static initial topologies take no cell; a lagged transition
// takes one from the pool (making it only when the pool is empty) and keeps
// it until it fires or is superseded.
func (d *Dynamic) transition(dir int32, up bool, lag float64) {
	c := d.pending[dir]
	if c != nil {
		d.engine.Cancel(c.handle)
	}
	if lag <= 0 {
		if c != nil {
			d.release(c)
		}
		d.apply(dir, up, d.engine.Now())
		return
	}
	if c == nil {
		c = d.acquire(dir)
	}
	c.up = up
	c.handle = d.engine.After(lag, c.fire)
}

// acquire takes a cell from the pool, or makes one, and files it as dir's
// pending transition.
func (d *Dynamic) acquire(dir int32) *cell {
	var c *cell
	if k := len(d.free); k > 0 {
		c = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		c = &cell{}
		c.fire = func(t sim.Time) { d.fire(c, t) }
	}
	c.dir = dir
	d.pending[dir] = c
	return c
}

// release returns a cell whose transition fired or was superseded to the
// pool.
func (d *Dynamic) release(c *cell) {
	delete(d.pending, c.dir)
	d.free = append(d.free, c)
}

// fire applies a cell's transition when its event fires. It first forgets
// the links whose quarantine has run out, while the cell still holds its
// own link alive. The cell goes back to the pool before the transition
// applies, because the listener may schedule again.
func (d *Dynamic) fire(c *cell, t sim.Time) {
	d.reclaim(t)
	dir, up := c.dir, c.up
	d.release(c)
	d.apply(dir, up, t)
}

// apply flips the visibility of directed index dir and notifies the
// listener. A down transition that leaves the link dead, a no-op one
// included, stamps the time and queues the link for its quarantine.
func (d *Dynamic) apply(dir int32, up bool, t sim.Time) {
	slot, side := dir>>1, dir&1
	bit := upU << side
	if (d.eRec[slot]&bit != 0) != up {
		self, peer := int(d.eU[slot]), int(d.eV[slot])
		if side == 1 {
			self, peer = peer, self
		}
		if up {
			d.eRec[slot] |= bit
			if d.eRec[slot]&upBoth == upBoth {
				d.eSince[slot] = t
			}
			if d.listener != nil {
				d.listener.EdgeUp(self, peer, t)
			}
		} else {
			d.eRec[slot] &^= bit
			if d.listener != nil {
				d.listener.EdgeDown(self, peer, t)
			}
		}
	}
	if !up && d.dead(slot) {
		d.eRec[slot] |= wentDead
		d.eSince[slot] = t
		d.dying = append(d.dying, deadLink{slot: slot, at: t})
	}
}

// Sees reports whether the directed estimate edge (u, v) currently exists,
// i.e. v ∈ N_u(t) in the paper's notation.
func (d *Dynamic) Sees(u, v int) bool {
	dir, ok := d.adj.Find(u, int32(v))
	if !ok {
		return false
	}
	return d.SeesAt(dir)
}

// BothUp reports whether {u,v} exists in both directions.
func (d *Dynamic) BothUp(u, v int) bool {
	dir, ok := d.adj.Find(u, int32(v))
	if !ok {
		return false
	}
	return d.eRec[dir>>1]&upBoth == upBoth
}

// ageBothSlot returns how long the link in slot has been continuously
// visible to both endpoints, or false if it is not currently both-up.
func (d *Dynamic) ageBothSlot(slot int32, now sim.Time) (float64, bool) {
	if d.eRec[slot]&upBoth != upBoth {
		return 0, false
	}
	return now - d.eSince[slot], true
}

// Neighbors appends to dst the peers currently visible to u, in ascending
// id order (deterministic iteration keeps whole simulations reproducible),
// and returns the slice. The adjacency row is already sorted, so this is
// one contiguous filtered scan with no sort.
func (d *Dynamic) Neighbors(u int, dst []int) []int {
	peers, dirs := d.adj.Row(u)
	for i, v := range peers {
		if d.SeesAt(dirs[i]) {
			dst = append(dst, int(v))
		}
	}
	return dst
}

// DeclaredEdges appends to dst every declared (potential) edge, up or down,
// sorted; forgotten links are not declared. It lets a partition sweep find
// the cross-part links still visible.
func (d *Dynamic) DeclaredEdges(dst []EdgeID) []EdgeID {
	start := len(dst)
	for slot, u := range d.eU {
		if u >= 0 {
			dst = append(dst, EdgeID{U: int(u), V: int(d.eV[slot])})
		}
	}
	sortEdges(dst[start:])
	return dst
}

// EdgesBothUp appends to dst all edges visible in both directions, sorted.
func (d *Dynamic) EdgesBothUp(dst []EdgeID) []EdgeID {
	start := len(dst)
	for slot, rec := range d.eRec {
		if rec&upBoth == upBoth {
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
