package core

// Edge records (DESIGN.md §Structure-of-arrays layout). Each node's state
// for a (potential) estimate edge, as described in Section 4.3.2 — the
// implicit representation of all neighbor sets N^s via the pair (T₀, I),
// plus handshake bookkeeping — is keyed by the topology's directed index
// dir = 2·slot + side of (node, peer), slot being topo's slot of the link
// and side 0 for the smaller endpoint. A record has two parts:
//
//   - a hot part, 9 bytes per directed index in three slabs: an index into
//     an interned class table holding the five derived constants (ε, τ, T,
//     κ, δ), which every edge with the same link parameters shares, so a
//     ring with uniform links stores them once; one flags byte; and the
//     index of the record's entry in the times pool, 0 for none;
//   - a cold part, a pooled 48-byte edgeTimes entry: upSince, L at
//     discovery, T₀, I, κ₀ and the pending handshake handle.
//
// There is no adjacency of its own: the per-tick trigger fold walks u's topo
// row, whose peers are pre-sorted and whose entries are the directed indices
// themselves, and reads records and estimates (estimate.Layer.EstimateAt) by
// index. It reads a pre-inserted record, the commonest, through the flags
// byte and the class alone.
//
// Record lifecycle: topo's declare hook (declareRecs) sizes the hot slabs
// and zeroes the link's two records, since topo hands a forgotten link's
// slot to a later declare. The hot part persists across edge-down (the
// paper's T_s := ⊥ is a flags clear, not a removal) until topo forgets
// the link, which happens only after both sides' losses; recSeen marks a
// record whose edge has appeared since its declare. An appearance after
// t = 0 takes an entry, and OnEdgeDown cancels its handshake and returns it
// to a LIFO free list, so the pool is as large as the most records ever up
// and inserting at once, and a forgotten link's records hold none. An
// appearance at t = 0 is in every N^s at once (N^s_u(0) = N_u(0)) and
// takes no entry, because a record without one reads zeros, which are its
// upSince and, unless a corrupted start set L_u(0), its L at discovery; a
// nonzero L_u(0) is kept in an entry from the appearance on. An insertedge
// that reaches such a record is ignored: a flap shorter than the detection
// lag hid the loss from this side while the leader rediscovered the edge,
// and the edge is already in every neighbor set.
//
// Every access resolves the entry through dir at that moment (timesAt,
// setCheck); nothing holds a pool index across events. A record holding no
// entry reads the zero entry and drops handle writes. A record has at most
// one pending handshake attempt, whose handle its entry holds: a second
// insertedge cancels the first attempt before scheduling its own, and
// OnEdgeDown cancels it. So no attempt of an earlier appearance runs once
// the record's entry is back in the pool, and none is left to run when
// topo forgets the link and hands its directed indices to another pair.
//
// Concurrency: the decide phase runs evalTriggers concurrently for
// distinct nodes. The topo row, the slabs and the pool are only read there,
// except the recFlags decay-expiry clear in kappaAt — a single-byte write to
// a record owned by the evaluating node (distinct bytes are distinct memory
// locations in the Go memory model, so the neighbouring record of the same
// link, owned by the peer, does not race). Structural growth and resets
// (declareRecs) happen only in declares, and entries are taken and returned
// only by appearances, losses, controls and handshake timers, all serial.

import (
	"repro/internal/csr"
	"repro/internal/sim"
)

// recFlags bits.
const (
	recUp uint8 = 1 << iota
	recPreInserted
	recHaveTimes
	recDecaying
	recDynamicGrid
	recSeen // the edge has appeared at least once since its declare
)

// edgeClass is one interned set of derived per-edge constants
// (Section 4.3.1).
type edgeClass struct {
	eps   float64 // estimate uncertainty ε_e of the estimate layer
	tau   float64 // detection delay τ_e
	delay float64 // message delay bound T_e
	kappa float64 // weight κ_e (eq. 9)
	delta float64 // slow-trigger slack δ_e
}

// edgeTimes is the cold part of an edge record: Listing 1's handshake state
// and the insertion schedule it agrees.
type edgeTimes struct {
	since  sim.Time   // upSince: when the edge appeared
	lAtUp  float64    // L_u at that appearance
	t0     float64    // grid base T₀
	insDur float64    // insertion duration I
	kappa0 float64    // starting weight of a §5.5 decaying insertion
	check  sim.Handle // pending handshake attempt
}

// growRecs sizes the hot record slabs to the topology's directed-index
// range.
func (a *Algorithm) growRecs() {
	n := a.rt.Dyn.DirCap()
	a.recClass = csr.Grow(a.recClass, n)
	a.recFlags = csr.Grow(a.recFlags, n)
	a.recTimes = csr.Grow(a.recTimes, n)
}

// declareRecs is the topology's declare hook: it grows the hot record slabs
// and zeroes the two records of slot, which a freed slot hands over from a
// forgotten link. Such a link's records hold no entry: each side's loss
// returned it.
func (a *Algorithm) declareRecs(slot int32) {
	a.growRecs()
	for dir := 2 * slot; dir <= 2*slot+1; dir++ {
		a.recClass[dir], a.recFlags[dir], a.recTimes[dir] = 0, 0, 0
	}
}

// timesAt returns the cold entry of the record at dir, or the zero entry
// times[0] when the record holds none; only a caller that knows the record
// holds one writes through it.
func (a *Algorithm) timesAt(dir int32) *edgeTimes { return &a.times[a.recTimes[dir]] }

// setCheck stores the pending handshake handle of the record at dir; a
// record holding no entry drops it.
func (a *Algorithm) setCheck(dir int32, h sim.Handle) {
	if i := a.recTimes[dir]; i != 0 {
		a.times[i].check = h
	}
}

// takeTimes gives the record at dir, which holds no entry, a zero one: the
// free list's last, or a new one when the list is empty.
func (a *Algorithm) takeTimes(dir int32) *edgeTimes {
	var i int32
	if k := len(a.freeTimes); k > 0 {
		i = a.freeTimes[k-1]
		a.freeTimes = a.freeTimes[:k-1]
	} else {
		i = int32(len(a.times))
		a.times = append(a.times, edgeTimes{})
	}
	a.recTimes[dir] = i
	return &a.times[i]
}

// dropTimes cancels the pending handshake of the record at dir and returns
// its entry, zeroed, to the free list.
func (a *Algorithm) dropTimes(dir int32) {
	i := a.recTimes[dir]
	if i == 0 {
		return
	}
	a.rt.Engine.Cancel(a.times[i].check) // stale or zero handles are safe no-ops
	a.times[i] = edgeTimes{}
	a.recTimes[dir] = 0
	a.freeTimes = append(a.freeTimes, i)
}

// internClass returns the class table index of cls, adding it if new.
// Uniform links match the last class interned and skip the hash.
func (a *Algorithm) internClass(cls edgeClass) int32 {
	if last := len(a.classes) - 1; last >= 0 && a.classes[last] == cls {
		return int32(last)
	}
	ci, have := a.classIdx[cls]
	if !have {
		ci = int32(len(a.classes))
		a.classes = append(a.classes, cls)
		a.classIdx[cls] = ci
		a.noteThresholds(cls)
	}
	return ci
}

// recState is a snapshot of one directed edge record, for tests and
// diagnostics.
type recState struct {
	up, preInserted, haveTimes, decaying bool
	upSince                              sim.Time
	t0, insDur, kappa, kappa0            float64
	eps, tau, delay, delta               float64
}

// recView returns the record state of edge {u,v} as seen by u; ok is false
// until the edge has appeared since its declare.
func (a *Algorithm) recView(u, v int) (recState, bool) {
	dir, ok := a.rt.Dyn.Dir(u, v)
	if !ok || a.recFlags[dir]&recSeen == 0 {
		return recState{}, false
	}
	flags := a.recFlags[dir]
	cls := a.classes[a.recClass[dir]]
	e := a.timesAt(dir)
	return recState{
		up: flags&recUp != 0, preInserted: flags&recPreInserted != 0,
		haveTimes: flags&recHaveTimes != 0, decaying: flags&recDecaying != 0,
		upSince: e.since,
		t0:      e.t0, insDur: e.insDur,
		kappa: cls.kappa, kappa0: e.kappa0,
		eps: cls.eps, tau: cls.tau, delay: cls.delay, delta: cls.delta,
	}, true
}
