package core

// Edge records (DESIGN.md §Structure-of-arrays layout). Each node's state
// for a (potential) estimate edge, as described in Section 4.3.2 — the
// implicit representation of all neighbor sets N^s via the pair (T₀, I),
// plus handshake bookkeeping — lives at the topology's directed index
// dir = 2·slot + side of (node, peer), slot being topo's stable edge slot
// and side 0 for the smaller endpoint, in parallel slabs: the mutable
// per-record floats (upSince, lAtUp, T₀, I, κ₀), one flags byte, the
// pending handshake handle, and an index into an interned class table
// holding the five derived constants (ε, τ, T, κ, δ) — which are shared by
// every edge with the same link parameters, so a ring with uniform links
// stores them once instead of 40 bytes per record. There is no adjacency of
// its own: the per-tick trigger fold walks u's topo row, whose peers are
// pre-sorted and whose entries are the directed indices themselves, and
// reads records and estimates (estimate.Layer.EstimateAt) by index.
//
// Record lifecycle: topo's declare hook (onDeclare) sizes the slabs and
// resets both records of a newly declared link, so a slot Undeclare freed
// and a different pair reuses starts fresh. Records persist across
// edge-down (the paper's T_s := ⊥ is a flags clear, not a removal); recSeen
// marks a record whose edge has appeared since its declare.
//
// Concurrency: the decide phase runs evalTriggers concurrently for
// distinct nodes. The topo row and the slabs are only read there, except
// the recFlags decay-expiry clear in kappaAt — a single-byte write to a
// record owned by the evaluating node (distinct bytes are distinct memory
// locations in the Go memory model, so the neighbouring record of the same
// link, owned by the peer, does not race). Structural growth (onDeclare)
// happens only in declares, which are serial.

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

// growRecs sizes the record slabs to the topology's directed-index range.
func (a *Algorithm) growRecs() {
	n := a.rt.Dyn.DirCap()
	a.recClass = csr.Grow(a.recClass, n)
	a.recFlags = csr.Grow(a.recFlags, n)
	a.recSince = csr.Grow(a.recSince, n)
	a.recLAtUp = csr.Grow(a.recLAtUp, n)
	a.recT0 = csr.Grow(a.recT0, n)
	a.recInsDur = csr.Grow(a.recInsDur, n)
	a.recKappa0 = csr.Grow(a.recKappa0, n)
	a.recCheck = csr.Grow(a.recCheck, n)
}

// onDeclare is the topology's declare hook: it gives both directions of a
// newly declared link fresh records. The slot may be one Undeclare freed;
// its old records are inert by then (Undeclare requires the link down at
// both ends, and edge-down cancelled any pending handshake check), so
// clearing them is all a reset takes.
func (a *Algorithm) onDeclare(u, v int) {
	a.growRecs()
	dir, _ := a.rt.Dyn.Dir(u, v)
	for _, d := range [2]int32{dir, dir ^ 1} {
		a.recClass[d] = 0
		a.recFlags[d] = 0
		a.recSince[d] = 0
		a.recLAtUp[d] = 0
		a.recT0[d] = 0
		a.recInsDur[d] = 0
		a.recKappa0[d] = 0
		a.recCheck[d] = 0
	}
}

// internClass returns the class table index of cls, adding it if new.
func (a *Algorithm) internClass(cls edgeClass) int32 {
	ci, have := a.classIdx[cls]
	if !have {
		ci = int32(len(a.classes))
		a.classes = append(a.classes, cls)
		a.classIdx[cls] = ci
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
	return recState{
		up: flags&recUp != 0, preInserted: flags&recPreInserted != 0,
		haveTimes: flags&recHaveTimes != 0, decaying: flags&recDecaying != 0,
		upSince: a.recSince[dir],
		t0:      a.recT0[dir], insDur: a.recInsDur[dir],
		kappa: cls.kappa, kappa0: a.recKappa0[dir],
		eps: cls.eps, tau: cls.tau, delay: cls.delay, delta: cls.delta,
	}, true
}
