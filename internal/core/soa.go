package core

// The structure-of-arrays edge-record layout (DESIGN.md §Structure-of-arrays
// layout). Every directed edge record the reference layout keeps as a
// *edgeRec behind two map probes lives here at the topology's directed
// index dir = 2·slot + side of (node, peer) — slot being topo's stable edge
// slot, side 0 for the smaller endpoint — in parallel slabs: the mutable
// per-record floats (upSince, lAtUp, T₀, I, κ₀), one flags byte, the
// pending handshake handle, and an index into an interned class table
// holding the five derived constants (ε, τ, T, κ, δ) — which are shared by
// every edge with the same link parameters, so a ring with uniform links
// stores them once instead of 40 bytes per record. There is no adjacency of
// its own: the per-tick trigger fold walks u's topo row, whose peers are
// pre-sorted (the iteration order the reference's sorted peers slice
// produced) and whose entries are the directed indices themselves, and
// reads records and estimates (estimate.Layer.EstimateAt) by index.
//
// Record lifecycle: topo's declare hook (onDeclare) sizes the slabs and
// resets both records of a newly declared link, so a slot Undeclare freed
// and a different pair reuses starts fresh. Like the reference map entries,
// records persist across edge-down (the paper's T_s := ⊥ is a flags clear,
// not a removal); recSeen marks a record whose edge has appeared, the point
// at which the reference layout creates its entry. Every float expression
// below mirrors its reference counterpart operation-for-operation; the
// full-run differential tests pin the layouts byte-identical.
//
// Concurrency: the decide phase runs evalTriggersSlot concurrently for
// distinct nodes. The topo row and the slabs are only read there, except
// the recFlags decay-expiry clear in kappaAtSlot — a single-byte write to a
// record owned by the evaluating node (distinct bytes are distinct memory
// locations in the Go memory model, so the neighbouring record of the same
// link, owned by the peer, does not race). Structural growth (onDeclare)
// happens only in declares, which are serial.

import (
	"repro/internal/analysis"
	"repro/internal/csr"
	"repro/internal/sim"
	"repro/internal/transport"
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

// onEdgeUpSlot is OnEdgeUp on the slab layout.
func (a *Algorithm) onEdgeUpSlot(self, peer int, t sim.Time) {
	dir, ok := a.rt.Dyn.Dir(self, peer)
	if !ok {
		return
	}
	cls, _ := a.deriveClass(self, peer)
	a.recClass[dir] = a.internClass(cls)
	a.recFlags[dir] |= recUp | recSeen
	a.recSince[dir] = t
	a.recLAtUp[dir] = a.l[self]
	if t == 0 {
		// Paper convention: edges present at time 0 populate all neighbor
		// sets immediately (N^s_u(0) = N_u(0) for all s).
		a.recFlags[dir] |= recPreInserted
		a.recFlags[dir] &^= recHaveTimes
		return
	}
	if self < peer { // leader of the edge
		a.scheduleLeaderCheckSlot(self, peer, dir, t)
	}
}

// onEdgeDownSlot is OnEdgeDown on the slab layout.
func (a *Algorithm) onEdgeDownSlot(self, peer int) {
	dir, ok := a.rt.Dyn.Dir(self, peer)
	if !ok {
		return
	}
	a.recFlags[dir] &^= recUp | recPreInserted | recHaveTimes | recDecaying
	a.rt.Engine.Cancel(a.recCheck[dir]) // stale or zero handles are safe no-ops
	a.recCheck[dir] = 0
}

// scheduleLeaderCheckSlot mirrors scheduleLeaderCheck: wait at least Δ and
// until the edge has been visible for a logical duration of (1+ρ)(1+µ)Δ,
// then agree insertion times with the peer (Listing 1 lines 4–10). The
// attempt closure captures (self, peer, dir) instead of a record pointer.
func (a *Algorithm) scheduleLeaderCheckSlot(self, peer int, dir int32, discovered sim.Time) {
	cls := &a.classes[a.recClass[dir]]
	delta := a.handshakeDeltaVals(cls.delay, cls.tau)
	needLogical := (1 + a.p.Rho) * (1 + a.p.Mu) * delta
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		a.recCheck[dir] = 0
		if a.recFlags[dir]&recUp == 0 || a.recSince[dir] != discovered {
			a.HandshakeAborts++
			return
		}
		if gap := needLogical - (a.l[self] - a.recLAtUp[dir]); gap > 0 {
			// Logical window not yet covered; retry once it surely is
			// (logical clocks advance at rate ≥ 1−ρ).
			a.recCheck[dir] = a.rt.Engine.After(gap/(1-a.p.Rho)+a.rt.Tick(), attempt)
			return
		}
		g := a.gTilde(self, t)
		lIns := a.l[self] + g + (1+a.p.Rho)*(1+a.p.Mu)*a.classes[a.recClass[dir]].delay
		a.rt.Net.SendControl(self, peer, insertEdgeMsg{LIns: lIns, GTilde: g})
		a.computeInsertionTimesSlot(dir, lIns, g)
	}
	a.recCheck[dir] = a.rt.Engine.After(delta, attempt)
}

// onControlSlot mirrors the OnControl handshake follower path (Listing 1
// lines 11–14) on the slab layout.
func (a *Algorithm) onControlSlot(to, from int, msg insertEdgeMsg, d transport.Delivery) {
	dir, ok := a.rt.Dyn.Dir(to, from)
	if !ok || a.recFlags[dir]&recUp == 0 {
		a.HandshakeAborts++
		return
	}
	cls := &a.classes[a.recClass[dir]]
	discovered := a.recSince[dir]
	minWait := cls.delay + cls.tau
	maxWait := a.handshakeDeltaVals(cls.delay, cls.tau) - cls.tau
	needLogical := (1 + a.p.Rho) * (1 + a.p.Mu) * minWait
	received := d.At
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		a.recCheck[dir] = 0
		if a.recFlags[dir]&recUp == 0 || a.recSince[dir] != discovered {
			a.HandshakeAborts++
			return
		}
		if a.l[to]-a.recLAtUp[dir] >= needLogical {
			a.computeInsertionTimesSlot(dir, msg.LIns, msg.GTilde)
			return
		}
		if t-received < maxWait {
			a.recCheck[dir] = a.rt.Engine.After(a.rt.Tick(), attempt)
			return
		}
		a.HandshakeAborts++
	}
	a.recCheck[dir] = a.rt.Engine.After(minWait, attempt)
}

// computeInsertionTimesSlot is Listing 2 (or the §5.5 weight-decay start)
// on the slab layout.
func (a *Algorithm) computeInsertionTimesSlot(dir int32, lIns, g float64) {
	cls := &a.classes[a.recClass[dir]]
	if a.p.Insertion == InsertDecaying {
		a.recT0[dir] = lIns
		a.recInsDur[dir] = 0
		a.recKappa0[dir] = g + 4*cls.kappa
		a.recFlags[dir] |= recDecaying | recHaveTimes
		a.Insertions++
		return
	}
	var insDur float64
	switch a.p.Insertion {
	case InsertDynamic:
		insDur = analysis.InsertionDurationDynamic(g, a.p.Mu, a.p.Rho, a.p.B, cls.delay, cls.tau)
		a.recFlags[dir] |= recDynamicGrid
	case InsertCustom:
		insDur = a.p.InsertionFactor * g / a.p.Mu
		a.recFlags[dir] &^= recDynamicGrid
	default:
		insDur = analysis.InsertionDurationStatic(g, a.p.Mu, a.p.Rho)
		a.recFlags[dir] &^= recDynamicGrid
	}
	a.recT0[dir] = analysis.InsertionBase(lIns, insDur)
	a.recInsDur[dir] = insDur
	a.recFlags[dir] |= recHaveTimes
	a.Insertions++
}

// kappaAtSlot is kappaAt on the slab layout; kappa is the record's static
// class weight, passed in because every caller already has the class.
func (a *Algorithm) kappaAtSlot(dir int32, kappa, l float64) float64 {
	if a.recFlags[dir]&recDecaying == 0 {
		return kappa
	}
	if l <= a.recT0[dir] {
		return a.recKappa0[dir]
	}
	k := a.recKappa0[dir] - (l-a.recT0[dir])*a.p.DecayRate*a.p.Mu
	if k <= kappa {
		// Decay finished: the edge behaves like a fully inserted one.
		a.recFlags[dir] &^= recDecaying
		return kappa
	}
	return k
}

// deltaAtClass is deltaAt on the slab layout.
func (a *Algorithm) deltaAtClass(cls *edgeClass, kappa float64) float64 {
	if kappa == cls.kappa {
		return cls.delta
	}
	_, hi := analysis.DeltaRange(kappa, cls.eps, cls.tau, a.p.Mu)
	return a.deltaFraction * hi
}

// levelSlot is level (the highest s with the peer in N^s_self, per the
// implicit representation of Section 4.3.2) on the slab layout.
func (a *Algorithm) levelSlot(self int, dir int32) int {
	flags := a.recFlags[dir]
	switch {
	case flags&recUp == 0:
		return 0
	case flags&recPreInserted != 0:
		return analysis.InfLevel
	case flags&recHaveTimes == 0:
		return 0
	case flags&recDecaying != 0 || a.p.Insertion == InsertDecaying && a.recInsDur[dir] == 0:
		// §5.5 strategy: in all neighbor sets as soon as the agreed logical
		// start time is reached; safety comes from the inflated weight.
		if a.l[self] >= a.recT0[dir] {
			return analysis.InfLevel
		}
		return 0
	case flags&recDynamicGrid != 0:
		return analysis.LevelAtDynamic(a.l[self], a.recT0[dir], a.recInsDur[dir])
	default:
		return analysis.LevelAt(a.l[self], a.recT0[dir], a.recInsDur[dir])
	}
}

// evalTriggersSlot is the single-pass trigger fold (see evalTriggers) on
// the slab layout: one contiguous scan of u's sorted topology row, whose
// entries index the record slabs and the estimate layer directly — no map
// probe, pointer chase or per-edge lookup.
func (a *Algorithm) evalTriggersSlot(u int, c *modeCounters) (fast, slow bool) {
	lu := a.l[u]
	est := a.rt.Est
	var fw, fb, sw, sb int // prefix maxima: fast/slow × witness/blocked
	peers, dirs := a.rt.Dyn.Row(u)
	for i, dir := range dirs {
		if a.recFlags[dir]&recUp == 0 {
			continue
		}
		lvl := a.levelSlot(u, dir)
		if lvl < 1 {
			continue
		}
		// recUp mirrors topo's visibility bit (both flip in the same
		// transition event), so v ∈ N_u holds as EstimateAt requires.
		e, ok := est.EstimateAt(u, int(peers[i]), dir)
		if !ok {
			c.missing++
			continue
		}
		cls := &a.classes[a.recClass[dir]]
		kappa := a.kappaAtSlot(dir, cls.kappa, lu)
		delta := a.deltaAtClass(cls, kappa)
		top := lvl
		if top > a.sMax {
			top = a.sMax
		}
		ahead, behind := e-lu, lu-e
		if w := fastWitnessLevel(ahead, kappa, cls.eps, top); w > fw {
			fw = w
		}
		if b := a.fastBlockedLevel(behind, kappa, cls.eps, cls.tau, top); b > fb {
			fb = b
		}
		if w := slowWitnessLevel(behind, kappa, delta, cls.eps, top); w > sw {
			sw = w
		}
		if b := a.slowBlockedLevel(ahead, kappa, delta, cls.eps, cls.tau, top); b > sb {
			sb = b
		}
	}
	return fw > fb, sw > sb
}

// recState is a layout-independent snapshot of one directed edge record,
// for tests and diagnostics.
type recState struct {
	up, preInserted, haveTimes, decaying bool
	upSince                              sim.Time
	t0, insDur, kappa, kappa0            float64
	eps, tau, delay, delta               float64
}

// recView returns the record state of edge {u,v} as seen by u on whichever
// layout is active.
func (a *Algorithm) recView(u, v int) (recState, bool) {
	if a.refLayout {
		rec, ok := a.edges[u][v]
		if !ok {
			return recState{}, false
		}
		return recState{
			up: rec.up, preInserted: rec.preInserted, haveTimes: rec.haveTimes,
			decaying: rec.decaying, upSince: rec.upSince,
			t0: rec.t0, insDur: rec.insDur, kappa: rec.kappa, kappa0: rec.kappa0,
			eps: rec.eps, tau: rec.tau, delay: rec.delay, delta: rec.delta,
		}, true
	}
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
