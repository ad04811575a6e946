package core

import (
	"repro/internal/analysis"
	"repro/internal/topo"
)

// Snapshot captures clocks and leveled edge sets for offline verification
// against the legality definitions (Definitions 5.8–5.13). An edge's level
// is the largest s for which it belongs to E_s(t), i.e. the minimum of the
// two endpoints' levels.
func (a *Algorithm) Snapshot() *analysis.Snapshot {
	snap := &analysis.Snapshot{L: make([]float64, len(a.clocks))}
	for u := range a.clocks {
		snap.L[u] = a.clocks[u].l
	}
	var ids []topo.EdgeID
	ids = a.rt.Dyn.EdgesBothUp(ids)
	for _, id := range ids {
		lu := a.EdgeLevel(id.U, id.V)
		lv := a.EdgeLevel(id.V, id.U)
		lvl := lu
		if lv < lvl {
			lvl = lv
		}
		if lvl < 1 {
			continue
		}
		kappa := a.EdgeKappa(id.U, id.V)
		if k2 := a.EdgeKappa(id.V, id.U); k2 > kappa {
			kappa = k2
		}
		snap.Edges = append(snap.Edges, analysis.SnapEdge{U: id.U, V: id.V, Kappa: kappa, Level: lvl})
	}
	return snap
}

// InsertionInfo exposes the agreed insertion schedule of edge {u,v} as seen
// by u: the grid base T₀ and the duration I (ok is false while no schedule
// is agreed). Used by the Section 7 experiments to compare insertion
// durations across global-skew estimates.
func (a *Algorithm) InsertionInfo(u, v int) (t0, insDur float64, ok bool) {
	rec, okRec := a.recView(u, v)
	if !okRec || !rec.haveTimes {
		return 0, 0, false
	}
	return rec.t0, rec.insDur, true
}
