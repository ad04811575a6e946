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
	snap := &analysis.Snapshot{L: append([]float64(nil), a.l...)}
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

// NeighborLevel is one (peer, level) entry of a node's visible adjacency.
type NeighborLevel struct {
	Peer  int
	Level int
}

// AppendNeighborLevels appends the level of every visible edge at node u to
// dst in ascending peer order and returns the slice. With a reused scratch
// buffer it is allocation-free (pinned by BenchmarkNeighborLevels); callers
// that sample levels every tick must use this instead of NeighborLevels.
func (a *Algorithm) AppendNeighborLevels(u int, dst []NeighborLevel) []NeighborLevel {
	if a.refLayout {
		for _, peer := range a.peers[u] {
			rec := a.edges[u][peer]
			if rec.up {
				dst = append(dst, NeighborLevel{Peer: peer, Level: a.level(u, rec)})
			}
		}
		return dst
	}
	peers, dirs := a.rt.Dyn.Row(u)
	for i, dir := range dirs {
		if a.recFlags[dir]&recUp != 0 {
			dst = append(dst, NeighborLevel{Peer: int(peers[i]), Level: a.levelSlot(u, dir)})
		}
	}
	return dst
}

// NeighborLevels reports, for diagnostics, the level of every visible edge
// at node u as a peer→level map. It allocates the map (and, transiently,
// the pair slice) on every call — use AppendNeighborLevels on hot paths.
func (a *Algorithm) NeighborLevels(u int) map[int]int {
	out := make(map[int]int)
	for _, nl := range a.AppendNeighborLevels(u, nil) {
		out[nl.Peer] = nl.Level
	}
	return out
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
