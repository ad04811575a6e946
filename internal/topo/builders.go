package topo

import (
	"math"

	"repro/internal/sim"
)

// Line returns the path 0–1–…–(n−1).
func Line(n int) []EdgeID {
	edges := make([]EdgeID, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, EdgeID{U: i, V: i + 1})
	}
	return edges
}

// Ring returns the cycle over n nodes.
func Ring(n int) []EdgeID {
	edges := Line(n)
	if n > 2 {
		edges = append(edges, EdgeID{U: 0, V: n - 1})
	}
	return edges
}

// Star connects node 0 to every other node.
func Star(n int) []EdgeID {
	edges := make([]EdgeID, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, EdgeID{U: 0, V: i})
	}
	return edges
}

// Grid returns a w×h grid over n = w·h nodes, indexed row-major.
func Grid(w, h int) []EdgeID {
	var edges []EdgeID
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, MakeEdgeID(id(x, y), id(x+1, y)))
			}
			if y+1 < h {
				edges = append(edges, MakeEdgeID(id(x, y), id(x, y+1)))
			}
		}
	}
	return edges
}

// Torus is a grid with wraparound links in both dimensions.
func Torus(w, h int) []EdgeID {
	edges := Grid(w, h)
	id := func(x, y int) int { return y*w + x }
	if w > 2 {
		for y := 0; y < h; y++ {
			edges = append(edges, MakeEdgeID(id(0, y), id(w-1, y)))
		}
	}
	if h > 2 {
		for x := 0; x < w; x++ {
			edges = append(edges, MakeEdgeID(id(x, 0), id(x, h-1)))
		}
	}
	return edges
}

// RandomConnected returns a random spanning tree plus extra random edges,
// giving a connected graph with roughly n·(1+extra) edges. It makes
// ⌊extra·n⌋ random pair draws, and stops early once every one of the
// n(n−1)/2 pairs is an edge, since further draws can only repeat one.
func RandomConnected(n int, extra float64, rng *sim.RNG) []EdgeID {
	seen := make(map[EdgeID]bool)
	var edges []EdgeID
	add := func(a, b int) {
		id := MakeEdgeID(a, b)
		if a != b && !seen[id] {
			seen[id] = true
			edges = append(edges, id)
		}
	}
	// Random spanning tree: attach each node (in random order) to a random
	// earlier node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	// Counted in float64, so a draw count beyond the int range still ends
	// at the complete graph.
	draws, full := math.Floor(extra*float64(n)), n*(n-1)/2
	for i := 0.0; i < draws && len(edges) < full; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return edges
}
