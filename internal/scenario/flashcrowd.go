package scenario

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// FlashCrowd adds a burst of edges simultaneously — many insertion
// handshakes in flight at once, the stress case for the leveled insertion
// protocol's simultaneity (every new edge must enter at long-path levels
// first regardless of how many arrive together).
type FlashCrowd struct {
	// At is the burst time.
	At float64
	// Count is the number of random undeclared pairs drawn at install time
	// (default 4).
	Count int

	// Added counts applied insertions; Err records the first failure.
	Added int
	Err   error
}

var _ runner.Scenario = (*FlashCrowd)(nil)

// Install implements runner.Scenario.
func (f *FlashCrowd) Install(rt *runner.Runtime, rng *sim.RNG) {
	count := f.Count
	if count <= 0 {
		count = 4
	}
	pool := freePairs(rt)
	if len(pool) == 0 {
		f.Err = fmt.Errorf("scenario flashcrowd: no undeclared pairs to draw from")
		return
	}
	if count > len(pool) {
		count = len(pool)
	}
	// Draw a deterministic sample without replacement.
	var pairs []Pair
	for _, i := range rng.Perm(len(pool))[:count] {
		pairs = append(pairs, pool[i])
	}
	rt.Engine.Schedule(f.At, func(sim.Time) {
		for _, p := range pairs {
			if err := rt.AddEdge(p[0], p[1]); err != nil {
				if f.Err == nil {
					f.Err = edgeErrf("flashcrowd", p[0], p[1], err)
				}
				continue
			}
			f.Added++
		}
	})
}
