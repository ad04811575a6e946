// Package scenario is the composable dynamic-network adversary layer: a
// library of deterministic generators that drive the estimate graph of a
// running simulation — chord churn, geometric mobility, partitions and
// heals, edge flaps, flash crowds — behind the single runner.Scenario
// interface.
//
// The paper's guarantees (Theorem 5.22, Corollary 7.10) are statements
// about *dynamic* graphs; this package is where the repository's dynamic
// workloads are defined, instead of hand-rolled toggle loops inside each
// experiment and example.
//
// Determinism contract: a generator receives its RNG stream from the
// runtime at Install and must draw all randomness from it, iterate node
// pairs in a fixed order (never over Go maps), and schedule all activity on
// the runtime's engine. Under that contract a whole run is a pure function
// of the root seed, so the sweep layer can replay scenarios across any
// worker-pool size with byte-identical output (see DESIGN.md §Determinism
// and the scenario determinism tests in internal/experiments).
//
// Generators are pointer-installed and expose post-run counters (Toggles,
// Moves, Err, …) so experiments can assert the adversary actually ran.
// Adding a generator means implementing Install, drawing only from the
// provided RNG, and recording the first failure in an Err field rather
// than panicking mid-run.
package scenario

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// Pair is an unordered node pair, the unit every generator toggles.
type Pair = [2]int

// canon returns the pair in canonical (low, high) order.
func canon(p Pair) Pair {
	if p[0] > p[1] {
		p[0], p[1] = p[1], p[0]
	}
	return p
}

// freePairs lists, in ascending (u,v) order, every node pair with no
// declared link at install time. The declared initial topology is thereby
// the protected core a generator never touches unless given an explicit
// pool.
func freePairs(rt *runner.Runtime) []Pair {
	n := rt.N()
	var out []Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if _, declared := rt.Dyn.Params(u, v); !declared {
				out = append(out, Pair{u, v})
			}
		}
	}
	return out
}

// Op is one scheduled edge operation of a Script.
type Op struct {
	At   float64
	U, V int
	Add  bool
}

// AddAt schedules edge {u,v} to appear at time t.
func AddAt(t float64, u, v int) Op { return Op{At: t, U: u, V: v, Add: true} }

// Script replays a fixed list of edge operations — the deterministic
// backbone for experiments that place specific edges at specific times
// (e.g. the Section 7 insertion-adaptation runs).
type Script struct {
	Ops []Op

	// Applied counts operations that succeeded; Err records the first
	// failure.
	Applied int
	Err     error
}

var _ runner.Scenario = (*Script)(nil)

// NewScript builds a Script from the given operations.
func NewScript(ops ...Op) *Script { return &Script{Ops: ops} }

// Install implements runner.Scenario.
func (s *Script) Install(rt *runner.Runtime, _ *sim.RNG) {
	for _, op := range s.Ops {
		op := op
		rt.Engine.Schedule(op.At, func(sim.Time) {
			var err error
			if op.Add {
				err = rt.AddEdge(op.U, op.V)
			} else {
				err = rt.CutEdge(op.U, op.V)
			}
			if err != nil {
				s.fail(err)
				return
			}
			s.Applied++
		})
	}
}

func (s *Script) fail(err error) {
	if s.Err == nil {
		s.Err = err
	}
}

// composite stacks scenarios; each child gets its own RNG stream so
// reordering one generator's draws never perturbs another's.
type composite struct{ children []runner.Scenario }

// Compose stacks multiple scenarios into one. Children are installed in
// argument order with independent RNG streams split off deterministically,
// so composed workloads stay reproducible.
func Compose(children ...runner.Scenario) runner.Scenario {
	return &composite{children: children}
}

// Install implements runner.Scenario.
func (c *composite) Install(rt *runner.Runtime, rng *sim.RNG) {
	for _, child := range c.children {
		child.Install(rt, rng.Split())
	}
}

// edgeErrf wraps an edge-operation failure with scenario context.
func edgeErrf(kind string, u, v int, err error) error {
	return fmt.Errorf("scenario %s: edge {%d,%d}: %w", kind, u, v, err)
}

// togglePair flips one pool pair against the live graph: it cuts the edge
// when both endpoints see it up and adds it otherwise. Reading the graph
// itself, not a generator-side mirror, keeps a pair that a composed
// generator flipped since the last visit from producing a phantom toggle (a
// transition the topo layer no-ops). The error is already wrapped with
// scenario context.
func togglePair(rt *runner.Runtime, p Pair, kind string) error {
	var err error
	if rt.Dyn.BothUp(p[0], p[1]) {
		err = rt.CutEdge(p[0], p[1])
	} else {
		err = rt.AddEdge(p[0], p[1])
	}
	if err != nil {
		return edgeErrf(kind, p[0], p[1], err)
	}
	return nil
}
