package scenario

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// Churn toggles chord edges on and off over a protected core — the fully
// dynamic workload of Theorem 5.22: at each event one pair from the pool is
// flipped (appears if down, disappears if up), so handshakes race topology
// changes and edges can flap mid-insertion.
//
// The pool defaults to every node pair with no declared link at install
// time; the declared initial topology (the line or ring "core") is never
// touched. Events are periodic with period Every, or Poisson with mean gap
// Every when Poisson is set.
type Churn struct {
	// Every is the mean time between toggles; it must be positive.
	Every float64
	// Poisson draws exponential inter-event gaps with mean Every instead
	// of a fixed period.
	Poisson bool
	// Pairs overrides the candidate pool (nil = all undeclared pairs).
	Pairs []Pair

	// Toggles counts applied transitions; Err records the first failure.
	Toggles int
	Err     error

	rt   *runner.Runtime
	rng  *sim.RNG
	pool []Pair
}

var _ runner.Scenario = (*Churn)(nil)

// Install implements runner.Scenario.
func (c *Churn) Install(rt *runner.Runtime, rng *sim.RNG) {
	if c.Every <= 0 {
		c.Err = fmt.Errorf("scenario churn: Every must be positive, got %v", c.Every)
		return
	}
	c.rt = rt
	c.rng = rng
	if c.Pairs != nil {
		c.pool = append([]Pair(nil), c.Pairs...) // canonicalized copy; the caller's slice stays untouched
	} else {
		c.pool = freePairs(rt)
	}
	for i, p := range c.pool {
		c.pool[i] = canon(p)
	}
	if len(c.pool) == 0 {
		c.Err = fmt.Errorf("scenario churn: empty chord pool (all %d-node pairs declared)", rt.N())
		return
	}
	if c.Poisson {
		rt.Engine.After(rng.Exp(c.Every), c.poissonStep)
		return
	}
	rt.Engine.NewTicker(c.Every, c.Every, func(sim.Time, float64) { c.toggle() })
}

func (c *Churn) poissonStep(sim.Time) {
	c.toggle()
	c.rt.Engine.After(c.rng.Exp(c.Every), c.poissonStep)
}

func (c *Churn) toggle() {
	p := c.pool[c.rng.Intn(len(c.pool))]
	if err := togglePair(c.rt, p, "churn"); err != nil {
		if c.Err == nil {
			c.Err = err
		}
		return
	}
	c.Toggles++
}
