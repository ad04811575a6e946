package scenario

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// ChurnWaves drives correlated churn bursts: long quiet periods alternate
// with waves during which a batch of pool pairs toggles in quick
// succession. Real deployments churn this way — a rack reboot, a routing
// flap or a firmware rollout takes out (or brings back) many links at
// nearly the same time — and correlated bursts stress the insertion
// machinery far harder than the memoryless Churn process: several
// handshakes race each other and the next wave can hit edges that are
// still mid-insertion.
//
// The pool defaults to every node pair with no declared link at install
// time, so the declared initial topology stays a protected core.
type ChurnWaves struct {
	// WaveEvery is the time between wave starts; it must be positive.
	WaveEvery float64
	// BurstSize is the number of toggles per wave (default 4).
	BurstSize int
	// Spacing is the gap between consecutive toggles inside a wave
	// (default 0.2; keep it under the handshake window Δ to race
	// insertions).
	Spacing float64
	// Pairs overrides the candidate pool (nil = all undeclared pairs).
	Pairs []Pair

	// Waves counts started waves, Toggles applied transitions; Err records
	// the first failure.
	Waves   int
	Toggles int
	Err     error

	rt    *runner.Runtime
	rng   *sim.RNG
	pool  []Pair
	burst []Pair // pairs of the wave in flight
	next  int    // next burst index to toggle
	timer *sim.Timer
}

var _ runner.Scenario = (*ChurnWaves)(nil)

// Install implements runner.Scenario.
func (c *ChurnWaves) Install(rt *runner.Runtime, rng *sim.RNG) {
	if c.WaveEvery <= 0 {
		c.Err = fmt.Errorf("scenario churnwaves: WaveEvery must be positive, got %v", c.WaveEvery)
		return
	}
	if c.BurstSize <= 0 {
		c.BurstSize = 4
	}
	if c.Spacing <= 0 {
		c.Spacing = 0.2
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
		c.Err = fmt.Errorf("scenario churnwaves: empty pair pool (all %d-node pairs declared)", rt.N())
		return
	}
	c.burst = make([]Pair, 0, c.BurstSize)
	c.timer = rt.Engine.NewTimer(c.fire)
	c.timer.Reset(c.WaveEvery)
}

// fire either starts a new wave (drawing its burst) or applies the next
// toggle of the wave in flight, re-arming the shared timer either way.
func (c *ChurnWaves) fire(t sim.Time) {
	if c.next >= len(c.burst) {
		// Between waves: start the next one.
		c.burst = c.burst[:0]
		for i := 0; i < c.BurstSize; i++ {
			c.burst = append(c.burst, c.pool[c.rng.Intn(len(c.pool))])
		}
		c.next = 0
		c.Waves++
	}
	c.toggle(c.burst[c.next])
	c.next++
	if c.next < len(c.burst) {
		c.timer.Reset(t + c.Spacing)
	} else {
		// Quiet period: the next wave starts WaveEvery after this one began.
		c.timer.Reset(t - float64(len(c.burst)-1)*c.Spacing + c.WaveEvery)
	}
}

// toggle flips one pair against the live graph (togglePair); a pair drawn
// twice in one wave flips back.
func (c *ChurnWaves) toggle(p Pair) {
	if err := togglePair(c.rt, p, "churnwaves"); err != nil {
		if c.Err == nil {
			c.Err = err
		}
		return
	}
	c.Toggles++
}
