package estimate

import (
	"fmt"

	"repro/internal/csr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// RBSConfig parametrizes reference-broadcast synchronization (Elson, Girod,
// Estrin [6], cited in §3.1 as an example of estimate edges that are not
// communication links): nodes that hear the same reference broadcast
// compare their reception clock readings, eliminating the sender-side delay
// uncertainty entirely. Only the reception jitter J and staleness remain in
// the error budget, which is why RBS edges can be much more precise than
// message-exchange edges with the same radio.
type RBSConfig struct {
	// Rho and Mu bound the hardware drift and the logical rate boost.
	Rho, Mu float64
	// Jitter is the maximum spread J between the reception times of one
	// broadcast at different listeners.
	Jitter float64
	// Interval is the broadcast period per reference source.
	Interval float64
	// ExchangeDelay bounds the time for listeners to exchange reception
	// reports after hearing a broadcast.
	ExchangeDelay float64
	// TickSlop absorbs discrete integration (≈ 2 ticks).
	TickSlop float64
}

func (c RBSConfig) validate() error {
	switch {
	case c.Jitter < 0:
		return fmt.Errorf("estimate: RBS jitter must be non-negative, got %v", c.Jitter)
	case c.Interval <= 0:
		return fmt.Errorf("estimate: RBS interval must be positive, got %v", c.Interval)
	case c.ExchangeDelay < 0:
		return fmt.Errorf("estimate: RBS exchange delay must be non-negative, got %v", c.ExchangeDelay)
	}
	return nil
}

// RBS is the reference-broadcast estimate layer. Reference sources emit
// periodic broadcasts; every listener in a source's group receives each
// broadcast within Jitter of the others and records its clocks; reports are
// exchanged within ExchangeDelay. Estimates between co-listeners advance
// the anchored remote reading at the certified minimum rate.
type RBS struct {
	engine  *sim.Engine
	dyn     *topo.Dynamic
	cfg     RBSConfig
	rng     *sim.RNG
	hw      func(int) float64
	logical func(int) float64
	// groups[s] is the listener set of reference source s.
	groups [][]int
	// rows[u] maps co-listener v → slot into the parallel sample slabs,
	// which hold u's view of v's clock anchored at their latest common
	// broadcast: v's logical clock at v's reception (rbLAtEvent) and u's
	// hardware clock at u's own reception (rbHwAtOwn). The co-listener
	// relation is static, so rows are fully built at construction;
	// broadcast exchanges and invalidations only write slots.
	rows                  *csr.Rows
	rbLAtEvent, rbHwAtOwn []float64
	rbValid               []uint8
	started               bool
	// Broadcasts counts emitted reference broadcasts.
	Broadcasts uint64
}

// NewRBS builds the layer. hw and logical give access to a node's hardware
// and logical clocks (the logical clock is read at reception time, as the
// RBS receivers do). groups lists the listener set of each reference
// source; pairs sharing a group become estimate edges.
func NewRBS(n int, engine *sim.Engine, dyn *topo.Dynamic, rng *sim.RNG,
	hw, logical func(int) float64, groups [][]int, cfg RBSConfig) (*RBS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &RBS{
		engine:  engine,
		dyn:     dyn,
		cfg:     cfg,
		rng:     rng,
		hw:      hw,
		logical: logical,
		groups:  groups,
		rows:    csr.NewRows(n),
	}
	for _, g := range groups {
		for _, u := range g {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("estimate: RBS listener %d out of range", u)
			}
			for _, v := range g {
				if u == v {
					continue
				}
				// Overlapping groups revisit pairs; keep the first slot.
				if _, ok := r.rows.Find(u, int32(v)); ok {
					continue
				}
				slot := int32(len(r.rbValid))
				r.rbLAtEvent = append(r.rbLAtEvent, 0)
				r.rbHwAtOwn = append(r.rbHwAtOwn, 0)
				r.rbValid = append(r.rbValid, 0)
				r.rows.Insert(u, int32(v), slot)
			}
		}
	}
	return r, nil
}

// Start schedules the periodic reference broadcasts; call once before the
// run begins.
func (r *RBS) Start() {
	if r.started {
		return
	}
	r.started = true
	for s := range r.groups {
		s := s
		offset := r.cfg.Interval * float64(s+1) / float64(len(r.groups)+1)
		r.engine.NewTicker(offset, r.cfg.Interval, func(t sim.Time, _ float64) {
			r.broadcast(s)
		})
	}
}

// broadcast emits one reference event: every listener receives it within
// Jitter, records its clocks, and ExchangeDelay later its report reaches
// all co-listeners in the group.
func (r *RBS) broadcast(s int) {
	r.Broadcasts++
	group := r.groups[s]
	type reception struct {
		node     int
		lAtRecv  float64
		hwAtRecv float64
	}
	receptions := make([]*reception, len(group))
	for i, u := range group {
		u := u
		i := i
		jit := 0.0
		if r.cfg.Jitter > 0 && r.rng != nil {
			jit = r.rng.Uniform(0, r.cfg.Jitter)
		}
		r.engine.After(jit, func(sim.Time) {
			receptions[i] = &reception{node: u, lAtRecv: r.logical(u), hwAtRecv: r.hw(u)}
		})
	}
	// Exchange after every reception surely happened.
	exchangeAt := r.cfg.Jitter + r.cfg.ExchangeDelay
	r.engine.After(exchangeAt, func(sim.Time) {
		for _, from := range receptions {
			if from == nil {
				continue
			}
			for _, to := range receptions {
				if to == nil || to.node == from.node {
					continue
				}
				// Co-listeners always have a pre-built slot.
				slot, _ := r.rows.Find(to.node, int32(from.node))
				r.rbLAtEvent[slot] = from.lAtRecv
				r.rbHwAtOwn[slot] = to.hwAtRecv
				r.rbValid[slot] = 1
			}
		}
	})
}

// maxSampleAgeHW is the hardware-clock age beyond which a sample is no
// longer certified.
func (r *RBS) maxSampleAgeHW() float64 {
	real := r.cfg.Interval + r.cfg.ExchangeDelay + r.cfg.Jitter + r.cfg.TickSlop
	return real * (1 + r.cfg.Rho)
}

// Estimate implements Layer: a certified lower bound on L_v anchored at the
// common broadcast. The anchor removes all message-delay uncertainty; only
// the reception jitter is subtracted.
func (r *RBS) Estimate(u, v int) (float64, bool) {
	if r.dyn != nil && !r.dyn.Sees(u, v) {
		return 0, false
	}
	return r.EstimateAt(u, v, 0)
}

// EstimateAt implements Layer. RBS estimate edges are co-listener pairs,
// not topology links, so its samples stay keyed by its own rows and the
// directed index goes unused.
func (r *RBS) EstimateAt(u, v int, _ int32) (float64, bool) {
	// One row probe yields both the co-listener test and the sample.
	slot, ok := r.rows.Find(u, int32(v))
	if !ok || r.rbValid[slot] == 0 {
		return 0, false
	}
	rho := r.cfg.Rho
	ageHW := r.hw(u) - r.rbHwAtOwn[slot]
	if ageHW < 0 || ageHW > r.maxSampleAgeHW() {
		return 0, false
	}
	// v may have heard the broadcast up to Jitter later than u; subtracting
	// (1−ρ)(J+slop) keeps the estimate a lower bound on L_v(now).
	return r.rbLAtEvent[slot] + (1-rho)/(1+rho)*ageHW - (1-rho)*(r.cfg.Jitter+r.cfg.TickSlop), true
}

// Eps implements Layer: jitter cost both ways plus the staleness window at
// the worst-case rate gap. Note the absence of any message-delay term —
// that is the RBS advantage over the messaging layer.
func (r *RBS) Eps(u, v int) float64 {
	rho, mu := r.cfg.Rho, r.cfg.Mu
	fast := (1 + rho) * (1 + mu)
	slowAdvance := (1 - rho) * (1 - rho) / (1 + rho)
	jit := r.cfg.Jitter + r.cfg.TickSlop
	stale := r.cfg.Interval + r.cfg.ExchangeDelay + jit
	return (1-rho)*jit + fast*jit + (fast-slowAdvance)*stale
}

// Invalidate drops u's sample about v (edge loss).
func (r *RBS) Invalidate(u, v int) {
	if slot, ok := r.rows.Find(u, int32(v)); ok {
		r.rbValid[slot] = 0
	}
}

// ConcurrentQueries implements ConcurrentLayer: queries only read anchored
// samples and clocks; samples are written by broadcast events, never inside
// an integration tick.
func (r *RBS) ConcurrentQueries() bool { return true }

// CoListeners reports whether u and v share a reference source.
func (r *RBS) CoListeners(u, v int) bool {
	_, ok := r.rows.Find(u, int32(v))
	return ok
}
