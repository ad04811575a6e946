package experiments

import (
	"runtime"

	gradsync "repro"
	"repro/internal/metrics"
)

// scaleCase is one cell of a scale tier (E15, E16): a topology family at
// the largest size the substrate is asked to carry, with a live scenario
// running so the dynamic-network machinery (handshakes, insertions,
// estimate invalidation) is exercised at scale rather than idling.
type scaleCase struct {
	name string
	n    int
	// build returns the topology, its hop diameter for DiameterHint (0 =
	// let the network derive it by BFS; an over-estimate is safe, see
	// gradsync.Config), and the scenario plus an event-count accessor.
	build func() (gradsync.Topology, int, gradsync.Scenario, func() (int, error))
	// checkDistances lists the hop distances whose pair skews are held
	// against the Corollary 7.10 gradient bound; pairFor maps a sample
	// index and distance to a node pair at (at most) that hop distance.
	checkDistances []int
	pairFor        func(sample, d int) (int, int)
	// connected marks cases whose graph provably stays connected, so the
	// global skew is held against G̃ throughout.
	connected bool
	// horizon, when positive, overrides the tier horizon for this case —
	// the N=10⁶ rung runs a shorter window so the nightly budget holds.
	horizon float64
}

// runScaleTier is the shared runner behind the scale tiers: every case runs
// its live scenario for horizon time units while a sampler holds the global
// skew and the distance ladder against the Corollary 7.10 bounds. Rows land
// in r.Table; the "ring" case's ladder becomes r.Table2. tierID feeds the
// per-case seed streams, keeping each tier's adversary draws distinct.
//
// Only deterministic cells are recorded: tier reports must be byte-identical
// across -parallel values and repeated runs, so wall-clock throughput lives
// in the Runtime benchmarks (make bench-json / bench-large), never here.
func runScaleTier(r *Result, spec Spec, tierID int64, tierTitle string, horizon float64, cases []scaleCase) {
	r.Table = metrics.NewTable(tierTitle,
		"topology", "N", "scenarioEv", "events", "maxGlobal", "G̃", "worstRatio")
	var ringRows [][2]float64 // measured, bound — for the distance ladder table
	var ringDist []int
	for ci, c := range cases {
		caseHorizon := horizon
		if c.horizon > 0 {
			caseHorizon = c.horizon
		}
		topology, diam, sc, report := c.build()
		net := gradsync.MustNew(gradsync.Config{
			Topology:     topology,
			DiameterHint: diam,
			Drift:        gradsync.TwoGroupDrift(c.n / 2),
			Scenario:     sc,
			// The scale tiers run the sharded tick and the sharded event
			// drain by default (NumCPU): they exist to prove the substrate
			// carries these N, and both fan-outs are byte-identical for
			// every shard count, so the reports stay machine-independent.
			TickParallelism:  spec.TickShards(),
			EventParallelism: spec.EventShards(),
			Seed:             spec.SeedFor(tierID, int64(ci)),
		})

		maxGlobal := 0.0
		worst := make([]float64, len(c.checkDistances))
		const samplesPerDist = 48
		net.Every(caseHorizon/8, func(float64) {
			if g := net.GlobalSkew(); g > maxGlobal {
				maxGlobal = g
			}
			for di, d := range c.checkDistances {
				for s := 0; s < samplesPerDist; s++ {
					u, v := c.pairFor(s, d)
					if skew := net.SkewBetween(u, v); skew > worst[di] {
						worst[di] = skew
					}
				}
			}
		})
		net.RunFor(caseHorizon)
		events := net.Runtime().Engine.Stepped

		scEvents, scErr := report()
		r.assert(scErr == nil, "%s: scenario error: %v", c.name, scErr)
		r.assert(scEvents > 0, "%s: scenario produced no events", c.name)

		worstRatio := 0.0
		for di, d := range c.checkDistances {
			if ratio := worst[di] / net.GradientBoundHops(d); ratio > worstRatio {
				worstRatio = ratio
			}
		}
		r.assert(worstRatio <= 1, "%s: gradient violation along distance ladder (worst ratio %.3f)", c.name, worstRatio)
		if c.connected {
			r.assert(maxGlobal <= net.GTilde(), "%s: global skew %.3f exceeded G̃ %.3f", c.name, maxGlobal, net.GTilde())
		}
		r.Table.AddRow(c.name, c.n, scEvents, events, maxGlobal, net.GTilde(), worstRatio)

		// Memory footer: the live heap with the whole network still
		// reachable, after a forced collection. Machine- and
		// process-dependent, so it lands in MemNotes (excluded from the
		// deterministic report body) — the per-node figure is the tracking
		// metric for the structure-of-arrays memory diet.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.MemNotef("%s: N=%d live heap %.1f MiB (%.0f B/node)",
			c.name, c.n, float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapAlloc)/float64(c.n))
		// Drain footer: how well the sharded event drain batched. Window
		// counts depend on the shard count (NumCPU by default), so like the
		// heap figures this is machine-dependent and stays out of the
		// deterministic report body.
		ds := net.Runtime().Engine.DrainStats()
		r.MemNotef("%s: drain windows %d (inline %d) mean events/window %.1f serial %d crossed ticks %d trunc global/control/lookahead %d/%d/%d",
			c.name, ds.Windows, ds.InlineWindows, ds.MeanEventsPerWindow(), ds.SerialSteps, ds.CrossedTicks,
			ds.TruncGlobal, ds.TruncControl, ds.TruncLookahead)
		runtime.KeepAlive(net)

		if c.name == "ring" {
			ringDist = c.checkDistances
			for di, d := range c.checkDistances {
				ringRows = append(ringRows, [2]float64{worst[di], net.GradientBoundHops(d)})
			}
		}
	}

	r.Table2 = metrics.NewTable("ring: local skew vs hop distance (Cor 7.10 ladder)",
		"d", "maxSkew", "bound", "ratio")
	for i, d := range ringDist {
		measured, bound := ringRows[i][0], ringRows[i][1]
		r.Table2.AddRow(d, measured, bound, measured/bound)
	}
}
