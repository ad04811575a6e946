// RBS: reference-broadcast synchronization (Elson, Girod, Estrin — cited in
// the paper's §3.1). The estimate graph is *not* the communication graph:
// nodes that hear the same reference broadcast obtain estimate edges whose
// uncertainty depends only on reception jitter, not on message delays. This
// example runs AOPT over RBS-derived estimate edges and compares the error
// budget with the message-exchange layer on the same radio.
//
// It uses internal packages (the public facade keeps uniform message-based
// links); as an in-module example that is intended.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/topo"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rbs:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const (
		n   = 7
		rho = 0.1 / 60
		mu  = 0.1
	)
	// Two broadcast domains sharing node 3: {0..3} and {3..6}.
	groups := [][]int{{0, 1, 2, 3}, {3, 4, 5, 6}}

	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift: drift.TwoGroup{Rho: rho, Split: 3},
		Delay: transport.RandomDelay{},
		Seed:  21,
	})
	if err != nil {
		return err
	}

	// A noisy radio: large delay uncertainty, which would dominate the
	// message-exchange estimate error.
	radio := topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.5, Uncertainty: 0.4}
	// Estimate edges: all co-listener pairs.
	seen := map[topo.EdgeID]bool{}
	for _, g := range groups {
		for _, u := range g {
			for _, v := range g {
				id := topo.MakeEdgeID(u, v)
				if u < v && !seen[id] {
					seen[id] = true
					if err := rt.Dyn.DeclareLink(u, v, radio); err != nil {
						return err
					}
				}
			}
		}
	}

	algo := core.MustNew(core.Params{Rho: rho, Mu: mu, GTilde: 3})
	rbs, err := estimate.NewRBS(n, rt.Engine, rt.Dyn, rt.RNG.Split(),
		rt.Hardware, func(u int) float64 { return algo.Logical(u) },
		groups, estimate.RBSConfig{
			Rho: rho, Mu: mu,
			Jitter: 0.01, Interval: 0.5, ExchangeDelay: 0.1,
			TickSlop: 0.04,
		})
	if err != nil {
		return err
	}
	rt.SetEstimator(rbs)
	rt.Attach(algo)
	for id := range seen {
		if err := rt.Dyn.AppearInstant(id.U, id.V); err != nil {
			return err
		}
	}
	rbs.Start()
	if err := rt.Start(); err != nil {
		return err
	}

	// What the message layer would certify on this radio, for contrast.
	msg := estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
		Rho: rho, Mu: mu, BeaconInterval: 0.25, TickSlop: 0.04, Centered: true,
	})
	dir, ok := rt.Dyn.Dir(0, 1)
	if !ok {
		return fmt.Errorf("rbs: nodes 0 and 1 share no link")
	}
	msgEps, rbsEps := msg.Eps(dir), rbs.Eps(dir)
	fmt.Fprintf(w, "radio with delay 0.5±0.4: messaging ε = %.3f, RBS ε = %.3f (%.1f× tighter)\n",
		msgEps, rbsEps, msgEps/rbsEps)
	fmt.Fprintf(w, "resulting edge weight κ: messaging %.3f vs RBS %.3f\n\n",
		1.1*4*(msgEps+mu*radio.Tau), algo.EdgeKappa(0, 1))

	fmt.Fprintf(w, "%8s %12s %14s\n", "t", "globalSkew", "worstPairSkew")
	for i := 0; i < 6; i++ {
		rt.Run(rt.Engine.Now() + 50)
		worst, spread := 0.0, 0.0
		lo, hi := algo.Logical(0), algo.Logical(0)
		for u := 0; u < n; u++ {
			l := algo.Logical(u)
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		spread = hi - lo
		for id := range seen {
			s := algo.Logical(id.U) - algo.Logical(id.V)
			if s < 0 {
				s = -s
			}
			if s > worst {
				worst = s
			}
		}
		fmt.Fprintf(w, "%8.0f %12.4f %14.4f\n", rt.Engine.Now(), spread, worst)
	}
	fmt.Fprintf(w, "\nbroadcasts emitted: %d; trigger conflicts: %d\n", rbs.Broadcasts, algo.TriggerConflicts)
	fmt.Fprintln(w, "estimate edges exist wherever nodes hear a common reference — no direct link required (§3.1)")
	return nil
}
