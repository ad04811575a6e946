package estimate

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// invalidateLocal drops l's sample for peer, as an edge loss would: the
// reference Messaging.Invalidate is held against.
func invalidateLocal(l *LocalBeacons, peer int) {
	if i, ok := l.find(peer); ok {
		l.samples[i].valid = false
	}
}

// TestLocalBeaconsMatchesMessaging pins the node-local store to the shared
// Messaging layer: identical sample streams must yield bit-identical
// estimates, eps and staleness verdicts. This is the contract that makes
// live-mode nodes (which own a LocalBeacons each) comparable to simulator
// runs (which share one Messaging layer).
func TestLocalBeaconsMatchesMessaging(t *testing.T) {
	const n = 4
	const u = 1 // the node under test; peers 0 and 2 on a line
	link := topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}
	for _, centered := range []bool{false, true} {
		cfg := MessagingConfig{
			Rho:            0.002,
			Mu:             0.1,
			BeaconInterval: 0.25,
			TickSlop:       0.04,
			Centered:       centered,
		}
		engine := sim.NewEngine()
		rng := sim.NewRNG(42)
		dyn := topo.NewDynamic(n, engine, rng.Split())
		for _, e := range topo.Line(n) {
			if err := dyn.DeclareLink(e.U, e.V, link); err != nil {
				t.Fatal(err)
			}
			if err := dyn.AppearInstant(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		hw := make([]float64, n)
		msg := NewMessaging(n, dyn, func(i int) float64 { return hw[i] }, cfg)
		local := NewLocalBeacons(cfg, link)

		record := func(from int, lSent, minTransit float64) {
			dir, _ := dyn.Dir(u, from)
			msg.RecordBeacon(u, from, transport.Beacon{L: lSent}, transport.Delivery{Dir: dir, MinTransit: minTransit})
			local.Record(from, lSent, hw[u], minTransit)
		}
		check := func(stage string, peer int) {
			t.Helper()
			gotV, gotOK := local.Estimate(peer, hw[u])
			wantV, wantOK := msg.Estimate(u, peer)
			if gotOK != wantOK || math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("centered=%v %s: LocalBeacons.Estimate(%d)=(%v,%v), Messaging=(%v,%v)",
					centered, stage, peer, gotV, gotOK, wantV, wantOK)
			}
			dir, _ := dyn.Dir(u, peer)
			if got, want := local.Eps(), msg.Eps(dir); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("centered=%v %s: LocalBeacons.Eps()=%v, Messaging.Eps=%v", centered, stage, got, want)
			}
		}

		// No sample yet: both miss.
		check("empty", 0)

		// Fresh samples from both peers at distinct hardware times.
		hw[u] = 1.0
		record(0, 0.93, link.Delay-link.Uncertainty)
		hw[u] = 1.1
		record(2, 1.04, link.Delay-link.Uncertainty)
		hw[u] = 1.2
		check("fresh", 0)
		check("fresh", 2)

		// Aged within the certification window.
		hw[u] = 1.2 + maxSampleAgeHW(cfg, link)*0.9
		check("aged", 0)

		// Aged past the window: both must report a miss.
		hw[u] = 1.2 + maxSampleAgeHW(cfg, link)*2
		check("stale", 0)

		// Invalidation drops the sample in both layers.
		hw[u] = 1.3
		record(0, 1.21, link.Delay-link.Uncertainty)
		check("refreshed", 0)
		msg.Invalidate(u, 0)
		invalidateLocal(local, 0)
		check("invalidated", 0)
	}
}

func TestLocalBeaconsSampleCount(t *testing.T) {
	link := topo.DefaultLinkParams()
	l := NewLocalBeacons(MessagingConfig{Rho: 0.01, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04}, link)
	if l.SampleCount() != 0 {
		t.Fatalf("empty store reports %d samples", l.SampleCount())
	}
	// Out-of-order peer ids exercise the sorted-insert path.
	for _, p := range []int{5, 1, 3} {
		l.Record(p, 1, 1, 0.05)
	}
	if l.SampleCount() != 3 {
		t.Fatalf("after 3 records: %d samples", l.SampleCount())
	}
	invalidateLocal(l, 3)
	if l.SampleCount() != 2 {
		t.Fatalf("after invalidate: %d samples", l.SampleCount())
	}
	if _, ok := l.Estimate(3, 1); ok {
		t.Fatal("invalidated peer still served an estimate")
	}
	if _, ok := l.Estimate(4, 1); ok {
		t.Fatal("unknown peer served an estimate")
	}
}
