package transport_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// echo answers every delivered beacon with one back to its sender, so the
// in-flight population stays at its seeded size.
type echo struct {
	net        *transport.Network
	deliveries int
}

func (e *echo) OnBeacon(to, from int, b transport.Beacon, _ transport.Delivery) {
	e.deliveries++
	e.net.SendBeacon(to, from, b)
}

func (e *echo) OnControl(int, int, any, transport.Delivery) {}

// BenchmarkNetworkDeliver measures the transport's delivery path alone.
// Every node seeds one beacon per neighbour and every delivery is answered,
// holding the in-flight population at twice the edge count. The ring cases
// use default link parameters and random delays at EventParallelism 1. The
// star case uses maximal delays at EventParallelism 2, so every delivery
// and send happens in waves that share one deadline, and the hub's half of
// each wave lands in one shard's queue while that queue is empty. After a
// warm-up unit, each op runs the engine 0.01 units; ns/delivery is the
// figure to compare, and the op must not allocate.
func BenchmarkNetworkDeliver(b *testing.B) {
	cases := []struct {
		name   string
		edges  func(int) []topo.EdgeID
		policy transport.DelayPolicy
		k, n   int
	}{
		{"ring/inflight=3000", topo.Ring, transport.RandomDelay{}, 1, 1500},
		{"ring/inflight=30000", topo.Ring, transport.RandomDelay{}, 1, 15000},
		{"star/inflight=30000", topo.Star, transport.MaxDelay{}, 2, 15001},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			eng := sim.NewEngine()
			eng.SetEventParallelism(c.k)
			dyn := topo.NewDynamic(c.n, eng, sim.NewRNG(1))
			if err := topo.Install(dyn, c.edges(c.n), topo.DefaultLinkParams()); err != nil {
				b.Fatal(err)
			}
			// Every link has the default parameters, so the minimum transit
			// into each shard is theirs.
			p := topo.DefaultLinkParams()
			eng.SetLookahead(func(int) float64 { return p.Delay - p.Uncertainty })
			net := transport.NewNetwork(eng, dyn, sim.NewRNG(2), c.policy)
			h := &echo{net: net}
			net.SetHandler(h)
			var scratch []int
			for u := 0; u < c.n; u++ {
				scratch = net.BroadcastBeacon(u, transport.Beacon{L: float64(u)}, scratch)
			}
			eng.RunUntil(1)
			h.deliveries = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.RunUntil(eng.Now() + 0.01)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h.deliveries), "ns/delivery")
		})
	}
}
