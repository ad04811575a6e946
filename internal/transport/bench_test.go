package transport

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// echo answers every delivered beacon with one back to its sender, so the
// in-flight population stays at its seeded size.
type echo struct {
	net        *Network
	deliveries int
}

func (e *echo) OnBeacon(to, from int, b Beacon, _ Delivery) {
	e.deliveries++
	sendOne(e.net, to, from, b)
}

func (e *echo) OnControl(int, int, any, Delivery) {}

// deliverCase is one set-up of BenchmarkNetworkDeliver.
type deliverCase struct {
	name   string
	edges  func(int) []topo.EdgeID
	policy DelayPolicy
	k, n   int
}

// deliverCases are the ring cases, with default link parameters and random
// delays at EventParallelism 1, and the star case, with maximal delays at
// EventParallelism 2, so every delivery and send happens in waves that share
// one deadline, and the hub's half of each wave lands in one shard's queue
// while that queue is empty.
var deliverCases = []deliverCase{
	{"ring/inflight=3000", topo.Ring, RandomDelay{}, 1, 1500},
	{"ring/inflight=30000", topo.Ring, RandomDelay{}, 1, 15000},
	{"star/inflight=30000", topo.Star, MaxDelay{}, 2, 15001},
}

// warm builds the case's network, seeds one beacon per neighbour from every
// node and runs a warm-up unit. Every delivery is answered, holding the
// in-flight population at twice the edge count.
func (c deliverCase) warm(tb testing.TB) (*sim.Engine, *echo) {
	tb.Helper()
	eng := sim.NewEngine()
	eng.SetEventParallelism(c.k)
	dyn := topo.NewDynamic(c.n, eng, sim.NewRNG(1))
	install(tb, dyn, c.edges(c.n), topo.DefaultLinkParams())
	// Every link has the default parameters, so the minimum transit into
	// each shard is theirs.
	p := topo.DefaultLinkParams()
	eng.SetLookahead(func() float64 { return p.Delay - p.Uncertainty })
	net := NewNetwork(eng, dyn, sim.NewRNG(2), c.policy)
	h := &echo{net: net}
	net.SetHandler(h)
	for u := 0; u < c.n; u++ {
		net.BroadcastBeaconAt(u, Beacon{L: float64(u)}, eng.Now())
	}
	eng.RunUntil(1)
	h.deliveries = 0
	return eng, h
}

// BenchmarkNetworkDeliver measures the transport's delivery path alone on
// deliverCases. After the warm-up unit, each op runs the engine 0.01 units;
// ns/delivery is the figure to compare, and the op must not allocate
// (TestNetworkDeliverNoAllocs holds the ring cases to that).
func BenchmarkNetworkDeliver(b *testing.B) {
	for _, c := range deliverCases {
		b.Run(c.name, func(b *testing.B) {
			eng, h := c.warm(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.RunUntil(eng.Now() + 0.01)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h.deliveries), "ns/delivery")
		})
	}
}

// TestNetworkDeliverNoAllocs fails on any allocation in 20 warmed ops of
// each ring case of BenchmarkNetworkDeliver. AllocsPerRun divides its count
// by the runs, so it runs the 20 ops as one.
func TestNetworkDeliverNoAllocs(t *testing.T) {
	for _, c := range deliverCases[:2] {
		eng, h := c.warm(t)
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 20; i++ {
				eng.RunUntil(eng.Now() + 0.01)
			}
		})
		if allocs != 0 || h.deliveries == 0 {
			t.Errorf("%s: %v allocations over %d deliveries, want 0 over some", c.name, allocs, h.deliveries)
		}
	}
}
