package estimate

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// BenchmarkMessagingInvalidate pins the sparse-invalidation contract of the
// EdgeDown path: dropping one directed sample must cost a single map probe —
// O(1) in the network size (the ns/op column must stay flat as N grows
// 100 → 100k) — and allocate nothing. This is the operation churn waves and
// partitions hammer once per lost directed edge.
func BenchmarkMessagingInvalidate(b *testing.B) {
	for _, n := range []int{100, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			eng := sim.NewEngine()
			dyn := topo.NewDynamic(n, eng, sim.NewRNG(1))
			hw := make([]float64, n)
			m := NewMessaging(n, dyn, func(u int) float64 { return hw[u] }, MessagingConfig{
				Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04,
			})
			// Ring samples: every node holds beacons from both neighbors, so
			// the invalidated node's row has the degree the scale tiers see.
			// Links must be declared first — Messaging registers its sample
			// slots at declare time and drops beacons on undeclared edges.
			for u := 0; u < n; u++ {
				if err := dyn.DeclareLink(u, (u+1)%n, topo.DefaultLinkParams()); err != nil {
					b.Fatalf("declare: %v", err)
				}
			}
			for u := 0; u < n; u++ {
				for _, v := range []int{(u + 1) % n, (u + n - 1) % n} {
					m.RecordBeacon(u, v, transport.Beacon{L: 1}, transport.Delivery{MinTransit: 0.1})
				}
			}
			u := n / 2
			peers := [2]int{(u + 1) % n, (u + n - 1) % n}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Invalidate(u, peers[i&1])
			}
		})
	}
}
