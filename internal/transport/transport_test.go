package transport

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topo"
)

func params() topo.LinkParams {
	return topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.2, Uncertainty: 0.1}
}

type capture struct {
	beacons  []Delivery
	controls []Delivery
	payloads []any
	values   []Beacon
}

func (c *capture) OnBeacon(to, from int, b Beacon, d Delivery) {
	c.beacons = append(c.beacons, d)
	c.values = append(c.values, b)
}

func (c *capture) OnControl(to, from int, payload any, d Delivery) {
	c.controls = append(c.controls, d)
	c.payloads = append(c.payloads, payload)
}

// install declares every edge with p and makes it visible instantly.
func install(tb testing.TB, d *topo.Dynamic, edges []topo.EdgeID, p topo.LinkParams) {
	tb.Helper()
	for _, e := range edges {
		if err := d.DeclareLink(e.U, e.V, p); err != nil {
			tb.Fatal(err)
		}
		if err := d.AppearInstant(e.U, e.V); err != nil {
			tb.Fatal(err)
		}
	}
}

// sendOne transmits a beacon from → to if the link is declared, stamped at
// the engine's current time: a one-peer send for tests that address a
// single receiver.
func sendOne(n *Network, from, to int, b Beacon) {
	if dir, ok := n.dyn.Dir(from, to); ok {
		n.sendBeacon(from, to, dir, b, n.engine.Now())
	}
}

func setup(t *testing.T, policy DelayPolicy) (*sim.Engine, *topo.Dynamic, *Network, *capture) {
	t.Helper()
	eng := sim.NewEngine()
	d := topo.NewDynamic(3, eng, sim.NewRNG(1))
	install(t, d, topo.Line(3), params())
	net := NewNetwork(eng, d, sim.NewRNG(2), policy)
	cap := &capture{}
	net.SetHandler(cap)
	return eng, d, net, cap
}

func TestBeaconDeliveredWithinWindow(t *testing.T) {
	eng, _, net, cap := setup(t, RandomDelay{})
	sent := eng.Now()
	sendOne(net, 0, 1, Beacon{L: 5, M: 6})
	eng.RunUntil(1)
	if len(cap.beacons) != 1 {
		t.Fatalf("delivered %d beacons, want 1", len(cap.beacons))
	}
	d := cap.beacons[0]
	transit := d.At - sent
	p := params()
	if transit < p.Delay-p.Uncertainty-1e-12 || transit > p.Delay+1e-12 {
		t.Errorf("transit %v outside legal window [%v, %v]", transit, p.Delay-p.Uncertainty, p.Delay)
	}
	if d.MinTransit != p.Delay-p.Uncertainty {
		t.Errorf("MinTransit = %v, want %v", d.MinTransit, p.Delay-p.Uncertainty)
	}
	if cap.values[0].L != 5 || cap.values[0].M != 6 {
		t.Errorf("beacon payload corrupted: %+v", cap.values[0])
	}
}

func TestControlPayloadRoundTrip(t *testing.T) {
	eng, _, net, cap := setup(t, MaxDelay{})
	type msg struct{ X int }
	net.SendControl(1, 2, msg{X: 42})
	eng.RunUntil(1)
	if len(cap.controls) != 1 {
		t.Fatalf("delivered %d controls, want 1", len(cap.controls))
	}
	got, ok := cap.payloads[0].(msg)
	if !ok || got.X != 42 {
		t.Fatalf("payload = %#v, want msg{42}", cap.payloads[0])
	}
}

func TestNoDeliveryToInvisibleReceiver(t *testing.T) {
	eng, dyn, net, cap := setup(t, MaxDelay{})
	sendOne(net, 0, 1, Beacon{})
	// Edge goes down before the delivery time; receiver must not get it.
	if err := dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1)
	if len(cap.beacons) != 0 {
		t.Fatalf("beacon delivered over dead edge")
	}
	if net.Dropped() == 0 {
		t.Error("drop not counted")
	}
}

func TestSendOnUndeclaredLinkIsNoop(t *testing.T) {
	eng, _, net, cap := setup(t, MaxDelay{})
	net.SendControl(0, 2, 1) // 0–2 not a line edge
	eng.RunUntil(1)
	if len(cap.controls) != 0 || net.Sent() != 0 {
		t.Fatal("message sent over undeclared link")
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	eng, _, net, cap := setup(t, MinDelay{})
	net.BroadcastBeaconAt(1, Beacon{L: 1}, eng.Now())
	eng.RunUntil(1)
	if len(cap.beacons) != 2 {
		t.Fatalf("broadcast delivered %d beacons, want 2", len(cap.beacons))
	}
	tos := map[int]bool{}
	for _, d := range cap.beacons {
		tos[d.To] = true
	}
	if !tos[0] || !tos[2] {
		t.Fatalf("broadcast targets = %v, want {0,2}", tos)
	}
}

func TestDelayPolicies(t *testing.T) {
	p := params()
	stream := sim.NewStream(3, 0)
	tests := []struct {
		name   string
		policy DelayPolicy
		from   int
		to     int
		want   float64
	}{
		{"max", MaxDelay{}, 0, 1, p.Delay},
		{"min", MinDelay{}, 0, 1, p.Delay - p.Uncertainty},
		{"shift toward high is fast", ShiftDelay{}, 0, 1, p.Delay - p.Uncertainty},
		{"shift toward low is slow", ShiftDelay{}, 1, 0, p.Delay},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Draw(&stream, tc.from, tc.to, p); got != tc.want {
				t.Errorf("Draw = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestRandomDelayWithinWindowProperty(t *testing.T) {
	f := func(seed int64, delayRaw, uncRaw uint8) bool {
		p := topo.LinkParams{
			Eps:   0.1,
			Delay: float64(delayRaw%50+1) / 100,
		}
		p.Uncertainty = p.Delay * float64(uncRaw%101) / 100
		s := sim.NewStream(uint64(seed), 0)
		d := (RandomDelay{}).Draw(&s, 0, 1, p)
		return d >= p.Delay-p.Uncertainty-1e-12 && d <= p.Delay+1e-12
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSameDeadlineFIFO pins the dispatch contract: messages drawn to the
// same delivery deadline (MaxDelay makes every delay identical) deliver in
// send order, even though one dispatch event drains them all.
func TestSameDeadlineFIFO(t *testing.T) {
	eng, _, net, cap := setup(t, MaxDelay{})
	for i := 0; i < 8; i++ {
		net.SendControl(0, 1, i)
	}
	sendOne(net, 0, 1, Beacon{L: 42})
	eng.RunUntil(1)
	if len(cap.payloads) != 8 || len(cap.values) != 1 {
		t.Fatalf("delivered %d controls and %d beacons, want 8 and 1", len(cap.payloads), len(cap.values))
	}
	for i, p := range cap.payloads {
		if p.(int) != i {
			t.Fatalf("same-deadline deliveries out of send order: %v", cap.payloads)
		}
	}
}

// TestMessagePoolRecycles checks the in-flight record pools: sustained
// traffic must not grow the beacon or control slabs beyond the peak
// in-flight population, and recycled records must not leak payloads across
// messages — a control record is zeroed when it is popped, so no free slot
// holds a payload reference.
func TestMessagePoolRecycles(t *testing.T) {
	eng, _, net, cap := setup(t, MaxDelay{})
	for round := 0; round < 500; round++ {
		net.SendControl(0, 1, round)
		sendOne(net, 1, 0, Beacon{L: float64(round)})
		eng.RunUntil(eng.Now() + 1)
	}
	beaconSlab, ctlSlab := 0, 0
	for s := range net.shards {
		beaconSlab += len(net.shards[s].q.recs)
		ctlSlab += len(net.ctls[s].recs)
	}
	if beaconSlab > 8 || ctlSlab > 8 {
		t.Fatalf("slabs grew to %d beacon / %d control records for ≤2 in-flight messages — pool not recycling",
			beaconSlab, ctlSlab)
	}
	if len(cap.payloads) != 500 || len(cap.values) != 500 {
		t.Fatalf("delivered %d controls / %d beacons, want 500 each", len(cap.payloads), len(cap.values))
	}
	for i, p := range cap.payloads {
		if p.(int) != i {
			t.Fatalf("payload %d = %v (recycled record aliased another message)", i, p)
		}
	}
	for s := range net.ctls {
		for slot, r := range net.ctls[s].recs {
			if r.payload != nil {
				t.Fatalf("free control record %d still holds a payload reference", slot)
			}
		}
	}
}

// TestNetShardFillsCacheLines keeps adjacent shards off each other's cache
// lines: during a window every shard pops its queue and bumps its counters
// concurrently, and a shard size off a multiple of 64 B makes neighbours
// false-share.
func TestNetShardFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(netShard{}); size%64 != 0 {
		t.Fatalf("netShard is %d B, want a multiple of 64", size)
	}
}

// TestRecordSize pins an in-flight record of either class at 48 bytes: the
// in-flight slabs are a top-line memory consumer, so a field added to the
// record, such as the send time no receiver may read, grows every one. The
// beacon path's other per-entry records are pinned beside their types:
// estimate's 16-byte sample and core's 24-byte node clock.
func TestRecordSize(t *testing.T) {
	if b, c := unsafe.Sizeof(record[Beacon]{}), unsafe.Sizeof(record[any]{}); b != 48 || c != 48 {
		t.Fatalf("record[Beacon] is %d B and record[any] %d B, want 48", b, c)
	}
}

// indexCheck checks every delivery's carried index against a fresh lookup of
// the pair, and answers a beacon with L hops left with one of L−1, so at
// EventParallelism 2 some sends are staged cross-shard inside windows.
type indexCheck struct {
	t         *testing.T
	net       *Network
	dyn       *topo.Dynamic
	delivered atomic.Uint64
}

func (c *indexCheck) check(kind string, to, from int, d Delivery) {
	c.delivered.Add(1)
	dir, ok := c.dyn.Dir(to, from)
	if !ok || d.Dir != dir || !c.dyn.Sees(to, from) || d.To != to || d.From != from {
		c.t.Errorf("%s %d → %d at %v carries index %d: Dir = (%d, %v), Sees = %v",
			kind, from, to, d.At, d.Dir, dir, ok, c.dyn.Sees(to, from))
	}
}

func (c *indexCheck) OnBeacon(to, from int, b Beacon, d Delivery) {
	c.check("beacon", to, from, d)
	if b.L > 0 {
		sendOne(c.net, to, from, Beacon{L: b.L - 1})
	}
}

func (c *indexCheck) OnControl(to, from int, _ any, d Delivery) { c.check("control", to, from, d) }

// TestCarriedIndexUnderChurn flaps links with a detection delay τ > 0 while
// beacons and controls are in flight, so links change visibility at each end
// at different times between send and delivery, and links down for long
// enough are forgotten and declared again into freed slots. Every delivery
// must carry the receiver's directed index of (to, from) and reach a
// receiver that sees the sender, and every send must be delivered, dropped
// or still pending.
func TestCarriedIndexUnderChurn(t *testing.T) {
	const n = 16
	p := topo.LinkParams{Eps: 0.2, Tau: 0.15, Delay: 0.2, Uncertainty: 0.1}
	edges := topo.Ring(n)
	for u := 0; u < n; u += 3 {
		edges = append(edges, topo.MakeEdgeID(u, (u+n/2)%n))
	}
	for _, k := range []int{1, 2} {
		eng := sim.NewEngine()
		eng.SetEventParallelism(k)
		dyn := topo.NewDynamic(n, eng, sim.NewRNG(3))
		install(t, dyn, edges, p)
		eng.SetLookahead(func() float64 { return p.Delay - p.Uncertainty })
		net := NewNetwork(eng, dyn, sim.NewRNG(4), RandomDelay{})
		c := &indexCheck{t: t, net: net, dyn: dyn}
		net.SetHandler(c)
		rng := sim.NewRNG(5)
		for step := 0; step < 300; step++ {
			net.BroadcastBeaconAt(rng.Intn(n), Beacon{L: 3}, eng.Now())
			e := edges[rng.Intn(len(edges))]
			net.SendControl(e.V, e.U, step)
			e = edges[rng.Intn(len(edges))]
			var err error
			if dyn.Sees(e.U, e.V) || dyn.Sees(e.V, e.U) {
				err = dyn.Disappear(e.U, e.V)
			} else {
				if _, declared := dyn.Params(e.U, e.V); !declared {
					err = dyn.DeclareLink(e.U, e.V, p) // forgotten while down
				}
				if err == nil {
					err = dyn.Appear(e.U, e.V)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(eng.Now() + 0.03)
			pending := uint64(0)
			for s := range net.shards {
				pending += uint64(net.shards[s].q.n + net.ctls[s].n)
			}
			if got, want := net.Sent(), c.delivered.Load()+net.Dropped()+pending; got != want {
				t.Fatalf("k=%d step %d: sent %d, delivered + dropped + pending = %d", k, step, got, want)
			}
		}
		if net.Dropped() == 0 || c.delivered.Load() == 0 {
			t.Fatalf("k=%d: %d delivered and %d dropped, want some of each", k, c.delivered.Load(), net.Dropped())
		}
	}
}

// TestSlotReuseAtQuarantineEdge churns links so that new pairs take the
// slots of forgotten ones while the cut pairs' beacons and controls are
// still in flight. Links have τ = 0, so a cut takes both sides down at
// once, and every message takes exactly Delay (MaxDelay). A step every
// Delay/4 sends beacons and controls both ways over a live link, cuts it,
// and declares and shows a new pair in its place; it also sends live
// traffic, a broadcast from a random node and a control over a random
// link. Four steps after a cut, at the cut plus exactly Delay, the cut
// link's messages are due, and that step's declare runs just before them
// (global events fire first), at the edge of the cut link's quarantine:
// the slot it may reuse is an older one. Every delivery must carry its
// receiver's directed index of (To, From) and reach a receiver that sees
// the sender, at EventParallelism 1 and 2; each cut link's messages are
// dropped, and the slots stay within the links live or in quarantine.
func TestSlotReuseAtQuarantineEdge(t *testing.T) {
	const n, live, steps = 24, 16, 400
	p := topo.LinkParams{Eps: 0.2, Tau: 0, Delay: 0.25, Uncertainty: 0.125}
	step := p.Delay / 4
	for _, k := range []int{1, 2} {
		eng := sim.NewEngine()
		eng.SetEventParallelism(k)
		dyn := topo.NewDynamic(n, eng, sim.NewRNG(3))
		eng.SetLookahead(dyn.MinTransit)
		net := NewNetwork(eng, dyn, sim.NewRNG(4), MaxDelay{})
		c := &indexCheck{t: t, net: net, dyn: dyn}
		net.SetHandler(c)
		rng := sim.NewRNG(9)
		fresh := func() []topo.EdgeID { // one pair with no link
			for {
				u, v := rng.Intn(n), rng.Intn(n)
				if _, declared := dyn.Params(u, v); u != v && !declared {
					return []topo.EdgeID{topo.MakeEdgeID(u, v)}
				}
			}
		}
		links := make([]topo.EdgeID, 0, live)
		for len(links) < live {
			e := fresh()
			install(t, dyn, e, p)
			links = append(links, e[0])
		}
		for i := 1; i <= steps; i++ {
			eng.Schedule(float64(i)*step, func(sim.Time) {
				j := rng.Intn(live)
				e := links[j]
				sendOne(net, e.U, e.V, Beacon{})
				sendOne(net, e.V, e.U, Beacon{})
				net.SendControl(e.U, e.V, i)
				net.SendControl(e.V, e.U, i)
				if err := dyn.Disappear(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				add := fresh()
				install(t, dyn, add, p)
				links[j] = add[0]
				net.BroadcastBeaconAt(rng.Intn(n), Beacon{}, eng.Now())
				e = links[rng.Intn(live)]
				net.SendControl(e.V, e.U, -i)
			})
		}
		eng.RunUntil(float64(steps+8) * step)
		if got, want := net.Sent(), c.delivered.Load()+net.Dropped(); got != want {
			t.Fatalf("k=%d: sent %d, delivered + dropped = %d", k, got, want)
		}
		if c.delivered.Load() == 0 || net.Dropped() < 4*steps {
			t.Fatalf("k=%d: %d delivered and %d dropped, want some and at least the %d sent over cut links",
				k, c.delivered.Load(), net.Dropped(), 4*steps)
		}
		// Each step cuts one link, and a cut link's slot is free five steps
		// later: live links plus at most five in quarantine.
		if slots := dyn.DirCap() / 2; slots > live+5 {
			t.Fatalf("k=%d: %d slots for %d links declared, at most %d live or in quarantine", k, slots, live+steps, live+5)
		}
	}
}
