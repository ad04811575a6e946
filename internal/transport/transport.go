// Package transport delivers messages over the dynamic estimate graph with
// bounded, adversary-controlled delays. Two kinds of traffic exist in the
// reproduced system: periodic beacons (carrying logical-clock values and max
// estimates, Section 4.2) and explicit control messages (the edge-insertion
// handshake of Listing 1).
package transport

import (
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Beacon is the periodic synchronization message. L and M are the sender's
// logical clock and max estimate at send time.
type Beacon struct {
	L float64
	M float64
}

// Delivery carries the metadata a receiver may legitimately use: when the
// message arrived and the certified minimum transit time (Delay−Uncertainty
// for the edge). The actual delay is intentionally not exposed. Dir is the
// receiver's directed index of (To, From) (topo.Dynamic.Dir), resolved when
// the message was sent, so the receiver's index-keyed state needs no lookup.
type Delivery struct {
	From, To   int
	Dir        int32
	SentAt     sim.Time
	At         sim.Time
	MinTransit float64
}

// Handler receives delivered traffic.
type Handler interface {
	OnBeacon(to, from int, b Beacon, d Delivery)
	OnControl(to, from int, payload any, d Delivery)
}

// DelayPolicy chooses the transit time of each message within the edge's
// legal window [Delay−Uncertainty, Delay]. Implementations act as the delay
// adversary. Random draws come from s, the sender's private SplitMix64
// stream: giving each sender its own stream makes a node's delay sequence a
// function of its identity and send count alone, independent of how sends
// of different nodes interleave — the property the sharded event drain
// needs to stay bit-identical to the serial engine at any shard count.
type DelayPolicy interface {
	Draw(s *sim.Stream, from, to int, p topo.LinkParams) float64
}

// RandomDelay draws uniformly from the legal window.
type RandomDelay struct{}

// Draw implements DelayPolicy.
func (RandomDelay) Draw(s *sim.Stream, _, _ int, p topo.LinkParams) float64 {
	if p.Uncertainty <= 0 || s == nil {
		return p.Delay
	}
	return s.Uniform(p.Delay-p.Uncertainty, p.Delay)
}

// MaxDelay always uses the maximum delay.
type MaxDelay struct{}

// Draw implements DelayPolicy.
func (MaxDelay) Draw(_ *sim.Stream, _, _ int, p topo.LinkParams) float64 { return p.Delay }

// MinDelay always uses the minimum delay.
type MinDelay struct{}

// Draw implements DelayPolicy.
func (MinDelay) Draw(_ *sim.Stream, _, _ int, p topo.LinkParams) float64 {
	return p.Delay - p.Uncertainty
}

// ShiftDelay is the classic shifting adversary: messages travelling towards
// higher node ids get minimum delay, messages towards lower ids get maximum
// delay (or the reverse if TowardLow is set). Combined with a matching drift
// schedule this hides accumulated skew from the algorithm, which is how the
// Section 8 lower-bound execution is realized operationally.
type ShiftDelay struct {
	TowardLow bool
}

// Draw implements DelayPolicy.
func (s ShiftDelay) Draw(_ *sim.Stream, from, to int, p topo.LinkParams) float64 {
	towardHigh := to > from
	if towardHigh != s.TowardLow {
		return p.Delay - p.Uncertainty
	}
	return p.Delay
}

// netShard owns the in-flight beacons addressed to the receivers it is
// keyed to (shard = receiver mod K). During a parallel window only the
// owning shard pops its queue; sends whose receiver lives on another shard
// are staged in out[recvShard] and folded at the window barrier, so cell
// (g, s) of the outbox matrix is written only by shard g in the drain phase
// and read only by shard s in the flush phase — never both at once. Shards
// pop and count concurrently, so the struct is padded to whole cache lines
// (256 B; TestNetShardFillsCacheLines holds it to a multiple of 64).
type netShard struct {
	q             deadlineQueue[Beacon]
	out           [][]record[Beacon]
	sent, dropped uint64
	_             [40]byte
}

// Network schedules deliveries over a dynamic graph. A message is delivered
// only if the receiver still sees the sender at delivery time; this matches
// the model's guarantee that delivery is assured only while the estimate
// edge persists at the receiver.
//
// Beacons — the high-volume traffic — live in per-shard pooled deadline
// queues registered with the engine as a sim.Source, which is what the
// sharded event drain parallelizes. Control messages (handshake-rate) live
// in their own receiver-sharded pooled queues registered as a *serial*
// source (sim.Engine.AddSerialSource): their handlers need serial-context
// rights — they schedule global retry timers and read cross-shard skew
// state — so each control fires one at a time at its own timestamp, but a
// pending control no longer truncates parallel windows; the engine clamps
// the post-window clock back to it instead. Delivery order at equal
// deadlines is the content key (deadline, to, from, sender-seq) for both
// classes — deterministic and independent of the shard count — with beacons
// due at the same instant delivered before controls (source registration
// order) and global events before either.
type Network struct {
	engine  *sim.Engine
	dyn     *topo.Dynamic
	policy  DelayPolicy
	handler Handler

	shards []netShard
	// streams holds each sender's private delay-draw stream; senderSeq and
	// ctlSeq its beacon and control send counters (separate streams keep
	// each class's content keys dense and self-contained). All are indexed
	// by sender and touched only from the sender's own event context.
	streams   []sim.Stream
	senderSeq []uint32
	ctlSeq    []uint32

	// ctls are the receiver-sharded control queues, drained through the
	// controlQueue serial source.
	ctls []deadlineQueue[any]
}

// NewNetwork wires a transport over the given graph and registers it as an
// event source with the engine (sized to the engine's EventShards; set
// EventParallelism before building the network). handler may be set later
// with SetHandler. rng seeds the per-sender delay streams.
func NewNetwork(engine *sim.Engine, dyn *topo.Dynamic, rng *sim.RNG, policy DelayPolicy) *Network {
	if policy == nil {
		policy = RandomDelay{}
	}
	n := &Network{engine: engine, dyn: dyn, policy: policy}
	k := engine.EventShards()
	n.shards = make([]netShard, k)
	for s := range n.shards {
		n.shards[s].out = make([][]record[Beacon], k)
	}
	base := rng.Uint64()
	n.streams = make([]sim.Stream, dyn.N())
	for u := range n.streams {
		n.streams[u] = sim.NewStream(base, u)
	}
	n.senderSeq = make([]uint32, dyn.N())
	n.ctlSeq = make([]uint32, dyn.N())
	n.ctls = make([]deadlineQueue[any], k)
	engine.AddSource(n)
	engine.AddSerialSource((*controlQueue)(n))
	return n
}

// SetHandler installs the traffic handler.
func (n *Network) SetHandler(h Handler) { n.handler = h }

// Sent returns the number of messages handed to the transport (diagnostic).
func (n *Network) Sent() uint64 {
	var sum uint64
	for s := range n.shards {
		sum += n.shards[s].sent
	}
	return sum
}

// Dropped returns the number of messages dropped because the receiver no
// longer saw the sender at delivery time (diagnostic).
func (n *Network) Dropped() uint64 {
	var sum uint64
	for s := range n.shards {
		sum += n.shards[s].dropped
	}
	return sum
}

// SlabBytes returns the bytes retained by the transport's pooled storage:
// beacon and control queues (slabs, runs and bucket rings) and outboxes,
// plus the per-sender streams and sequence counters. Capacities follow
// deterministic traffic, so for a fixed configuration the figure is exact
// and reproducible — the transport's line in the memory-diet regression gate
// (TestTransportSlabFootprintRing), complementing the whole-process live-heap
// measurement.
func (n *Network) SlabBytes() uint64 {
	total := uint64(0)
	for s := range n.shards {
		sh := &n.shards[s]
		total += sh.q.bytes()
		for d := range sh.out {
			total += uint64(cap(sh.out[d])) * uint64(unsafe.Sizeof(record[Beacon]{}))
		}
		total += n.ctls[s].bytes()
	}
	total += uint64(len(n.streams)) * uint64(unsafe.Sizeof(sim.Stream{}))
	total += uint64(cap(n.senderSeq)+cap(n.ctlSeq)) * 4
	return total
}

// SendBeacon transmits a beacon from → to if the link is declared, stamped
// at the current engine time. Delivery happens after the drawn delay,
// provided the receiver sees the sender then.
func (n *Network) SendBeacon(from, to int, b Beacon) {
	if dir, ok := n.dyn.Dir(from, to); ok {
		n.sendBeacon(from, to, dir, b, n.engine.Now())
	}
}

// transit draws the delay of a send over the link with directed index dir
// of (from, to), clamped into the link's legal window, and returns the
// deadline and the certified minimum transit.
func (n *Network) transit(from, to int, dir int32, at sim.Time) (deadline sim.Time, minTransit float64) {
	p := n.dyn.ParamsAt(dir)
	minTransit = p.Delay - p.Uncertainty
	delay := min(max(n.policy.Draw(&n.streams[from], from, to, p), minTransit), p.Delay)
	return at + delay, minTransit
}

// sendBeacon sends over the declared link whose directed index of
// (from, to) is dir, with send time at: the beacon wheel passes its slot
// time, which during a parallel window is the event's own time (the engine
// clock is not advanced per-item inside a window). The record carries the
// receiver's index of (to, from), dir^1.
func (n *Network) sendBeacon(from, to int, dir int32, b Beacon, at sim.Time) {
	k := len(n.shards)
	src := &n.shards[from%k]
	src.sent++
	m := record[Beacon]{
		from:    int32(from),
		to:      int32(to),
		seq:     n.senderSeq[from],
		dir:     dir ^ 1,
		sentAt:  at,
		payload: b,
	}
	n.senderSeq[from]++
	m.deadline, m.minTransit = n.transit(from, to, dir, at)
	dst := to % k
	if n.engine.InWindow() && dst != from%k {
		// Cross-shard send inside a window: stage for the barrier fold. The
		// deadline is ≥ window-start + lookahead ≥ window-end (lookahead is
		// the min link transit), so deferring the push past the window can
		// never skip a due delivery.
		src.out[dst] = append(src.out[dst], m)
		return
	}
	n.shards[dst].q.push(m)
}

// SendControl transmits an arbitrary control payload (handshake messages)
// into the receiver-sharded control queue. Control senders are serial
// contexts themselves — handshake timers, OnControl handlers, topology
// transitions — so sending from inside a parallel window is a contract
// violation and panics (window items have no path that sends controls; if
// one grows, controls would need outbox staging like beacons).
func (n *Network) SendControl(from, to int, payload any) {
	if n.engine.InWindow() {
		panic("transport: SendControl during a parallel window")
	}
	dir, ok := n.dyn.Dir(from, to)
	if !ok {
		return
	}
	n.shards[from%len(n.shards)].sent++
	at := n.engine.Now()
	c := record[any]{
		from:    int32(from),
		to:      int32(to),
		seq:     n.ctlSeq[from],
		dir:     dir ^ 1,
		sentAt:  at,
		payload: payload,
	}
	c.deadline, c.minTransit = n.transit(from, to, dir, at)
	n.ctlSeq[from]++
	n.ctls[to%len(n.ctls)].push(c)
}

// BroadcastBeacon sends the beacon to every neighbor currently visible to
// from, stamped at the current engine time.
func (n *Network) BroadcastBeacon(from int, b Beacon) {
	n.BroadcastBeaconAt(from, b, n.engine.Now())
}

// BroadcastBeaconAt is BroadcastBeacon with an explicit send time (see
// sendBeacon). It walks from's adjacency row, whose entries are the
// directed indices themselves, so no peer costs a lookup.
func (n *Network) BroadcastBeaconAt(from int, b Beacon, at sim.Time) {
	peers, dirs := n.dyn.Row(from)
	for i, to := range peers {
		if dir := dirs[i]; n.dyn.SeesAt(dir) {
			n.sendBeacon(from, int(to), dir, b, at)
		}
	}
}

// Peek implements sim.Source: the earliest pending delivery deadline of the
// shard, or +Inf when none.
func (n *Network) Peek(shard int) sim.Time { return n.shards[shard].q.peek() }

// FireNext implements sim.Source: deliver the shard's earliest beacon. The
// receiver is owned by this shard, so the handler chain (estimate samples,
// the algorithm's per-receiver register) writes only shard-owned state.
func (n *Network) FireNext(shard int, now sim.Time) {
	sh := &n.shards[shard]
	m := sh.q.pop() // a copy: the handler may send, reusing the slot
	if n.handler == nil || !n.dyn.SeesAt(m.dir) {
		sh.dropped++
		return
	}
	n.handler.OnBeacon(int(m.to), int(m.from), m.payload, m.delivery(now))
}

// Flush implements sim.Source: fold every outbox staged for this shard into
// its queue, in sender-shard order. The insertion order does not affect
// delivery order — the queue orders by the content key — it only has to be
// deterministic for the pooled slot assignment.
func (n *Network) Flush(shard int) {
	dst := &n.shards[shard]
	for g := range n.shards {
		staged := n.shards[g].out[shard]
		for i := range staged {
			dst.q.push(staged[i])
		}
		n.shards[g].out[shard] = staged[:0]
	}
}

// controlQueue is the Network's serial-source face for control deliveries:
// the same receiver-sharded queue shape as beacons, but registered with
// sim.Engine.AddSerialSource so every control fires one at a time in a
// serial context (handlers schedule global retry timers).
type controlQueue Network

// Peek implements sim.Source: the earliest pending control deadline of the
// shard, or +Inf when none.
func (q *controlQueue) Peek(shard int) sim.Time { return q.ctls[shard].peek() }

// FireNext implements sim.Source: deliver the shard's earliest control.
// Always invoked on the engine's serial path.
func (q *controlQueue) FireNext(shard int, now sim.Time) {
	n := (*Network)(q)
	c := q.ctls[shard].pop()
	if n.handler == nil || !n.dyn.SeesAt(c.dir) {
		n.shards[int(c.to)%len(n.shards)].dropped++
		return
	}
	n.handler.OnControl(int(c.to), int(c.from), c.payload, c.delivery(now))
}

// Flush implements sim.Source: controls are never staged (SendControl panics
// inside windows), so there is nothing to fold.
func (q *controlQueue) Flush(int) {}
