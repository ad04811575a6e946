// Package live is the live-transport deployment mode: the gradient
// synchronization state machine of the simulator, run against real time and
// real message passing instead of the discrete-event engine. Each node is a
// goroutine owning its state outright (the GHS message-driven pattern — one
// inbox channel per node, no shared algorithm state). A node hands each
// beacon to a bounded channel without blocking — the neighbour's inbox
// in-process (Cluster), or a peer link's outbound buffer for a neighbour in
// another OS process, reached over a length-prefixed TCP codec
// (transport.WriteWire / ReadWire, see tcp.go) — and a full channel sheds
// the beacon and counts it.
//
// Live runs are made reproducible by recording, not by controlling the
// schedule: every state-machine input (integration ticks with their hardware
// increments, delivered beacons) is appended to a trace, and Replay feeds the
// same inputs through the same nodeState code in the recorded per-node
// order — producing a byte-identical final state (see trace.go, replay.go
// and DESIGN.md §Live transport).
package live

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/topo"
	"repro/internal/transport"
)

// Config assembles a live cluster (one process's share of the network).
type Config struct {
	// N is the total node count across all processes (required, ≥ 1).
	N int
	// Edges is the undirected estimate graph (node ids in [0, N)).
	Edges [][2]int
	// Owned optionally restricts which node ids this process hosts
	// (multi-process mode); nil → all N. Beacons addressed to non-owned
	// neighbors route through peers attached with ConnectPeer.
	Owned []int
	// S is the gradient block size (target local-skew scale); 0 → 1.
	S float64
	// Mu is the fast-mode boost µ; 0 → 0.1.
	Mu float64
	// Rho is the hardware drift bound ρ; 0 → µ/60.
	Rho float64
	// Tick is the integration step in sim units; 0 → 0.05.
	Tick float64
	// BeaconInterval is the beacon period in sim units; 0 → 0.25.
	BeaconInterval float64
	// TimeScale is the real duration of one sim unit; 0 → 20ms. Live sim time
	// is real elapsed time divided by TimeScale, so smaller values run the
	// protocol faster against the wall clock (and squeeze the real-time
	// margin the link parameters must cover).
	TimeScale time.Duration
	// Link gives the certified link model the estimate layer budgets
	// against. Zero value → a live default where Uncertainty = Delay: real
	// transit is near-zero sim time, so the certified minimum transit must be
	// 0 for estimates to stay lower bounds, and the whole error budget sits
	// in the delay + staleness terms.
	Link topo.LinkParams
	// Rates optionally sets per-node hardware clock rates (drift emulation);
	// nil → all 1. Length must equal N when set (indexed by node id, so every
	// process of a multi-process deployment passes the same slice).
	Rates []float64
	// QueueCapacity bounds each node's inbox and each peer link's outbound
	// buffer; 0 → 64. A beacon offered to a full one is shed and counted in
	// Stats.Dropped: beacons are soft state, superseded by the next one.
	QueueCapacity int
	// Trace, when non-nil, receives the replayable run trace (header plus one
	// JSON line per state-machine input of the owned nodes; see TraceRecord).
	Trace io.Writer
}

func (c *Config) applyDefaults() error {
	if c.S == 0 {
		c.S = 1
	}
	if c.Mu == 0 {
		c.Mu = 0.1
	}
	if c.Rho == 0 {
		c.Rho = c.Mu / 60
	}
	if c.Tick == 0 {
		c.Tick = 0.05
	}
	if c.BeaconInterval == 0 {
		c.BeaconInterval = 0.25
	}
	if c.TimeScale == 0 {
		c.TimeScale = 20 * time.Millisecond
	}
	if c.Link == (topo.LinkParams{}) {
		d := c.BeaconInterval / 5
		c.Link = topo.LinkParams{Eps: d, Tau: d, Delay: d, Uncertainty: d}
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 64
	}
	if err := c.header().validate(); err != nil {
		return err
	}
	// The node loops tick on a time.Ticker of Tick × TimeScale, which must be
	// a positive Duration.
	if d := c.Tick * float64(c.TimeScale); !(d >= 1 && d < math.MaxInt64) {
		return fmt.Errorf("live: Tick × TimeScale = %v × %v is not a ticker interval of at least 1ns", c.Tick, c.TimeScale)
	}
	if c.QueueCapacity < 0 {
		return fmt.Errorf("live: QueueCapacity must not be negative, got %d", c.QueueCapacity)
	}
	if c.Rates != nil && (len(c.Rates) != c.N || !finitePositive(c.Rates...)) {
		return fmt.Errorf("live: Rates must hold %d finite positive entries, one per node", c.N)
	}
	for _, id := range c.Owned {
		if id < 0 || id >= c.N {
			return fmt.Errorf("live: owned node %d out of range [0,%d)", id, c.N)
		}
	}
	return nil
}

func (c *Config) header() TraceHeader {
	return TraceHeader{
		Version: 1, N: c.N, Edges: c.Edges,
		S: c.S, Rho: c.Rho, Mu: c.Mu,
		Tick: c.Tick, BeaconInterval: c.BeaconInterval,
		Link: traceParams{
			Eps: c.Link.Eps, Tau: c.Link.Tau,
			Delay: c.Link.Delay, Uncertainty: c.Link.Uncertainty,
		},
	}
}

// liveNode pairs a node's state machine with its live-mode plumbing. The
// node's own loop goroutine is the only reader and writer of st, seq and the
// schedules; every other goroutine reads the node through its snapshot slot.
type liveNode struct {
	st          *nodeState
	seq         uint64
	lastTickSim float64
	nextBeacon  float64
	rate        float64
	// inbox receives the beacons of in-process neighbours and TCP peers;
	// its capacity is Config.QueueCapacity.
	inbox chan Envelope
	// pub is this node's slot in the cluster snapshot slab: the loop
	// goroutine publishes after every applied input, and queries and
	// Fingerprint read it (see snapshot.go and DESIGN.md §Live transport).
	pub *snapSlot
}

// Cluster runs this process's share of a live network: a loop goroutine per
// owned node, which hands its beacons straight to in-process neighbours'
// inboxes, TCP peers for edges crossing process boundaries, and an optional
// trace recorder. Construction wires everything; Start launches the node
// loops; Stop tears them down and flushes the trace.
type Cluster struct {
	cfg        Config
	minTransit float64
	// nodes is indexed by node id; nil for nodes hosted by another process.
	nodes    []*liveNode
	owned    []int  // sorted owned ids
	isOwned  []bool // indexed by node id
	rec      *Recorder
	start    time.Time
	stopCh   chan struct{}
	nodeWG   sync.WaitGroup
	started  bool
	stopped  bool
	enqueued atomic.Uint64 // beacons handed to an inbox or a peer link
	dropped  atomic.Uint64 // beacons shed on a full inbox or peer link
	unrouted atomic.Uint64 // beacons to non-owned nodes with no attached peer route
	rejected atomic.Uint64 // inbound peer frames dropped by validation

	// slab holds one published snapshot slot per node id; epoch counts
	// publications cluster-wide, so an unchanged epoch certifies that every
	// slot is unchanged (the daemon keys its response caches on it).
	slab  []snapSlot
	epoch atomic.Uint64
	// tickHist records real intervals between consecutive ticker fires of
	// every owned node (nanoseconds); its quantiles versus tickNominal are
	// the protocol-jitter figure Stats reports.
	tickHist    hist.Atomic
	tickNominal time.Duration
	// skewScratch pools the per-report L vector so Skew allocates nothing in
	// steady state.
	skewScratch sync.Pool

	peerMu sync.Mutex
	peers  []*Peer
	routes map[int]*Peer // non-owned node id → outbound peer link
}

// NewCluster validates cfg and builds the owned nodes (nothing runs until
// Start).
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	minTransit := cfg.Link.Delay - cfg.Link.Uncertainty
	if minTransit < 0 {
		minTransit = 0
	}
	c := &Cluster{
		cfg:         cfg,
		minTransit:  minTransit,
		stopCh:      make(chan struct{}),
		routes:      make(map[int]*Peer),
		slab:        make([]snapSlot, cfg.N),
		tickNominal: time.Duration(cfg.Tick * float64(cfg.TimeScale)),
	}
	c.skewScratch.New = func() any {
		b := make([]float64, cfg.N)
		return &b
	}
	if cfg.Trace != nil {
		rec, err := NewRecorder(cfg.Trace, cfg.header())
		if err != nil {
			return nil, err
		}
		c.rec = rec
	}
	isOwned := make([]bool, cfg.N)
	if cfg.Owned == nil {
		for i := range isOwned {
			isOwned[i] = true
		}
	} else {
		for _, id := range cfg.Owned {
			isOwned[id] = true
		}
	}
	c.isOwned = isOwned
	for i, own := range isOwned {
		if own {
			c.owned = append(c.owned, i)
		}
	}
	if len(c.owned) == 0 {
		return nil, fmt.Errorf("live: Owned selects no nodes")
	}
	adj := make([][]int, cfg.N)
	for _, e := range cfg.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	p := cfg.header().params()
	c.nodes = make([]*liveNode, cfg.N)
	for _, i := range c.owned {
		sort.Ints(adj[i])
		rate := 1.0
		if cfg.Rates != nil {
			rate = cfg.Rates[i]
		}
		n := &liveNode{
			st:   newNodeState(i, adj[i], p),
			rate: rate,
			// Stagger first beacons across the interval so a cluster of
			// synchronized-at-start nodes doesn't burst-send forever.
			nextBeacon: cfg.BeaconInterval * float64(i+1) / float64(cfg.N),
			inbox:      make(chan Envelope, cfg.QueueCapacity),
			pub:        &c.slab[i],
		}
		// Publish the initial state (seq 0) so queries arriving before the
		// first tick already see a consistent snapshot (mult 1, hw 0).
		n.pub.publish(n.st, 0)
		c.nodes[i] = n
	}
	return c, nil
}

// Start launches one loop goroutine per owned node.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.start = time.Now()
	for _, i := range c.owned {
		c.nodeWG.Add(1)
		go c.nodeLoop(c.nodes[i])
	}
}

// Stop halts all goroutines, closes attached peers, flushes the trace, and
// returns the first trace error (nil without a trace). Idempotent.
func (c *Cluster) Stop() error {
	if !c.started || c.stopped {
		return nil
	}
	c.stopped = true
	close(c.stopCh)
	c.nodeWG.Wait()
	c.peerMu.Lock()
	peers := append([]*Peer(nil), c.peers...)
	c.peerMu.Unlock()
	for _, p := range peers {
		p.Close()
	}
	if c.rec != nil {
		return c.rec.Flush()
	}
	return nil
}

// simNow converts real elapsed time to sim time.
func (c *Cluster) simNow() float64 {
	return float64(time.Since(c.start)) / float64(c.cfg.TimeScale)
}

// nodeLoop is one node's event loop: apply delivered beacons as they arrive,
// apply an integration tick on each ticker fire, send beacons on schedule.
// This goroutine is the only writer of the node's state, so the recorded
// per-node input order is exactly the applied order.
func (c *Cluster) nodeLoop(n *liveNode) {
	defer c.nodeWG.Done()
	ticker := time.NewTicker(c.tickNominal)
	defer ticker.Stop()
	var lastFire time.Time
	for {
		select {
		case <-c.stopCh:
			return
		case e := <-n.inbox:
			c.applyBeacon(n, e)
		case <-ticker.C:
			// Record the real inter-fire interval: its quantiles versus the
			// nominal tick are the protocol-jitter bound Stats reports (the
			// figure query load must not inflate).
			now := time.Now()
			if !lastFire.IsZero() {
				c.tickHist.Add(now.Sub(lastFire).Nanoseconds())
			}
			lastFire = now
			c.applyTick(n)
		}
	}
}

func (c *Cluster) applyTick(n *liveNode) {
	simNow := c.simNow()
	dh := (simNow - n.lastTickSim) * n.rate
	if dh < 0 {
		dh = 0
	}
	n.lastTickSim = simNow
	n.st.applyTick(dh)
	rec := TraceRecord{Kind: RecTick, T: simNow, Node: n.st.id, Seq: n.seq, DH: dh, HW: n.st.hw}
	n.seq++
	n.pub.publish(n.st, n.seq)
	var b transport.Beacon
	send := simNow >= n.nextBeacon
	if send {
		b = n.st.beacon()
		n.nextBeacon += c.cfg.BeaconInterval
		if n.nextBeacon <= simNow {
			n.nextBeacon = simNow + c.cfg.BeaconInterval
		}
	}
	c.epoch.Add(1)
	if c.rec != nil {
		c.rec.Append(rec)
	}
	if send {
		c.broadcast(n, Envelope{From: n.st.id, SentAt: simNow, MinTransit: c.minTransit, B: b})
	}
}

// broadcast addresses env to each of n's neighbours: an owned one's inbox,
// or the peer link routing a remote one.
func (c *Cluster) broadcast(n *liveNode, env Envelope) {
	for _, peer := range n.st.peers {
		env.To = peer
		if dst := c.nodes[peer]; dst != nil {
			c.offer(dst.inbox, env)
		} else {
			c.sendRemote(env)
		}
	}
}

// offer hands e to ch without blocking. A full channel sheds e: the sending
// node loop never waits on a slow receiver or link, so its tick cadence
// stays its own, and the next beacon supersedes the shed one.
func (c *Cluster) offer(ch chan<- Envelope, e Envelope) {
	select {
	case ch <- e:
		c.enqueued.Add(1)
	default:
		c.dropped.Add(1)
	}
}

func (c *Cluster) applyBeacon(n *liveNode, e Envelope) {
	simNow := c.simNow()
	n.st.applyBeacon(e.From, e.B, e.MinTransit)
	rec := TraceRecord{
		Kind: RecBeacon, T: simNow, Node: n.st.id, Seq: n.seq,
		From: e.From, LSent: e.B.L, MSent: e.B.M, MinTransit: e.MinTransit,
		HW: n.st.hw,
	}
	n.seq++
	n.pub.publish(n.st, n.seq)
	c.epoch.Add(1)
	if c.rec != nil {
		c.rec.Append(rec)
	}
}

// sendRemote routes an envelope addressed to a node another process hosts.
// Without an attached route the beacon is counted and dropped — beacons are
// soft state, and the next one retries the route.
func (c *Cluster) sendRemote(e Envelope) {
	c.peerMu.Lock()
	p := c.routes[e.To]
	c.peerMu.Unlock()
	if p == nil {
		c.unrouted.Add(1)
		return
	}
	c.offer(p.out, e)
}

// deliverLocal hands an inbound envelope (from a TCP peer) to the addressed
// owned node. Unknown or non-owned addressees are dropped as unrouted, and
// a sender that is not a neighbour of the addressee as rejected.
func (c *Cluster) deliverLocal(e Envelope) {
	if e.To < 0 || e.To >= len(c.nodes) || c.nodes[e.To] == nil {
		c.unrouted.Add(1)
		return
	}
	dst := c.nodes[e.To]
	// st.peers is fixed at construction, so reading it here needs no lock.
	if _, ok := slices.BinarySearch(dst.st.peers, e.From); !ok {
		c.rejected.Add(1)
		return
	}
	select {
	case dst.inbox <- e:
	case <-c.stopCh:
	}
}

// NodeSnapshot is a point-in-time read of one node's public state: one
// consistent published tuple (all fields belong to the same state-machine
// step). Seq is the number of inputs the node had applied at publication —
// dense and strictly monotone, so consecutive reads of one node can be
// ordered, and HW never regresses as Seq grows.
type NodeSnapshot struct {
	Node    int     `json:"node"`
	L       float64 `json:"l"`
	M       float64 `json:"m"`
	HW      float64 `json:"hw"`
	Mult    float64 `json:"mult"`
	Fast    uint64  `json:"fastTicks"`
	Slow    uint64  `json:"slowTicks"`
	Samples int     `json:"samples"`
	Seq     uint64  `json:"seq"`
}

// N returns the total node count across all processes.
func (c *Cluster) N() int { return len(c.nodes) }

// Owned returns the sorted ids this process hosts.
func (c *Cluster) Owned() []int { return c.owned }

// SimNow returns the cluster's current sim time (0 before Start).
func (c *Cluster) SimNow() float64 {
	if !c.started {
		return 0
	}
	return c.simNow()
}

// Owns reports whether node id i is valid and hosted by this process.
func (c *Cluster) Owns(i int) bool {
	return i >= 0 && i < len(c.nodes) && c.nodes[i] != nil
}

// Epoch returns the cluster publication counter: it advances on every
// state-machine input any owned node applies, so an unchanged epoch
// certifies every published snapshot is unchanged. The daemon keys its
// response caches on it.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Snapshot reads one owned node's published state. Wait-free: the read never
// touches the node's goroutine, only the snapshot slab.
func (c *Cluster) Snapshot(i int) (NodeSnapshot, error) {
	if i < 0 || i >= len(c.nodes) {
		return NodeSnapshot{}, fmt.Errorf("live: node %d out of range [0,%d)", i, len(c.nodes))
	}
	if c.nodes[i] == nil {
		return NodeSnapshot{}, fmt.Errorf("live: node %d is hosted by another process", i)
	}
	return c.slab[i].read(i), nil
}

// AppendSnapshots appends every owned node's published snapshot to dst and
// returns it — the allocation-free form of Snapshots. Each element is a
// consistent per-node tuple; the cut across nodes is not global (nodes keep
// ticking while the slice fills), which is fine for monitoring — use Stop +
// Fingerprint for a quiescent global state.
func (c *Cluster) AppendSnapshots(dst []NodeSnapshot) []NodeSnapshot {
	for _, i := range c.owned {
		dst = append(dst, c.slab[i].read(i))
	}
	return dst
}

// Snapshots reads every owned node (see AppendSnapshots for the cut
// semantics and the allocation-free variant).
func (c *Cluster) Snapshots() []NodeSnapshot {
	return c.AppendSnapshots(make([]NodeSnapshot, 0, len(c.owned)))
}

// SkewReport summarizes clock skew across this process's nodes at query
// time. Edges with a remote endpoint are not measurable locally and are
// excluded from MaxLocalSkew.
type SkewReport struct {
	SimNow       float64 `json:"simNow"`
	GlobalSkew   float64 `json:"globalSkew"`   // max L − min L over owned nodes
	MaxLocalSkew float64 `json:"maxLocalSkew"` // max |L_u − L_v| over local edges
	Bound        float64 `json:"bound"`        // the gradient target 2·S
	Legal        bool    `json:"legal"`        // MaxLocalSkew ≤ Bound
}

// Skew computes the skew report from one snapshot cut: every owned node's L
// is read exactly once (into a pooled scratch vector), and both the global
// spread and every edge difference are computed from those same values — the
// report is internally consistent even while nodes keep ticking. Wait-free
// and allocation-free in steady state.
func (c *Cluster) Skew() SkewReport {
	rep := SkewReport{SimNow: c.SimNow(), Bound: 2 * c.cfg.S, Legal: true}
	sp := c.skewScratch.Get().(*[]float64)
	ls := *sp
	first := true
	var minL, maxL float64
	for _, i := range c.owned {
		l := c.slab[i].readL()
		ls[i] = l
		if first || l < minL {
			minL = l
		}
		if first || l > maxL {
			maxL = l
		}
		first = false
	}
	rep.GlobalSkew = maxL - minL
	for _, e := range c.cfg.Edges {
		if !c.isOwned[e[0]] || !c.isOwned[e[1]] {
			continue
		}
		d := ls[e[0]] - ls[e[1]]
		if d < 0 {
			d = -d
		}
		if d > rep.MaxLocalSkew {
			rep.MaxLocalSkew = d
		}
	}
	rep.Legal = rep.MaxLocalSkew <= rep.Bound
	c.skewScratch.Put(sp)
	return rep
}

// LegalityReport is the daemon's /v1/legality payload: the skew report
// reduced to its verdict.
type LegalityReport struct {
	Legal        bool    `json:"legal"`
	Bound        float64 `json:"bound"`
	MaxLocalSkew float64 `json:"maxLocalSkew"`
	SimNow       float64 `json:"simNow"`
}

// Legality reduces the current skew report to the gradient-target verdict.
func (c *Cluster) Legality() LegalityReport {
	rep := c.Skew()
	return LegalityReport{
		Legal: rep.Legal, Bound: rep.Bound,
		MaxLocalSkew: rep.MaxLocalSkew, SimNow: rep.SimNow,
	}
}

// Stats aggregates transport, trace and tick-timing counters. Every source
// is an atomic folded at read time — reading stats never locks a node or
// the tick path.
type Stats struct {
	SimNow float64 `json:"simNow"`
	Epoch  uint64  `json:"epoch"`
	// Enqueued counts beacons handed to an in-process neighbour's inbox or
	// a peer link's outbound buffer. Dropped counts beacons shed because
	// that channel was full, plus those a peer link shed while down.
	Enqueued uint64 `json:"enqueued"`
	Dropped  uint64 `json:"dropped"`
	Unrouted uint64 `json:"unrouted"`
	// Rejected counts frames dropped by validation on accepted peer
	// connections: frames ReadWire refuses, a first frame that is not a
	// hello for this cluster's shape, and beacons whose sender is not a
	// neighbour of the addressee.
	Rejected uint64 `json:"rejected"`
	// Reconnects counts successful peer-link redials; PeersDown is the
	// number of peer links currently disconnected and backing off.
	Reconnects uint64 `json:"reconnects"`
	PeersDown  int    `json:"peersDown"`
	Records    uint64 `json:"traceRecords"`
	// Tick timing: the nominal integration-tick period and the measured
	// p50/p99 of real inter-fire intervals across all owned nodes. P99
	// inflation over nominal is the reader-perturbation figure the epoch
	// snapshot read path exists to keep flat.
	TickNominalMs float64 `json:"tickNominalMs"`
	TickP50Ms     float64 `json:"tickP50Ms"`
	TickP99Ms     float64 `json:"tickP99Ms"`
}

// Stats reports cluster-wide transport and trace counters.
func (c *Cluster) Stats() Stats {
	st := Stats{
		SimNow:        c.SimNow(),
		Epoch:         c.epoch.Load(),
		Enqueued:      c.enqueued.Load(),
		Dropped:       c.dropped.Load(),
		Unrouted:      c.unrouted.Load(),
		Rejected:      c.rejected.Load(),
		TickNominalMs: float64(c.tickNominal) / float64(time.Millisecond),
	}
	c.peerMu.Lock()
	for _, p := range c.peers {
		st.Dropped += p.downDrops.Load()
		st.Reconnects += p.reconnects.Load()
		if p.down.Load() {
			st.PeersDown++
		}
	}
	c.peerMu.Unlock()
	if c.rec != nil {
		st.Records = c.rec.Records()
	}
	if c.tickHist.Count() > 0 {
		st.TickP50Ms = float64(c.tickHist.Quantile(0.5)) / float64(time.Millisecond)
		st.TickP99Ms = float64(c.tickHist.Quantile(0.99)) / float64(time.Millisecond)
	}
	return st
}

// Fingerprint hashes the owned nodes' published snapshots in id order (exact
// float64 bits; see fingerprint). Meaningful after Stop — on a running
// cluster the snapshots give a per-node cut, not a quiescent state. When
// this process owns all nodes, the fingerprint is directly comparable to
// Replay's fingerprint of the same run's trace.
func (c *Cluster) Fingerprint() string { return fingerprint(c.Snapshots()) }
