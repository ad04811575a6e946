package gradsync

import (
	"fmt"
	"io"
	"time"

	"repro/internal/live"
	"repro/internal/sim"
)

// LiveConfig assembles a live-transport deployment: the same gradient
// protocol as Config's simulations, run by per-node goroutines against real
// time and real message channels (see internal/live and DESIGN.md §Live
// transport). Zero values default like Config where the fields overlap.
type LiveConfig struct {
	// Topology is the estimate graph (required).
	Topology Topology
	// S is the gradient block size (target local-skew scale); 0 → 1.
	S float64
	// Mu is the fast-mode boost µ; 0 → 0.1.
	Mu float64
	// Rho is the drift bound ρ the error budget assumes; 0 → µ/60.
	Rho float64
	// Tick is the integration step in sim units; 0 → 0.05.
	Tick float64
	// BeaconInterval is the beacon period in sim units; 0 → 0.25.
	BeaconInterval float64
	// TimeScale is the real duration of one sim unit; 0 → 20ms.
	TimeScale time.Duration
	// Rates optionally emulates hardware drift (per-node clock rates).
	Rates []float64
	// QueueCapacity bounds each node's inbox and each peer link's outbound
	// buffer; 0 → 64. A beacon offered to a full one is shed and counted.
	QueueCapacity int
	// Trace, when non-nil, receives a replayable run trace; feed it back
	// through ReplayLiveTrace to reproduce the run deterministically.
	Trace io.Writer
	// Seed feeds topology randomness (RandomTopology); 0 is a valid seed.
	Seed int64
}

// LiveNodeSnapshot is a point-in-time read of one live node.
type LiveNodeSnapshot = live.NodeSnapshot

// LiveSkewReport summarizes clock skew across a live network.
type LiveSkewReport = live.SkewReport

// LiveStats aggregates live transport and trace counters.
type LiveStats = live.Stats

// LiveReplayResult is the outcome of replaying a recorded live trace.
type LiveReplayResult = live.ReplayResult

// LiveNetwork is a running live deployment. Queries are safe from any
// goroutine while it runs; Stop halts it and flushes the trace.
type LiveNetwork struct {
	c *live.Cluster
}

// StartLive builds and starts a live network.
func StartLive(cfg LiveConfig) (*LiveNetwork, error) {
	if cfg.Topology.n <= 0 {
		return nil, fmt.Errorf("gradsync: live config needs a topology with at least one node")
	}
	ids, err := cfg.Topology.build(sim.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	edges := make([][2]int, len(ids))
	for i, id := range ids {
		edges[i] = [2]int{id.U, id.V}
	}
	c, err := live.NewCluster(live.Config{
		N: cfg.Topology.n, Edges: edges,
		S: cfg.S, Mu: cfg.Mu, Rho: cfg.Rho,
		Tick: cfg.Tick, BeaconInterval: cfg.BeaconInterval,
		TimeScale: cfg.TimeScale, Rates: cfg.Rates,
		QueueCapacity: cfg.QueueCapacity, Trace: cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	return &LiveNetwork{c: c}, nil
}

// Stop halts the network and flushes the trace (idempotent).
func (n *LiveNetwork) Stop() error { return n.c.Stop() }

// N returns the node count.
func (n *LiveNetwork) N() int { return n.c.N() }

// SimNow returns the network's current sim time.
func (n *LiveNetwork) SimNow() float64 { return n.c.SimNow() }

// Snapshot reads one node's state.
func (n *LiveNetwork) Snapshot(i int) (LiveNodeSnapshot, error) { return n.c.Snapshot(i) }

// Snapshots reads every node's state.
func (n *LiveNetwork) Snapshots() []LiveNodeSnapshot { return n.c.Snapshots() }

// Skew reports global and local skew against the gradient target 2·S.
func (n *LiveNetwork) Skew() LiveSkewReport { return n.c.Skew() }

// Stats reports transport and trace counters.
func (n *LiveNetwork) Stats() LiveStats { return n.c.Stats() }

// Fingerprint hashes the final state (call after Stop); it equals the
// fingerprint of replaying the recorded trace.
func (n *LiveNetwork) Fingerprint() string { return n.c.Fingerprint() }

// ReplayLiveTrace deterministically re-executes a trace recorded by a live
// run through the node state machines, in the recorded per-node order.
func ReplayLiveTrace(r io.Reader) (LiveReplayResult, error) {
	return live.ReplayTrace(r)
}
