package live

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/transport"
)

// ReplayResult is the outcome of feeding a recorded trace back through the
// node state machines.
type ReplayResult struct {
	// Fingerprint hashes the final per-node states exactly as
	// Cluster.Fingerprint does, so live run and replay compare directly.
	Fingerprint string
	// Records is the number of applied trace records.
	Records int
	// EndTime is the latest record time (0 when every record is earlier).
	EndTime float64
	// Snapshots is the final state of every node.
	Snapshots []NodeSnapshot
}

// Replay rebuilds the node state machines from the trace header, which it
// validates as NewCluster validates a Config, and applies every record in
// order. Records are stably ordered by (time, node, per-node sequence);
// since every record mutates exactly one node and each node's inputs are
// totally ordered by its sequence numbers, this reproduces the live run's
// per-node input order exactly — and because nodeState is deterministic,
// the final state is bit-identical to the live cluster's (verified en
// route via each record's recorded hardware clock; a truncated or tampered
// trace fails fast here instead of silently fingerprinting differently).
func Replay(h TraceHeader, recs []TraceRecord) (ReplayResult, error) {
	if err := h.validate(); err != nil {
		return ReplayResult{}, err
	}
	adj := make([][]int, h.N)
	for _, e := range h.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	p := h.params()
	states := make([]*nodeState, h.N)
	for i := range states {
		sort.Ints(adj[i])
		states[i] = newNodeState(i, adj[i], p)
	}

	ordered := make([]TraceRecord, len(recs))
	copy(ordered, recs)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := &ordered[i], &ordered[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})

	nextSeq := make([]uint64, h.N)
	var endTime float64
	for i := range ordered {
		rec := &ordered[i]
		if rec.Node < 0 || rec.Node >= h.N {
			return ReplayResult{}, fmt.Errorf("live: record node %d out of range for n=%d", rec.Node, h.N)
		}
		if rec.Seq != nextSeq[rec.Node] {
			return ReplayResult{}, fmt.Errorf("live: node %d record gap: seq %d, want %d",
				rec.Node, rec.Seq, nextSeq[rec.Node])
		}
		nextSeq[rec.Node]++
		ns := states[rec.Node]
		switch rec.Kind {
		case RecTick:
			ns.applyTick(rec.DH)
		case RecBeacon:
			ns.applyBeacon(rec.From, transport.Beacon{L: rec.LSent, M: rec.MSent}, rec.MinTransit)
		}
		if math.Float64bits(ns.hw) != math.Float64bits(rec.HW) {
			return ReplayResult{}, fmt.Errorf("live: node %d seq %d: replayed hw %v, trace recorded %v",
				rec.Node, rec.Seq, ns.hw, rec.HW)
		}
		if rec.T > endTime {
			endTime = rec.T
		}
	}

	res := ReplayResult{
		Records:   len(ordered),
		EndTime:   endTime,
		Snapshots: make([]NodeSnapshot, h.N),
	}
	for i, ns := range states {
		res.Snapshots[i] = NodeSnapshot{
			Node: i, L: ns.l, M: ns.m, HW: ns.hw, Mult: ns.mult,
			Fast: ns.fast, Slow: ns.slow, Samples: ns.est.SampleCount(),
		}
	}
	res.Fingerprint = fingerprint(res.Snapshots)
	return res, nil
}

// ReplayTrace parses a trace stream and replays it.
func ReplayTrace(r io.Reader) (ReplayResult, error) {
	h, recs, err := ReadTrace(r)
	if err != nil {
		return ReplayResult{}, err
	}
	return Replay(h, recs)
}
