package live

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/topo"
)

// Record kinds. A trace is a header line followed by one JSON line per
// state-machine input, in global arrival order (the order the recorder
// observed them, which for a single cluster is also a valid serialization of
// the run).
const (
	RecTick   = "tick"
	RecBeacon = "beacon"
)

// TraceHeader is the first line of a trace file: everything the replay needs
// to rebuild the node state machines exactly as the live cluster built them.
type TraceHeader struct {
	Version        int         `json:"version"`
	N              int         `json:"n"`
	Edges          [][2]int    `json:"edges"`
	S              float64     `json:"s"`
	Rho            float64     `json:"rho"`
	Mu             float64     `json:"mu"`
	Tick           float64     `json:"tick"`
	BeaconInterval float64     `json:"beaconInterval"`
	Link           traceParams `json:"link"`
}

// traceParams mirrors topo.LinkParams with JSON tags (LinkParams itself is a
// plain struct shared across the simulator and shouldn't grow encoding
// concerns).
type traceParams struct {
	Eps         float64 `json:"eps"`
	Tau         float64 `json:"tau"`
	Delay       float64 `json:"delay"`
	Uncertainty float64 `json:"uncertainty"`
}

func (tp traceParams) link() topo.LinkParams {
	return topo.LinkParams{Eps: tp.Eps, Tau: tp.Tau, Delay: tp.Delay, Uncertainty: tp.Uncertainty}
}

func (h TraceHeader) params() params {
	return params{
		S: h.S, Rho: h.Rho, Mu: h.Mu,
		Tick: h.Tick, BeaconInterval: h.BeaconInterval, Link: h.Link.link(),
	}
}

// maxNodes bounds the node count of a cluster and of a replayed trace. A
// replay holds about half a kilobyte per node: state machine, estimate
// store, snapshot and fingerprint line. A live process holds a 128-byte
// snapshot slot per node of the network, and each node it hosts adds a
// goroutine and an inbox buffering QueueCapacity 48-byte envelopes: 3 KB
// per node at the default 64 besides the goroutine's stack, 0.2 GB at 2¹⁶
// nodes. A larger count is a corrupt header or a typo, rejected before
// anything is sized by it.
const maxNodes = 1 << 16

// validate checks what a trace header shares with a cluster Config: the
// node count, the edges, the protocol parameters and the link parameters
// (through topo.LinkParams.Validate). NewCluster validates a Config through
// the header it would record, so a trace can only describe a network a
// cluster would have accepted. Each numeric check negates the legal range,
// so NaN fails it.
func (h TraceHeader) validate() error {
	switch {
	case h.Version != 1:
		return fmt.Errorf("trace version %d unsupported", h.Version)
	case h.N < 1 || h.N > maxNodes:
		return fmt.Errorf("live: node count %d outside [1, %d]", h.N, maxNodes)
	case !finitePositive(h.S, h.Mu, h.Rho, h.Tick, h.BeaconInterval):
		return fmt.Errorf("live: S, Mu, Rho, Tick and BeaconInterval must be finite and positive, got %v, %v, %v, %v and %v",
			h.S, h.Mu, h.Rho, h.Tick, h.BeaconInterval)
	}
	if err := h.Link.link().Validate(); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	for _, e := range h.Edges {
		if e[0] < 0 || e[0] >= h.N || e[1] < 0 || e[1] >= h.N || e[0] == e[1] {
			return fmt.Errorf("live: bad edge %v for N=%d", e, h.N)
		}
	}
	return nil
}

func finitePositive(vs ...float64) bool {
	for _, v := range vs {
		if !(v > 0) || math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// TraceRecord is one recorded state-machine input. Every record touches the
// state of exactly one node (Node), carries that node's per-node sequence
// number (Seq, dense from 0), and the sim-time at which the input was applied
// (T). Replay orders records by (T, Node, Seq); since each node's inputs are
// totally ordered by Seq and records never touch two nodes, any
// T-respecting, Seq-respecting order reproduces the same final state.
//
// Floats round-trip exactly: encoding/json emits the shortest representation
// that parses back to the identical float64, so a JSONL trace is a lossless
// serialization of the run's float stream.
type TraceRecord struct {
	Kind string  `json:"kind"`
	T    float64 `json:"t"`
	Node int     `json:"node"`
	Seq  uint64  `json:"seq"`

	// Tick fields.
	DH float64 `json:"dh,omitempty"`

	// Beacon fields (the delivered envelope) plus the post-application
	// hardware clock HW, recorded for both kinds as an integrity check:
	// replay verifies the reconstructed hw matches bit for bit, so a trace
	// that was truncated, reordered or hand-edited fails fast instead of
	// silently fingerprinting differently.
	From       int     `json:"from,omitempty"`
	LSent      float64 `json:"lSent,omitempty"`
	MSent      float64 `json:"mSent,omitempty"`
	MinTransit float64 `json:"minTransit,omitempty"`
	HW         float64 `json:"hw"`
}

// Recorder appends trace records to a writer as JSON lines. Safe for
// concurrent use: live-mode node goroutines record their own inputs, so
// appends interleave. Per-node order is what replay relies on, and each
// node's records are appended by that node's own loop in Seq order, so
// interleaving across nodes is harmless.
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
	n   uint64
}

// NewRecorder writes the header line and returns a recorder for the body.
func NewRecorder(w io.Writer, h TraceHeader) (*Recorder, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return nil, err
	}
	return &Recorder{w: bw, enc: enc}, nil
}

// Append writes one record. The first encoding error sticks and is returned
// from Flush.
func (r *Recorder) Append(rec TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(rec); err != nil {
		r.err = err
		return
	}
	r.n++
}

// Flush drains the buffer and reports the first error seen.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Records returns how many records were appended successfully.
func (r *Recorder) Records() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// ReadTrace parses a trace stream: header line, then records until EOF.
func ReadTrace(rd io.Reader) (TraceHeader, []TraceRecord, error) {
	dec := json.NewDecoder(bufio.NewReader(rd))
	var h TraceHeader
	if err := dec.Decode(&h); err != nil {
		return h, nil, fmt.Errorf("trace header: %w", err)
	}
	if err := h.validate(); err != nil {
		return h, nil, fmt.Errorf("trace header: %w", err)
	}
	var recs []TraceRecord
	for {
		var rec TraceRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return h, recs, nil
			}
			return h, nil, fmt.Errorf("trace record %d: %w", len(recs), err)
		}
		if rec.Node < 0 || rec.Node >= h.N {
			return h, nil, fmt.Errorf("trace record %d: node %d out of range", len(recs), rec.Node)
		}
		switch rec.Kind {
		case RecTick, RecBeacon:
		default:
			return h, nil, fmt.Errorf("trace record %d: unknown kind %q", len(recs), rec.Kind)
		}
		recs = append(recs, rec)
	}
}
