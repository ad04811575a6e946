package live

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// snapSlot is one node's published snapshot: the read-path face of the live
// state machine, updated by the node's own loop goroutine after every applied
// input and read by any number of query goroutines without locks. Publication
// is seqlock-style over all-atomic fields, which keeps it honest under the
// race detector (plain-field seqlocks are data races by Go's memory model):
// the writer bumps ver to odd, stores every field, bumps ver to even; a
// reader retries until it sees the same even ver on both sides of its loads,
// at which point the whole tuple — (seq, hw, l, m, ...) — is a consistent
// cut of one published state. Readers never block the writer and the writer
// never blocks readers; a reader retries only during the ~ten stores of an
// in-flight publish.
//
// Slots are padded to two cache lines so neighboring nodes' publications
// (and reader traffic) never false-share.
type snapSlot struct {
	ver atomic.Uint64 // seqlock version: odd = publish in progress

	seq     atomic.Uint64 // state-machine input count (dense, monotone)
	l       atomic.Uint64 // float64 bits of L_u
	m       atomic.Uint64 // float64 bits of M_u
	hw      atomic.Uint64 // float64 bits of H_u (monotone)
	mult    atomic.Uint64 // float64 bits of the current rate multiplier
	fast    atomic.Uint64
	slow    atomic.Uint64
	samples atomic.Uint64

	_ [56]byte // pad 9×8 B of fields to 2×64 B lines
}

// publish stores the node's current state into the slot. Must only be called
// from the node's loop goroutine (single writer per slot).
func (s *snapSlot) publish(ns *nodeState, seq uint64) {
	v := s.ver.Load() + 1
	s.ver.Store(v) // odd: readers retry from here
	s.seq.Store(seq)
	s.l.Store(math.Float64bits(ns.l))
	s.m.Store(math.Float64bits(ns.m))
	s.hw.Store(math.Float64bits(ns.hw))
	s.mult.Store(math.Float64bits(ns.mult))
	s.fast.Store(ns.fast)
	s.slow.Store(ns.slow)
	s.samples.Store(uint64(ns.est.SampleCount()))
	s.ver.Store(v + 1) // even: tuple visible
}

// read returns a consistent snapshot of the slot. Lock-free: loops only
// while a publish is in flight.
func (s *snapSlot) read(node int) NodeSnapshot {
	for {
		v := s.ver.Load()
		if v&1 != 0 {
			continue
		}
		snap := NodeSnapshot{
			Node:    node,
			Seq:     s.seq.Load(),
			L:       math.Float64frombits(s.l.Load()),
			M:       math.Float64frombits(s.m.Load()),
			HW:      math.Float64frombits(s.hw.Load()),
			Mult:    math.Float64frombits(s.mult.Load()),
			Fast:    s.fast.Load(),
			Slow:    s.slow.Load(),
			Samples: int(s.samples.Load()),
		}
		if s.ver.Load() == v {
			return snap
		}
	}
}

// readL returns just the logical clock. A single atomic load is a consistent
// value on its own, so no seqlock retry is needed — this is the skew report's
// per-node read.
func (s *snapSlot) readL() float64 {
	return math.Float64frombits(s.l.Load())
}

// fingerprint hashes a per-node state vector, one line per node rendered as
// exact hexadecimal floats — FormatFloat 'x' is a lossless float64 encoding
// — so two vectors fingerprint equal iff they are bit-identical. The live
// cluster (from its snapshot slab, after Stop) and the replay (from its
// result's snapshots) both use this one function, so a live run and its
// replay agree on the fingerprint iff every node's final state matches bit
// for bit.
func fingerprint(snaps []NodeSnapshot) string {
	var sb strings.Builder
	for _, s := range snaps {
		fmt.Fprintf(&sb, "%d %s %s %s %s %d %d\n",
			s.Node,
			strconv.FormatFloat(s.L, 'x', -1, 64),
			strconv.FormatFloat(s.M, 'x', -1, 64),
			strconv.FormatFloat(s.HW, 'x', -1, 64),
			strconv.FormatFloat(s.Mult, 'x', -1, 64),
			s.Fast, s.Slow)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}
