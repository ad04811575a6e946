// Package hist provides fixed-footprint log-linear histograms for latency
// tracking: values bucket into 16 linear sub-buckets per power of two, so
// every quantile estimate carries at most ~6% relative error while the whole
// histogram stays a flat array — no allocation on the record path, mergeable
// across recorders, and (in the Atomic variant) safe to hammer from many
// goroutines with plain atomic adds. The load generator (cmd/gradsyncload)
// records per-connection Hists and merges them at report time; the live
// cluster (internal/live) records protocol-tick intervals into one shared
// Atomic so the daemon's stats endpoint can report tick-jitter quantiles
// while the ring runs.
package hist

import (
	"math/bits"
	"sync/atomic"
)

// subBits fixes the linear resolution: 1<<subBits sub-buckets per power of
// two, i.e. a worst-case relative bucket width of 2^-subBits ≈ 6%.
const subBits = 4

const sub = 1 << subBits

// numBuckets covers every non-negative int64: buckets [0, sub) are exact,
// and each exponent from subBits to 62 (the highest bit a positive int64 can
// set) contributes sub buckets.
const numBuckets = sub + (63-subBits)*sub

// bucketOf maps a non-negative value to its bucket index. Values below sub
// are exact; larger values keep their top subBits+1 significant bits.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < sub {
		return int(u)
	}
	h := bits.Len64(u) - 1 // position of the highest set bit, ≥ subBits
	return (h-subBits)*sub + int(u>>(uint(h)-subBits))
}

// bucketLow returns the smallest value mapping to bucket b (the inverse of
// bucketOf on bucket lower bounds).
func bucketLow(b int) int64 {
	if b < sub {
		return int64(b)
	}
	g := b/sub - 1 // exponent group: how many doublings past the exact range
	s := b % sub
	return int64(sub+s) << uint(g)
}

// bucketMid returns the midpoint of bucket b — the value a quantile landing
// in b reports, bounding the estimate error by half the bucket width.
func bucketMid(b int) int64 {
	lo := bucketLow(b)
	if b < sub {
		return lo
	}
	width := int64(1) << uint(b/sub-1)
	return lo + width/2
}

// Hist is the single-goroutine variant: Add from one goroutine (or with
// external synchronization), Merge and Quantile whenever.
type Hist struct {
	counts [numBuckets]uint64
	total  uint64
}

// Add records one value (negative values clamp to 0).
func (h *Hist) Add(v int64) {
	h.counts[bucketOf(v)]++
	h.total++
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// Quantile returns the value at quantile q in [0,1] (midpoint of the bucket
// the q-th recorded value falls in), or 0 when the histogram is empty.
func (h *Hist) Quantile(q float64) int64 {
	return quantile(h.counts[:], h.total, q)
}

func quantile(counts []uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target value in sorted order.
	rank := uint64(q*float64(total-1)) + 1
	var seen uint64
	for b, c := range counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(numBuckets - 1)
}

// Atomic is the concurrent variant: Add is one atomic increment, safe from
// any number of goroutines. Quantile reads the counters without stopping
// writers, so a result computed mid-run is a monitoring-grade approximation
// (the cross-bucket cut is not a consistent snapshot), which is exactly what
// the live stats endpoint needs.
type Atomic struct {
	counts [numBuckets]atomic.Uint64
	total  atomic.Uint64
}

// Add records one value.
func (a *Atomic) Add(v int64) {
	a.counts[bucketOf(v)].Add(1)
	a.total.Add(1)
}

// Count returns the number of recorded values so far.
func (a *Atomic) Count() uint64 { return a.total.Load() }

// Quantile returns the value at quantile q over the counts visible at call
// time, or 0 when empty. Allocation-free.
func (a *Atomic) Quantile(q float64) int64 {
	var counts [numBuckets]uint64
	var total uint64
	for i := range a.counts {
		c := a.counts[i].Load()
		counts[i] = c
		total += c
	}
	return quantile(counts[:], total, q)
}
