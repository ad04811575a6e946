package transport

import (
	"math"
	"slices"
	"unsafe"

	"repro/internal/sim"
)

// record is one pooled in-flight message: a beacon (P = Beacon) or a control
// (P = any). Fields are packed to keep the record at 48 bytes (int32 ids,
// uint32 seq, int32 dir, and no send time, which no receiver may learn) —
// in-flight slabs are a top-line memory consumer at N=10⁷.
type record[P any] struct {
	from, to int32
	// seq is the sender's send counter, shared by both classes, the last
	// tie-break of the content key: it preserves FIFO among same-(from,to)
	// same-deadline messages and — unlike a global sequence — is identical
	// at every shard count. uint32 wraps after 4.3·10⁹ sends per sender,
	// orders of magnitude beyond any run, and a wrap could only reorder
	// same-deadline same-pair messages.
	seq uint32
	// dir is the receiver's directed index of (to, from), resolved once at
	// send time. It still names this link at delivery: the sender saw the
	// link when it sent, and topo hands the slot to another pair only once
	// the link has been dead for longer than any message takes, so the
	// delivery comes first.
	dir        int32
	deadline   sim.Time
	minTransit float64
	payload    P
}

// entry is a run slot with its record's content key copied inline, so
// sorting and searching the run never touch the slab.
type entry struct {
	deadline sim.Time
	to, from int32
	seq      uint32
	slot     int32
}

// after reports whether a sorts after b by the content key (deadline, to,
// from, seq): a total order over distinct messages that depends only on the
// messages themselves, so delivery order is identical at every shard count.
// Among same-pair ties the seq keeps FIFO send order.
func (a entry) after(b entry) bool {
	if a.deadline != b.deadline {
		return a.deadline > b.deadline
	}
	if a.to != b.to {
		return a.to > b.to
	}
	if a.from != b.from {
		return a.from > b.from
	}
	return a.seq > b.seq
}

// runOrder is the run's order as a comparison: descending by content key.
func runOrder(a, b entry) int {
	switch {
	case a.after(b):
		return -1
	case b.after(a):
		return 1
	}
	return 0
}

// sortRun sorts entries into the run's order. An occupied bucket holds
// 2–4·bucketLoad records on average, where an insertion sort on the inlined
// key beats pdqsort's indirect calls. Against slices.SortFunc alone (10
// alternating runs each on a 2-vCPU Xeon) it takes BenchmarkNetworkDeliver's
// ring median from 230 to 175 ns/delivery at 3,000 in flight and from 281
// to 232 at 30,000, faster in every run, and geo-mobile-10k's
// sim_units_per_ref_s from 5.79 to 6.19, faster in 9 of 10. Crowded buckets
// (many equal deadlines) keep O(b log b).
func sortRun(run []entry) {
	if len(run) > 4*bucketLoad {
		slices.SortFunc(run, runOrder)
		return
	}
	for i := 1; i < len(run); i++ {
		e, j := run[i], i
		for ; j > 0 && e.after(run[j-1]); j-- {
			run[j] = run[j-1]
		}
		run[j] = e
	}
}

// bucketLoad is the mean bucket population a re-grid aims for; the ring
// doubles when the population passes twice that (Brown's rule).
const bucketLoad = 8

// maxBucket bounds bucket numbers so the float conversion stays defined and
// horizon arithmetic cannot overflow; clamping keeps the map monotone.
const maxBucket = 1 << 61

// deadlineQueue is the transport's pooled pop-min queue, ordered by the
// content key (deadline, to, from, seq). It is a calendar queue (Brown,
// CACM 31(10), 1988): every message spends at most Delay in flight, so the
// pending deadlines span one short window ahead of the clock, and a ring of
// buckets of fixed width makes push and pop O(1). Records stay in a pooled
// slab and are filed into their bucket's singly linked list, whose links sit
// in a slab of their own: walking a bucket follows a dense 4-byte chain and
// loads each record's key independently of the next link. The head bucket
// is the sorted run: when it empties, the next non-empty bucket is copied
// out, sorted descending by the content key and popped from its end. A push
// at or below the head bucket that is a new minimum is appended to the run;
// any other joins the add list, unsorted but for its least key kept first,
// which is sorted and merged into the run once that key comes due, so a
// burst of equal deadlines (a hub's broadcast) costs one sort. A push past
// the ring's horizon waits on the overflow list until the ring advances to
// it. The width is derived from the contents alone: a re-grid sets it to
// twice the pending deadline span over the bucket count, so fresh sends land
// inside the ring, and runs whenever the population passes 2·bucketLoad per
// bucket or the overflow list holds more than bucketLoad records. When every
// pending deadline is equal the re-grid keeps the old width. The zero value
// is an empty queue with one bucket of infinite width, which re-grids at the
// first push of a second distinct deadline.
type deadlineQueue[P any] struct {
	recs []record[P] // pooled slab; slot 0 is the nil link
	next []int32     // each slot's bucket, overflow or free-list link; 0 ends a list
	free int32       // head of the free list
	over int32       // head of the overflow list
	run  []entry     // the head bucket, sorted by key, min last
	add  []entry     // later pushes into the head bucket, min first
	ring []int32     // bucket list heads; bucket b lives at b & (len−1)
	// cur is the run's bucket number: the ring holds buckets
	// (cur, cur+len(ring)], the overflow list everything past them.
	cur, overMin int64
	inv          float64 // 1 / bucket width; 0 is one bucket of infinite width
	n, inRing    int
	inOver       int
}

// bucket maps a deadline to its bucket number. The map is monotone, so
// bucket order never contradicts deadline order.
func (q *deadlineQueue[P]) bucket(d sim.Time) int64 {
	return int64(max(min(d*q.inv, maxBucket), -maxBucket))
}

// peek returns the earliest pending deadline, or +Inf when none.
func (q *deadlineQueue[P]) peek() sim.Time {
	if len(q.run) == 0 {
		return math.Inf(1)
	}
	return q.run[len(q.run)-1].deadline
}

// entry copies a slot's content key.
func (q *deadlineQueue[P]) entry(slot int32) entry {
	r := &q.recs[slot]
	return entry{r.deadline, r.to, r.from, r.seq, slot}
}

// push files a record. The run is non-empty whenever the queue is, and its
// last entry is the minimum.
func (q *deadlineQueue[P]) push(r record[P]) {
	slot := q.free
	if slot != 0 {
		q.free = q.next[slot]
	} else {
		if len(q.recs) == 0 {
			q.recs, q.next = append(q.recs, record[P]{}), append(q.next, 0)
		}
		slot = int32(len(q.recs))
		q.recs, q.next = append(q.recs, record[P]{}), append(q.next, 0)
	}
	q.recs[slot] = r
	b := q.bucket(r.deadline)
	if q.n == 0 {
		q.cur = b
	}
	q.n++
	if b > q.cur {
		q.file(slot, b)
	} else if e := q.entry(slot); len(q.run) == 0 || q.run[len(q.run)-1].after(e) {
		q.run = append(q.run, e)
	} else {
		q.add = append(q.add, e)
		if last := len(q.add) - 1; q.add[0].after(e) {
			q.add[0], q.add[last] = e, q.add[0]
		}
	}
	if q.n > 2*bucketLoad*len(q.ring) || q.inOver > bucketLoad ||
		q.inv == 0 && q.run[0].deadline != r.deadline {
		q.regrid()
	}
}

// pop removes and returns the earliest record. Its slot is zeroed on the
// way to the free list, so no control payload outlives its delivery.
func (q *deadlineQueue[P]) pop() record[P] {
	last := len(q.run) - 1
	slot := q.run[last].slot
	q.run = q.run[:last]
	r := q.recs[slot]
	q.recs[slot] = record[P]{}
	q.next[slot], q.free = q.free, slot
	q.n--
	if len(q.add) > 0 && (last == 0 || q.run[last-1].after(q.add[0])) {
		q.merge()
	} else if last == 0 && q.n > 0 {
		q.advance()
	}
	return r
}

// merge sorts the add list and merges it into the run from the minimum end.
func (q *deadlineQueue[P]) merge() {
	sortRun(q.add)
	i, j := len(q.run)-1, len(q.add)-1
	q.run = append(q.run, q.add...)
	for k := len(q.run) - 1; j >= 0; k-- {
		if i >= 0 && q.add[j].after(q.run[i]) {
			q.run[k], i = q.run[i], i-1
		} else {
			q.run[k], j = q.add[j], j-1
		}
	}
	q.add = q.add[:0]
}

// file links a slot of bucket b > cur into the ring, or onto the overflow
// list when b lies past the ring's horizon.
func (q *deadlineQueue[P]) file(slot int32, b int64) {
	if b-q.cur <= int64(len(q.ring)) {
		head := &q.ring[b&int64(len(q.ring)-1)]
		q.next[slot], *head = *head, slot
		q.inRing++
		return
	}
	if q.inOver == 0 || b < q.overMin {
		q.overMin = b
	}
	q.next[slot], q.over = q.over, slot
	q.inOver++
}

// advance refills the empty run from the next non-empty bucket, then
// relinks the overflow records the advanced horizon covers.
func (q *deadlineQueue[P]) advance() {
	if q.inRing == 0 {
		q.cur = q.overMin - 1
		q.relink()
	}
	mask := int64(len(q.ring) - 1)
	for q.ring[(q.cur+1)&mask] == 0 {
		q.cur++
	}
	q.cur++
	head := &q.ring[q.cur&mask]
	for s := *head; s != 0; s = q.next[s] {
		q.run = append(q.run, q.entry(s))
	}
	*head = 0
	q.inRing -= len(q.run)
	sortRun(q.run)
	if q.inOver > 0 && q.overMin-q.cur <= int64(len(q.ring)) {
		q.relink()
	}
}

// relink re-files every overflow record.
func (q *deadlineQueue[P]) relink() {
	s := q.over
	q.over, q.inOver = 0, 0
	for s != 0 {
		next := q.next[s]
		q.file(s, q.bucket(q.recs[s].deadline))
		s = next
	}
}

// regrid chains every pending record onto the overflow list and re-files it
// into a ring of at most 2·bucketLoad records per bucket on average, whose
// width spreads the pending deadlines over half the ring; equal deadlines
// have no span and keep the old width.
func (q *deadlineQueue[P]) regrid() {
	for _, part := range [2][]entry{q.run, q.add} {
		for _, e := range part {
			q.next[e.slot], q.over = q.over, e.slot
		}
	}
	q.run, q.add = q.run[:0], q.add[:0]
	for i, s := range q.ring {
		for s != 0 {
			next := q.next[s]
			q.next[s], q.over = q.over, s
			s = next
		}
		q.ring[i] = 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for s := q.over; s != 0; s = q.next[s] {
		lo, hi = min(lo, q.recs[s].deadline), max(hi, q.recs[s].deadline)
	}
	nb := 2 // one bucket could split the span across its horizon
	for 2*bucketLoad*nb < q.n {
		nb <<= 1
	}
	if nb != len(q.ring) {
		q.ring = make([]int32, nb)
	}
	if inv := float64(nb) / (2 * (hi - lo)); inv > 0 && !math.IsInf(inv, 1) {
		q.inv = inv
	}
	q.cur = q.bucket(lo) - 1
	q.inRing = 0
	q.relink()
	q.advance()
}

// bytes returns the queue's retained storage: slab, link slab, run, add
// list and ring.
func (q *deadlineQueue[P]) bytes() uint64 {
	return uint64(cap(q.recs))*uint64(unsafe.Sizeof(record[P]{})) +
		uint64(cap(q.run)+cap(q.add))*uint64(unsafe.Sizeof(entry{})) + uint64(cap(q.next)+cap(q.ring))*4
}

// delivery is the receiver-facing metadata of a record delivered at now.
func (r *record[P]) delivery(now sim.Time) Delivery {
	return Delivery{From: int(r.from), To: int(r.to), Dir: r.dir, At: now, MinTransit: r.minTransit}
}
