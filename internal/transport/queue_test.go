package transport

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refRec is one entry of the reference model: a plain sorted slice of
// content keys, the obviously-correct queue the calendar queue is checked
// against. id is what the record's payload carries.
type refRec struct {
	deadline sim.Time
	to, from int32
	seq      uint32
	id       int
}

func (a refRec) less(b refRec) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.to != b.to {
		return a.to < b.to
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.seq < b.seq
}

// queueModel drives a deadlineQueue and the reference side by side from a
// byte stream. Two bytes make one op: a kind and a parameter.
type queueModel[P any] struct {
	t    testing.TB
	q    deadlineQueue[P]
	ref  []refRec
	now  sim.Time // the last popped deadline: the clock of the queue's owner
	seqs [4]uint32
	ids  int
	mix  uint64 // deterministic deadline stream for bulk pushes
	// coverage: the ring's peak size and whether the overflow list was used
	maxRing  int
	overflow bool
	wrap     func(int) P
	id       func(P) int
}

// quantum is the deadline grid step: exact binary fractions, so equal
// deadlines — broken by to, then from, then seq — are common.
const quantum = 1.0 / 1024

func (m *queueModel[P]) push(deadline sim.Time, to, from int32) {
	r := refRec{deadline: deadline, to: to, from: from, seq: m.seqs[from], id: m.ids}
	m.seqs[from]++
	m.ids++
	m.q.push(record[P]{from: from, to: to, seq: r.seq, deadline: deadline, payload: m.wrap(r.id)})
	i := sort.Search(len(m.ref), func(i int) bool { return r.less(m.ref[i]) })
	m.ref = append(m.ref, refRec{})
	copy(m.ref[i+1:], m.ref[i:])
	m.ref[i] = r
}

// transit is a delivery delay in [0.05, 0.1), the default link window.
func transit(p byte) sim.Time { return 0.05 + float64(p%51)*quantum }

func (m *queueModel[P]) pop() {
	got := m.q.pop()
	want := m.ref[0]
	m.ref = m.ref[1:]
	if got.deadline != want.deadline || got.to != want.to || got.from != want.from ||
		got.seq != want.seq || m.id(got.payload) != want.id {
		m.t.Fatalf("pop = (%v, to %d, from %d, seq %d, id %d), want (%v, to %d, from %d, seq %d, id %d)",
			got.deadline, got.to, got.from, got.seq, m.id(got.payload),
			want.deadline, want.to, want.from, want.seq, want.id)
	}
	m.now = got.deadline
}

func (m *queueModel[P]) check() {
	want := math.Inf(1)
	if len(m.ref) > 0 {
		want = m.ref[0].deadline
	}
	if got := m.q.peek(); got != want || m.q.n != len(m.ref) {
		m.t.Fatalf("peek = %v with %d pending, want %v with %d", got, m.q.n, want, len(m.ref))
	}
	m.maxRing = max(m.maxRing, len(m.q.ring))
	m.overflow = m.overflow || m.q.inOver > 0
}

// step applies one op.
func (m *queueModel[P]) step(kind, p byte) {
	to, from := int32(p%4), int32(p>>2%4)
	switch kind % 8 {
	case 0, 1, 2:
		m.push(m.now+transit(p), to, from)
	case 3: // at or below the head bucket, ties with the head included
		d := m.now
		if len(m.ref) > 0 {
			d = m.ref[0].deadline - float64(p>>4%4)*quantum
		}
		m.push(d, to, from)
	case 4: // past the ring's horizon (just past it, to land on the overflow list)
		d := m.now + 1 + float64(p)*0.5
		if m.q.inv > 0 {
			d = max(m.now, float64(m.q.cur+int64(len(m.q.ring))+1+int64(p>>4%4))/m.q.inv)
		}
		m.push(d, to, from)
	case 5: // zero transit
		m.push(m.now, to, from)
	case 6:
		if len(m.ref) > 0 {
			m.pop()
		}
	case 7:
		switch p % 4 {
		case 0, 2: // a burst large enough to cross re-grids
			for i := 0; i < 16+int(p); i++ {
				m.mix = sim.SplitMix64(m.mix)
				b := byte(m.mix >> 8)
				m.push(m.now+transit(b), int32(b%4), int32(m.mix>>16%4))
			}
		case 3: // a hub's broadcast: one deadline, receivers rising or falling
			d := m.now + transit(p>>3)
			if p&4 != 0 {
				d = m.now
			}
			for i, count := 0, 16+int(p); i < count; i++ {
				to := int32(4 * i / count)
				if p&128 != 0 {
					to = 3 - to
				}
				m.push(d, to, int32(p>>5%4))
			}
		case 1:
			for len(m.ref) > 0 { // drain to empty; the queue is refilled later
				m.pop()
				m.check()
			}
			for slot := range m.q.recs {
				if !reflect.ValueOf(&m.q.recs[slot].payload).Elem().IsZero() {
					m.t.Fatalf("free record %d still holds a payload", slot)
				}
			}
		}
	}
	m.check()
}

// runQueueModel replays ops and drains the queue, returning the ring's peak
// size and whether any record waited on the overflow list.
func runQueueModel[P any](t testing.TB, ops []byte, wrap func(int) P, id func(P) int) (int, bool) {
	m := &queueModel[P]{t: t, wrap: wrap, id: id, mix: uint64(len(ops))}
	for i := 0; i+1 < len(ops); i += 2 {
		m.step(ops[i], ops[i+1])
	}
	for len(m.ref) > 0 {
		m.pop()
		m.check()
	}
	return m.maxRing, m.overflow
}

func beaconModel(t testing.TB, ops []byte) (int, bool) {
	return runQueueModel(t, ops, func(i int) Beacon { return Beacon{L: float64(i)} }, func(b Beacon) int { return int(b.L) })
}

func controlModel(t testing.TB, ops []byte) (int, bool) {
	return runQueueModel(t, ops, func(i int) any { return i }, func(p any) int { return p.(int) })
}

// TestDeadlineQueueMatchesSortedSlice interleaves random pushes, peeks and
// pops on the calendar queue and on a sorted slice, for both payload types,
// and requires identical results: equal deadlines broken by to, from and
// seq, pushes at or below the head bucket and past the ring's horizon, zero
// transit, draining to empty and refilling, and populations that cross
// several re-grids.
func TestDeadlineQueueMatchesSortedSlice(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		ops := make([]byte, 4000)
		rng.Read(ops)
		model := beaconModel
		if trial%2 == 1 {
			model = controlModel
		}
		if maxRing, overflow := model(t, ops); maxRing < 16 || !overflow {
			t.Fatalf("trial %d: ring peaked at %d buckets, overflow used %v — want ≥ 16 (several re-grids) and true",
				trial, maxRing, overflow)
		}
	}
}

// TestDeadlineQueueEqualDeadlines pins the width rule on equal deadlines,
// which have no span to derive a width from: a fresh queue keeps its one
// infinite bucket through a burst of them and re-grids at the first other
// deadline, and a re-grid over equal deadlines keeps the old width. Either
// way a later deadline is filed past the head bucket, not into the run.
func TestDeadlineQueueEqualDeadlines(t *testing.T) {
	var q deadlineQueue[Beacon]
	for i := 0; i < 1000; i++ {
		q.push(record[Beacon]{to: int32(i), deadline: 1})
	}
	if q.inv != 0 || len(q.run)+len(q.add) != 1000 {
		t.Fatalf("after one deadline: width 1/%v, %d in the head bucket, want infinite and 1000", q.inv, len(q.run)+len(q.add))
	}
	q.push(record[Beacon]{deadline: 1.5})
	inv := q.inv
	if inv == 0 || q.bucket(1.5) <= q.cur {
		t.Fatalf("after a second deadline: width 1/%v, bucket %d at head %d, want finite and past the head", inv, q.bucket(1.5), q.cur)
	}
	for q.n > 0 {
		q.pop()
	}
	for i := 0; i < 4000; i++ { // crosses re-grids with no span
		q.push(record[Beacon]{to: int32(i), deadline: 2})
	}
	if q.inv != inv || len(q.ring) < 4000/(2*bucketLoad) {
		t.Fatalf("after equal deadlines: width 1/%v over %d buckets, want 1/%v over ≥ %d", q.inv, len(q.ring), inv, 4000/(2*bucketLoad))
	}
	if q.push(record[Beacon]{deadline: 2.5}); q.bucket(2.5) <= q.cur {
		t.Fatalf("deadline 2.5 in bucket %d at head %d, want past the head", q.bucket(2.5), q.cur)
	}
	for to := int32(0); q.n > 1; to++ {
		if r := q.pop(); r.deadline != 2 || r.to != to {
			t.Fatalf("pop = (%v, to %d), want (2, to %d)", r.deadline, r.to, to)
		}
	}
}

// FuzzDeadlineQueue drives the same model harness from fuzz bytes.
func FuzzDeadlineQueue(f *testing.F) {
	f.Add([]byte{0, 1, 1, 7, 2, 9, 6, 0, 3, 0, 3, 17, 6, 0, 6, 0})
	f.Add([]byte{7, 40, 4, 3, 4, 200, 6, 0, 5, 2, 3, 33, 7, 1, 0, 5, 6, 0})
	f.Add([]byte{7, 100, 7, 102, 7, 1, 7, 98, 4, 1, 4, 2, 4, 3, 4, 4, 4, 5, 4, 6, 4, 7, 4, 8, 4, 9, 7, 1})
	f.Add([]byte{7, 131, 0, 9, 7, 3, 6, 0, 7, 135, 3, 0, 6, 0, 7, 1, 7, 227, 5, 1, 6, 0, 6, 0, 7, 139})
	f.Fuzz(func(t *testing.T, ops []byte) {
		beaconModel(t, ops)
		controlModel(t, ops)
	})
}
