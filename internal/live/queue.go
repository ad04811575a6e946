package live

import (
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// QueuePolicy selects what a full per-peer send queue does with a new
// message.
type QueuePolicy int

const (
	// DropNewest rejects the offered message and counts it as dropped — the
	// default, and the right behavior for beacon traffic: a beacon is
	// superseded by the next one, so shedding load at the sender under
	// back-pressure costs only estimate staleness (which the certification
	// window already accounts for; see estimate.LocalBeacons).
	DropNewest QueuePolicy = iota
	// Block parks the sender until space frees up or the queue closes —
	// lossless, at the price of coupling the sender's cadence to the
	// slowest consumer.
	Block
)

// Envelope is one in-flight live-mode beacon: the wire frame's fields in
// their in-process form (see transport.BeaconMsg for the on-wire encoding).
type Envelope struct {
	From, To   int
	SentAt     float64
	MinTransit float64
	B          transport.Beacon
}

// SendQueue is a bounded FIFO between one producer and one consumer pump —
// the per-peer send queue of the live transport (the sendQueueCapacity
// idiom; see DESIGN.md §Live transport). Capacity is fixed at construction;
// a full queue either drops or blocks per the policy. All methods are safe
// for concurrent use, though the intended shape is one offering goroutine
// (the sending node) and one popping goroutine (the delivery pump or the
// TCP writer).
type SendQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	buf      []Envelope
	head     int // index of the oldest element
	n        int // live element count
	closed   bool

	// Counters are atomics so Stats folds them at read time without taking
	// q.mu — stats queries never contend with the producer or the pump.
	enqueued, dropped atomic.Uint64
	policy            QueuePolicy
}

// NewSendQueue builds a queue holding at most capacity envelopes.
func NewSendQueue(capacity int, policy QueuePolicy) *SendQueue {
	if capacity < 1 {
		capacity = 1
	}
	q := &SendQueue{buf: make([]Envelope, capacity), policy: policy}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Offer enqueues e. Under DropNewest a full queue rejects e immediately and
// returns false; under Block it waits for space. A closed queue always
// returns false.
func (q *SendQueue) Offer(e Envelope) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == len(q.buf) && !q.closed {
		if q.policy == DropNewest {
			q.dropped.Add(1)
			return false
		}
		q.notFull.Wait()
	}
	if q.closed {
		q.dropped.Add(1)
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
	q.enqueued.Add(1)
	q.notEmpty.Signal()
	return true
}

// Pop dequeues the oldest envelope, blocking until one is available. ok is
// false once the queue is closed and drained.
func (q *SendQueue) Pop() (Envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		return Envelope{}, false
	}
	e := q.buf[q.head]
	q.buf[q.head] = Envelope{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.notFull.Signal()
	return e, true
}

// Close wakes every waiter. Pending envelopes remain poppable; subsequent
// offers are dropped.
func (q *SendQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// Len returns the current number of queued envelopes.
func (q *SendQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Enqueued returns the number of envelopes accepted so far (lock-free).
func (q *SendQueue) Enqueued() uint64 { return q.enqueued.Load() }

// Dropped returns the number of envelopes rejected (full under DropNewest,
// or offered after Close). Lock-free.
func (q *SendQueue) Dropped() uint64 { return q.dropped.Load() }
