// Package csr provides the flat building blocks of the structure-of-arrays
// memory layout (DESIGN.md §Structure-of-arrays layout):
//
//   - Rows: a CSR-style adjacency structure mapping (row, key) → val with
//     int32 ids, packed per-row storage with small over-allocation slack,
//     and amortized relocation/compaction as rows grow and shrink, so the
//     arena tracks the live entries, not every entry ever inserted.
//   - Grow: the resize step of a flat slab indexed by slots.
//
// Both are deliberately free of interior pointers: a Rows over E edges costs
// three int32 headers per row plus 2×4 bytes per packed entry, against
// ≈50 bytes per entry for a Go map of pointers — and the per-row entries are
// contiguous, so O(deg) hot loops stream cache lines instead of chasing heap
// objects.
//
// Concurrency contract: Find, Len and Row are safe to call concurrently
// with each other (they only read); Insert and Remove mutate shared arrays
// and must run in serial contexts (global engine events — declares and
// topology transitions), never inside a sharded tick or drain window.
package csr

import "fmt"

// Rows maps (row, key) → val. Keys within a row are kept sorted ascending,
// so iteration order is deterministic and lookups are early-exit scans —
// rows in this repo are node adjacencies with small degree, where a linear
// scan of one cache line beats binary search and far beats a map probe.
type Rows struct {
	off   []int32 // row start into keys/vals
	cap_  []int32 // row capacity (entries reserved at off)
	count []int32 // row live entries
	keys  []int32
	vals  []int32
	live  int32 // total live entries
	dead  int32 // arena entries abandoned by relocation or removal

	// Rebuilds counts full compactions; tests assert amortization.
	Rebuilds int
}

// NewRows creates an empty structure with n rows. Rows start with zero
// capacity; the first insert into a row relocates it into the arena.
func NewRows(n int) *Rows {
	return &Rows{
		off:   make([]int32, n),
		cap_:  make([]int32, n),
		count: make([]int32, n),
	}
}

// slack is the over-allocation a row receives when it is (re)located:
// enough that the next relocation is a constant factor of inserts away.
func slack(count int32) int32 {
	s := count / 4
	if s < 2 {
		s = 2
	}
	return s
}

// Find returns the value stored for key in row, if any.
func (r *Rows) Find(row int, key int32) (int32, bool) {
	o := r.off[row]
	keys := r.keys[o : o+r.count[row]]
	for i, k := range keys {
		if k >= key {
			if k == key {
				return r.vals[o+int32(i)], true
			}
			break
		}
	}
	return 0, false
}

// Len returns the number of live entries in row.
func (r *Rows) Len(row int) int { return int(r.count[row]) }

// Row returns the live keys and values of a row as slices into the packed
// arrays. The slices are invalidated by the next Insert or Remove on any
// row.
func (r *Rows) Row(row int) (keys, vals []int32) {
	o, c := r.off[row], r.count[row]
	return r.keys[o : o+c], r.vals[o : o+c]
}

// Insert stores (key → val) in row, keeping the row sorted. Inserting a key
// that is already present panics: every caller checks Find first, so a
// duplicate insert is a corrupted-invariant bug, not a request to update.
func (r *Rows) Insert(row int, key, val int32) {
	if r.count[row] == r.cap_[row] {
		r.relocate(row)
	}
	o, c := r.off[row], r.count[row]
	// Sorted insertion from the back (new keys are commonly the largest).
	i := c
	for i > 0 && r.keys[o+i-1] > key {
		r.keys[o+i] = r.keys[o+i-1]
		r.vals[o+i] = r.vals[o+i-1]
		i--
	}
	if i > 0 && r.keys[o+i-1] == key {
		panic(fmt.Sprintf("csr: duplicate insert of key %d in row %d", key, row))
	}
	r.keys[o+i] = key
	r.vals[o+i] = val
	r.count[row] = c + 1
	r.live++
}

// Remove deletes key from row, keeping the row sorted. Removing a key that
// is absent panics, as a duplicate Insert does: every caller removes an
// entry it inserted. The freed entry counts as garbage towards the next
// compaction, which shrinks every row's reservation to at most its live
// entries plus slack, so a row that lost most of its entries gives the
// space back.
func (r *Rows) Remove(row int, key int32) {
	o, c := r.off[row], r.count[row]
	keys, vals := r.keys[o:o+c], r.vals[o:o+c]
	i := 0
	for i < len(keys) && keys[i] < key {
		i++
	}
	if i == len(keys) || keys[i] != key {
		panic(fmt.Sprintf("csr: remove of absent key %d in row %d", key, row))
	}
	copy(keys[i:], keys[i+1:])
	copy(vals[i:], vals[i+1:])
	r.count[row] = c - 1
	r.live--
	r.dead++
	r.maybeCompact()
}

// relocate moves a full row to the arena tail with fresh slack. The old
// storage becomes garbage until the next compaction; per-row geometric slack
// keeps the number of relocations per row logarithmic in its degree.
func (r *Rows) relocate(row int) {
	o, c := r.off[row], r.count[row]
	newCap := c + slack(c)
	r.dead += r.cap_[row]
	r.off[row] = int32(len(r.keys))
	r.cap_[row] = newCap
	r.keys = append(r.keys, r.keys[o:o+c]...)
	r.vals = append(r.vals, r.vals[o:o+c]...)
	for i := c; i < newCap; i++ {
		r.keys = append(r.keys, 0)
		r.vals = append(r.vals, 0)
	}
	r.maybeCompact()
}

// maybeCompact rebuilds the arena in row-major order once the garbage left
// by relocations and removals exceeds the live data (plus a floor so tiny
// structures never compact). A removed entry stays counted after an insert
// reuses its room, so a compaction can find less garbage than counted; it
// then only repacks, since it never grows a row. Amortized: a compaction of
// cost O(rows+live) requires Ω(live) prior relocation or removal.
func (r *Rows) maybeCompact() {
	if r.dead <= r.live+64 {
		return
	}
	r.Rebuilds++
	nk := make([]int32, 0, r.live+r.live/4+2*int32(len(r.off)))
	nv := make([]int32, 0, cap(nk))
	for row := range r.off {
		o, c := r.off[row], r.count[row]
		// A row keeps at most its entries plus slack, and never gains room:
		// a row that lost nothing keeps its reservation, however often
		// removals elsewhere compact the arena.
		newCap := min(r.cap_[row], c+slack(c))
		if c == 0 {
			// Empty rows get no reservation: the first insert relocates.
			newCap = 0
		}
		r.off[row] = int32(len(nk))
		r.cap_[row] = newCap
		nk = append(nk, r.keys[o:o+c]...)
		nv = append(nv, r.vals[o:o+c]...)
		for i := c; i < newCap; i++ {
			nk = append(nk, 0)
			nv = append(nv, 0)
		}
	}
	r.keys, r.vals = nk, nv
	r.dead = 0
}

// Grow returns s extended with zero values to length n, or s itself when
// it is already that long — the resize step of a slab indexed by slots
// (append's amortized growth, no temporary for the zeros).
func Grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}
