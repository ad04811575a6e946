package csr

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// refRows is the map-backed oracle the CSR structure is diffed against.
type refRows struct {
	m []map[int32]int32
}

func newRefRows(n int) *refRows {
	m := make([]map[int32]int32, n)
	for i := range m {
		m[i] = make(map[int32]int32)
	}
	return &refRows{m: m}
}

// checkEqual verifies every row of r matches the oracle: same keys, same
// values, sorted ascending, and the packed slices agree with Find.
func checkEqual(t *testing.T, r *Rows, ref *refRows) {
	t.Helper()
	total := 0
	for row := range ref.m {
		keys, vals := r.Row(row)
		if len(keys) != len(ref.m[row]) {
			t.Fatalf("row %d: got %d entries, want %d", row, len(keys), len(ref.m[row]))
		}
		total += len(keys)
		want := make([]int32, 0, len(ref.m[row]))
		for k := range ref.m[row] {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i, k := range keys {
			if k != want[i] {
				t.Fatalf("row %d pos %d: key %d, want %d (sorted order broken)", row, i, k, want[i])
			}
			if vals[i] != ref.m[row][k] {
				t.Fatalf("row %d key %d: val %d, want %d", row, k, vals[i], ref.m[row][k])
			}
			if v, ok := r.Find(row, k); !ok || v != ref.m[row][k] {
				t.Fatalf("row %d key %d: Find = (%d,%v), want (%d,true)", row, k, v, ok, ref.m[row][k])
			}
		}
	}
	if int(r.live) != total {
		t.Fatalf("live = %d, want %d", r.live, total)
	}
}

func TestRowsBasic(t *testing.T) {
	r := NewRows(3)
	if _, ok := r.Find(0, 5); ok {
		t.Fatal("Find on empty row succeeded")
	}
	r.Insert(0, 5, 50)
	r.Insert(0, 2, 20)
	r.Insert(0, 9, 90)
	keys, vals := r.Row(0)
	if len(keys) != 3 || keys[0] != 2 || keys[1] != 5 || keys[2] != 9 {
		t.Fatalf("row keys = %v, want [2 5 9]", keys)
	}
	if vals[0] != 20 || vals[1] != 50 || vals[2] != 90 {
		t.Fatalf("row vals = %v, want [20 50 90]", vals)
	}
	if _, ok := r.Find(0, 4); ok {
		t.Fatal("Find of an absent key between present ones succeeded")
	}
	if v, ok := r.Find(0, 9); !ok || v != 90 {
		t.Fatalf("Find(0,9) = (%d,%v), want (90,true)", v, ok)
	}
}

func TestRowsDuplicateInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	r := NewRows(1)
	r.Insert(0, 3, 1)
	r.Insert(0, 3, 2)
}

// checkArena holds the arena to its accounting: it is the rows'
// reservations plus the space relocations abandoned, which the garbage
// count covers together with the entries removed inside reservations, and
// the garbage never exceeds the live entries plus the compaction floor.
func checkArena(t *testing.T, r *Rows) {
	t.Helper()
	reserved := 0
	for row := range r.off {
		reserved += int(r.cap_[row])
	}
	if a := len(r.keys); a < reserved || a > reserved+int(r.dead) || len(r.vals) != a {
		t.Fatalf("arena %d/%d entries, %d reserved and %d garbage", a, len(r.vals), reserved, r.dead)
	}
	if r.dead > r.live+64 {
		t.Fatalf("%d garbage entries for %d live: compaction overdue", r.dead, r.live)
	}
}

// TestRowsDifferentialChurn drives random insert and remove scripts against
// the map oracle and checks full equality after every operation: rows
// outgrow their slack, move to the arena tail and leave garbage, lose
// entries, and compactions reclaim both kinds of garbage.
func TestRowsDifferentialChurn(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 17
		r := NewRows(n)
		ref := newRefRows(n)
		removed := 0
		for op := 0; op < 1500; op++ {
			row := rng.Intn(n)
			key := int32(rng.Intn(40))
			if _, ok := ref.m[row][key]; !ok {
				val := int32(rng.Intn(1000))
				r.Insert(row, key, val)
				ref.m[row][key] = val
			} else if rng.Intn(3) == 0 {
				r.Remove(row, key)
				delete(ref.m[row], key)
				removed++
			}
			checkEqual(t, r, ref)
			checkArena(t, r)
		}
		if r.Rebuilds == 0 || removed == 0 {
			t.Errorf("seed %d: %d compactions and %d removals, want both", seed, r.Rebuilds, removed)
		}
	}
}

// TestRowsRemoveAbsentPanics pins Remove's contract: only an entry that is
// present can be removed.
func TestRowsRemoveAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of an absent key did not panic")
		}
	}()
	r := NewRows(1)
	r.Insert(0, 3, 1)
	r.Remove(0, 4)
}

// TestRowsArenaTracksLiveEntries fills 1,000 rows with 40 entries each, then
// removes all but one from every row: the compactions the removals trigger
// must shrink the arena to a small multiple of what is left, not keep the
// reservations of the full rows.
func TestRowsArenaTracksLiveEntries(t *testing.T) {
	const n, deg = 1000, 40
	r := NewRows(n)
	for row := 0; row < n; row++ {
		for k := int32(0); k < deg; k++ {
			r.Insert(row, k, k)
		}
	}
	full := len(r.keys)
	for row := 0; row < n; row++ {
		for k := int32(1); k < deg; k++ {
			r.Remove(row, k)
		}
	}
	if r.live != n {
		t.Fatalf("live = %d, want %d", r.live, n)
	}
	if len(r.keys) > 8*n {
		t.Fatalf("arena holds %d entries for %d live (%d when full): removals are not reclaimed", len(r.keys), r.live, full)
	}
	checkArena(t, r)
}

// TestRowsCompactionNeverGrowsRows cycles one entry of 1,000 full two-entry
// rows out and back in, a ring's rows under chord churn: the cycles leave no
// garbage, but each removal counts as garbage, so compactions run, and they
// must not hand the rows the slack they never needed.
func TestRowsCompactionNeverGrowsRows(t *testing.T) {
	const n = 1000
	r := NewRows(n)
	for row := 0; row < n; row++ {
		r.Insert(row, 0, 0)
		r.Insert(row, 1, 1)
	}
	arena := len(r.keys)
	for c := 0; c < 100*n; c++ {
		row := c % n
		r.Remove(row, 1)
		r.Insert(row, 1, 1)
	}
	if r.Rebuilds == 0 {
		t.Fatal("remove/insert cycles never compacted")
	}
	if len(r.keys) > arena {
		t.Fatalf("arena grew from %d to %d entries over %d compactions for an unchanged %d live", arena, len(r.keys), r.Rebuilds, r.live)
	}
	checkArena(t, r)
}

// TestRowsCompactionAmortized pins the amortization: building a large ring
// adjacency must trigger O(log) compactions, not O(rows).
func TestRowsCompactionAmortized(t *testing.T) {
	const n = 100000
	r := NewRows(n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		r.Insert(i, int32(j), int32(i))
		r.Insert(j, int32(i), int32(i))
	}
	if r.live != 2*n {
		t.Fatalf("live = %d, want %d", r.live, 2*n)
	}
	if r.Rebuilds > 40 {
		t.Fatalf("building a %d-node ring took %d compactions; amortization broken", n, r.Rebuilds)
	}
}

// FuzzRows feeds arbitrary insert and remove scripts through the CSR
// structure and the map oracle, checking equality after every step. Each op
// is two bytes: the row and the key, over the full byte range, so one row
// can grow far past the compaction floor; an op on a present key removes
// it. The compactSeed script fills one row with 64 keys; on it the
// structure must have compacted at least once.
func FuzzRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 200, 10, 200, 10, 200, 31, 31, 31})
	compactSeed := make([]byte, 0, 128)
	for k := byte(0); k < 64; k++ {
		compactSeed = append(compactSeed, 0, k)
	}
	f.Add(compactSeed)
	f.Fuzz(func(t *testing.T, script []byte) {
		const n = 8
		r := NewRows(n)
		ref := newRefRows(n)
		for i := 0; i+1 < len(script); i += 2 {
			row := int(script[i]) % n
			key := int32(script[i+1])
			if _, ok := ref.m[row][key]; !ok {
				val := int32(i)
				r.Insert(row, key, val)
				ref.m[row][key] = val
			} else {
				r.Remove(row, key)
				delete(ref.m[row], key)
			}
			checkEqual(t, r, ref)
			checkArena(t, r)
		}
		if bytes.Equal(script, compactSeed) && r.Rebuilds == 0 {
			t.Fatal("a 64-key row never triggered a compaction")
		}
	})
}
