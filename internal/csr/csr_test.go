package csr

import (
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
	if r.Len() != total {
		t.Fatalf("Len() = %d, want %d", r.Len(), total)
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
	if !r.Remove(0, 5) {
		t.Fatal("Remove of present key failed")
	}
	if r.Remove(0, 5) {
		t.Fatal("Remove of absent key succeeded")
	}
	if _, ok := r.Find(0, 5); ok {
		t.Fatal("Find after Remove succeeded")
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

// TestRowsDifferentialChurn drives random insert/remove scripts against the
// map oracle and checks full equality after every operation.
func TestRowsDifferentialChurn(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 17
		r := NewRows(n)
		ref := newRefRows(n)
		for op := 0; op < 4000; op++ {
			row := rng.Intn(n)
			key := int32(rng.Intn(24))
			if rng.Intn(3) != 0 { // bias toward inserts so rows grow
				if _, ok := ref.m[row][key]; !ok {
					val := int32(rng.Intn(1000))
					r.Insert(row, key, val)
					ref.m[row][key] = val
				}
			} else {
				_, want := ref.m[row][key]
				if got := r.Remove(row, key); got != want {
					t.Fatalf("seed %d op %d: Remove(%d,%d) = %v, want %v", seed, op, row, key, got, want)
				}
				delete(ref.m[row], key)
			}
			checkEqual(t, r, ref)
		}
		if r.Rebuilds == 0 {
			t.Errorf("seed %d: churn script never triggered a compaction", seed)
		}
	}
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
	if r.Len() != 2*n {
		t.Fatalf("Len = %d, want %d", r.Len(), 2*n)
	}
	if r.Rebuilds > 40 {
		t.Fatalf("building a %d-node ring took %d compactions; amortization broken", n, r.Rebuilds)
	}
}

// FuzzRows feeds arbitrary operation scripts through the CSR structure and
// the map oracle, checking equality after every step.
func FuzzRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 200, 10, 200, 10, 200, 31, 31, 31})
	f.Fuzz(func(t *testing.T, script []byte) {
		const n = 8
		r := NewRows(n)
		ref := newRefRows(n)
		for i := 0; i+1 < len(script); i += 2 {
			row := int(script[i]) % n
			key := int32(script[i+1] % 16)
			if script[i]&0x80 == 0 {
				if _, ok := ref.m[row][key]; !ok {
					val := int32(script[i+1])
					r.Insert(row, key, val)
					ref.m[row][key] = val
				}
			} else {
				_, want := ref.m[row][key]
				if got := r.Remove(row, key); got != want {
					t.Fatalf("op %d: Remove(%d,%d) = %v, want %v", i, row, key, got, want)
				}
				delete(ref.m[row], key)
			}
		}
		checkEqual(t, r, ref)
	})
}
