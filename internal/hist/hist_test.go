package hist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and bucket
	// indices must be monotone in the value.
	for b := 0; b < numBuckets; b++ {
		if got := bucketOf(bucketLow(b)); got != b {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", b, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
	}
}

func TestSmallValuesExact(t *testing.T) {
	h := &Hist{}
	for v := int64(0); v < 16; v++ {
		h.Add(v)
	}
	for v := int64(0); v < 16; v++ {
		q := float64(v) / 15
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, v)
		}
	}
}

func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := &Hist{}
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, the latency shape the histogram is for.
		v := int64(1) << uint(rng.Intn(30))
		v += rng.Int63n(v)
		vals = append(vals, v)
		h.Add(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		rel := float64(got-exact) / float64(exact)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.07 {
			t.Errorf("Quantile(%v) = %d, exact %d, rel err %.3f > 7%%", q, got, exact, rel)
		}
	}
}

func TestMergeMatchesCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b, both := &Hist{}, &Hist{}, &Hist{}
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		both.Add(v)
	}
	a.Merge(b)
	if a.total != both.total {
		t.Fatalf("merged count %d != combined %d", a.total, both.total)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("Quantile(%v): merged %d != combined %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

func TestAtomicMatchesPlain(t *testing.T) {
	var a Atomic
	h := &Hist{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				a.Add(rng.Int63n(1 << 25))
			}
		}(int64(g))
	}
	wg.Wait()
	// Rebuild the same distribution serially: same seeds, same draws.
	for g := 0; g < 8; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < 2000; i++ {
			h.Add(rng.Int63n(1 << 25))
		}
	}
	if a.Count() != h.total {
		t.Fatalf("atomic count %d != plain %d", a.Count(), h.total)
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != h.Quantile(q) {
			t.Fatalf("Quantile(%v): atomic %d != plain %d", q, a.Quantile(q), h.Quantile(q))
		}
	}
}

func TestEmptyAndClamp(t *testing.T) {
	h := &Hist{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	h.Add(-5) // clamps to 0
	if h.Quantile(0) != 0 || h.total != 1 {
		t.Fatalf("negative add mishandled: %d at count %d", h.Quantile(0), h.total)
	}
	var a Atomic
	if a.Quantile(0.99) != 0 {
		t.Fatal("empty atomic histogram should report 0")
	}
}
