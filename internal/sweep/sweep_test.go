package sweep

import (
	"math"
	"repro/internal/sim"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

func TestDeriveDeterministicAndDistinct(t *testing.T) {
	if Derive(1, 0) != Derive(1, 0) {
		t.Fatal("Derive is not a pure function")
	}
	seen := map[int64]bool{}
	for root := int64(0); root < 4; root++ {
		for i := int64(0); i < 64; i++ {
			s := Derive(root, i)
			if s < 0 {
				t.Fatalf("Derive(%d,%d) = %d is negative", root, i, s)
			}
			if seen[s] {
				t.Fatalf("Derive(%d,%d) collided", root, i)
			}
			seen[s] = true
		}
	}
	// Lineage matters: (1,2) and (2,1) are different streams.
	if Derive(7, 1, 2) == Derive(7, 2, 1) {
		t.Error("Derive ignores part order")
	}
}

func TestSeedsPrefixStable(t *testing.T) {
	small := Seeds(42, 4)
	large := Seeds(42, 16)
	for i, s := range small {
		if large[i] != s {
			t.Fatalf("Seeds(42,16)[%d] = %d, want %d: growing a sweep must keep earlier replicas", i, large[i], s)
		}
	}
}

func TestMapOrderIndependentOfParallelism(t *testing.T) {
	fn := func(i int) int64 { return Derive(9, int64(i)) }
	want := Map(100, 1, fn)
	for _, par := range []int{0, 2, 3, 8, 200} {
		got := Map(100, par, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: out[%d] = %d, want %d", par, i, got[i], want[i])
			}
		}
	}
	if Map(0, 4, fn) != nil {
		t.Error("Map(0, ...) should be nil")
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	Map(64, 4, func(int) struct{} {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		for i := 0; i < 1000; i++ {
			_ = sim.SplitMix64(uint64(i))
		}
		cur.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 4 {
		t.Errorf("observed %d concurrent workers, want ≤ 4", p)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-1.2909944487358056) > 1e-12 {
		t.Errorf("sample stddev = %v", s.Std)
	}
	if got := Summarize(nil); !math.IsNaN(got.Mean) {
		t.Errorf("empty summary mean = %v, want NaN", got.Mean)
	}
	if got := Summarize([]float64{5, 5}).String(); got != "5" {
		t.Errorf("degenerate spread renders %q, want plain mean", got)
	}
	if got := s.String(); got != "2.5±1.3" {
		t.Errorf("String() = %q", got)
	}
}

func TestTablesAggregation(t *testing.T) {
	mk := func(v float64) *metrics.Table {
		tb := metrics.NewTable("demo", "n", "skew", "verdict")
		tb.AddRow(8, v, "ok")
		return tb
	}
	agg := Tables([]*metrics.Table{mk(1), mk(2), mk(3)})
	row := agg.Rows[0]
	if row[0] != "8" {
		t.Errorf("identical parameter cell rewritten: %q", row[0])
	}
	if row[1] != "2±1" {
		t.Errorf("varying numeric cell = %q, want mean±std", row[1])
	}
	if row[2] != "ok" {
		t.Errorf("identical string cell rewritten: %q", row[2])
	}

	// Varying non-numeric cells collapse; single/nil inputs pass through.
	a := metrics.NewTable("t", "c")
	a.AddRow("yes")
	b := metrics.NewTable("t", "c")
	b.AddRow("no")
	if got := Tables([]*metrics.Table{a, b}).Rows[0][0]; got != "·" {
		t.Errorf("varying string cell = %q, want ·", got)
	}
	if Tables([]*metrics.Table{nil, a, nil}) != a {
		t.Error("single live table should pass through unchanged")
	}
	if Tables(nil) != nil {
		t.Error("no tables should aggregate to nil")
	}
}

func TestTablesRaggedClipped(t *testing.T) {
	a := metrics.NewTable("t", "x")
	a.AddRow(1)
	a.AddRow(2)
	b := metrics.NewTable("t", "x")
	b.AddRow(3)
	agg := Tables([]*metrics.Table{a, b})
	if len(agg.Rows) != 1 || agg.Rows[0][0] != "2±1.4" {
		t.Errorf("ragged aggregate = %+v", agg.Rows)
	}
}
