package drift

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const rho = 0.01

// checkEnvelope asserts rates stay within [1−ρ, 1+ρ] over a sampled grid.
func checkEnvelope(t *testing.T, s Schedule, n int, horizon float64) {
	t.Helper()
	for u := 0; u < n; u++ {
		for x := 0.0; x <= horizon; x += horizon / 50 {
			r := s.Rate(u, x)
			if r < 1-rho-1e-12 || r > 1+rho+1e-12 {
				t.Fatalf("rate(%d, %v) = %v outside [1−ρ, 1+ρ]", u, x, r)
			}
		}
	}
}

func TestSchedulesRespectEnvelope(t *testing.T) {
	rng := sim.NewRNG(1)
	tests := []struct {
		name string
		s    Schedule
	}{
		{"constant", constant{r: 1 + rho}},
		{"perfect", Perfect()},
		{"twogroup", TwoGroup{Rho: rho, Split: 4}},
		{"linear", Linear{Rho: rho, N: 8}},
		{"sinusoid", Sinusoid{Rho: rho, Period: 10, PhasePerNode: 0.1}},
		{"flip", Flip{Rho: rho, Period: 5}},
		{"randomwalk", NewRandomWalk(rho, 1, 8, rng)},
		{"switching", Switching{Inner: TwoGroup{Rho: rho, Split: 4}, From: 10, Until: 20}},
		{"pernode", perNode{Rates: map[int]float64{0: 1 + rho, 1: 1 - rho}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkEnvelope(t, tc.s, 8, 100)
		})
	}
}

// perNode assigns each node an individually fixed rate; missing entries run
// at rate 1.
type perNode struct {
	Rates map[int]float64
}

func (p perNode) Rate(u int, _ sim.Time) float64 {
	if r, ok := p.Rates[u]; ok {
		return r
	}
	return 1
}

func TestTwoGroupSplit(t *testing.T) {
	g := TwoGroup{Rho: rho, Split: 3}
	if got := g.Rate(0, 0); got != 1+rho {
		t.Errorf("node 0 rate = %v, want fast", got)
	}
	if got := g.Rate(2, 0); got != 1+rho {
		t.Errorf("node 2 rate = %v, want fast", got)
	}
	if got := g.Rate(3, 0); got != 1-rho {
		t.Errorf("node 3 rate = %v, want slow", got)
	}
}

func TestLinearEndpoints(t *testing.T) {
	l := Linear{Rho: rho, N: 5}
	if got := l.Rate(0, 0); got != 1+rho {
		t.Errorf("first node rate = %v, want 1+ρ", got)
	}
	if got := l.Rate(4, 0); got != 1-rho {
		t.Errorf("last node rate = %v, want 1−ρ", got)
	}
	if got := l.Rate(2, 0); got != 1 {
		t.Errorf("middle node rate = %v, want 1", got)
	}
	if got := (Linear{Rho: rho, N: 1}).Rate(0, 0); got != 1 {
		t.Errorf("single-node linear rate = %v, want 1", got)
	}
}

func TestSwitchingWindow(t *testing.T) {
	s := Switching{Inner: constant{r: 1 + rho}, From: 10, Until: 20}
	if got := s.Rate(0, 5); got != 1 {
		t.Errorf("before window rate = %v, want 1", got)
	}
	if got := s.Rate(0, 15); got != 1+rho {
		t.Errorf("inside window rate = %v, want 1+ρ", got)
	}
	if got := s.Rate(0, 25); got != 1 {
		t.Errorf("after window rate = %v, want 1", got)
	}
}

func TestRandomWalkDeterministicAndConsistent(t *testing.T) {
	a := NewRandomWalk(rho, 1, 4, sim.NewRNG(9))
	b := NewRandomWalk(rho, 1, 4, sim.NewRNG(9))
	// Query in identical order: identical paths.
	for i := 0; i < 50; i++ {
		x := float64(i) * 0.7
		if a.Rate(i%4, x) != b.Rate(i%4, x) {
			t.Fatal("same-seed random walks diverged")
		}
	}
	// Re-querying an earlier time returns the same value (piecewise constant).
	v1 := a.Rate(0, 3.2)
	v2 := a.Rate(0, 3.9)
	if v1 != v2 {
		t.Errorf("values within one step differ: %v vs %v", v1, v2)
	}
}

// TestRandomWalkOrderIndependent builds three walks from one seed and
// extends them tick by tick in ascending node order, in descending node
// order, and from four goroutines over disjoint node sets, as the sharded
// tick calls Rate. Each node's path must be the same in all three.
func TestRandomWalkOrderIndependent(t *testing.T) {
	const n, ticks, workers = 13, 60, 4
	walk := func() *RandomWalk { return NewRandomWalk(rho, 1.5, n, sim.NewRNG(9)) }
	asc, desc, conc := walk(), walk(), walk()
	for i := 0; i < ticks; i++ {
		x := float64(i) * 0.5
		for u := 0; u < n; u++ {
			asc.Rate(u, x)
		}
		for u := n - 1; u >= 0; u-- {
			desc.Rate(u, x)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ticks; i++ {
				for u := g; u < n; u += workers {
					conc.Rate(u, float64(i)*0.5)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, w := range []struct {
		name string
		w    *RandomWalk
	}{{"descending", desc}, {"concurrent", conc}} {
		for u := 0; u < n; u++ {
			for i := 0; i < ticks; i++ {
				x := float64(i) * 0.5
				if got, want := w.w.Rate(u, x), asc.Rate(u, x); got != want {
					t.Fatalf("%s order: node %d's rate at %v is %v, ascending order gave %v", w.name, u, x, got, want)
				}
			}
		}
	}
}

// TestRandomWalkRetainsOneSegment walks 100 nodes through 10⁴ segments, as
// the runtime queries them, and requires the live heap to stay flat: a walk
// that kept every segment would hold 8 MB. Earlier-time queries afterwards
// must still return the values first drawn for those segments.
func TestRandomWalkRetainsOneSegment(t *testing.T) {
	const n, steps = 100, 10000
	w := NewRandomWalk(rho, 1, n, sim.NewRNG(4))
	first := make([][3]float64, n) // segments 0, 1 and steps/2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i <= steps; i++ {
		for u := 0; u < n; u++ {
			r := w.Rate(u, float64(i)+0.5)
			switch i {
			case 0, 1:
				first[u][i] = r
			case steps / 2:
				first[u][2] = r
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("live heap grew by %d B over %d segments of %d nodes; want O(n)", grown, steps, n)
	}
	for u := n - 1; u >= 0; u-- {
		for j, x := range []float64{0.25, 1.75, steps/2 + 0.25} {
			if got := w.Rate(u, x); got != first[u][j] {
				t.Fatalf("node %d's rate at %v is %v on a second query, first %v", u, x, got, first[u][j])
			}
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(raw float64, rhoRaw uint8) bool {
		r := 1 + raw/100
		rho := float64(rhoRaw%10+1) / 100
		c := Clamp(r, rho)
		return c >= 1-rho && c <= 1+rho && (r < 1-rho || r > 1+rho || c == r)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
