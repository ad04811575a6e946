package experiments

import (
	"math"
	"strings"
	"testing"

	gradsync "repro"
)

// TestSuiteQuickAllPass runs the entire reproduction suite at bench scale;
// every experiment's shape assertions must hold. This is the repository's
// end-to-end regression net.
func TestSuiteQuickAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("suite takes a few seconds")
	}
	for _, entry := range All() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			res := entry.Run(Spec{Quick: true, Seed: 1})
			t.Log("\n" + res.String())
			if !res.Pass {
				t.Errorf("%s failed: %v", res.ID, res.Failures)
			}
			if res.Table == nil || len(res.Table.Rows) == 0 {
				t.Errorf("%s produced no table rows", res.ID)
			}
		})
	}
}

// TestSuiteSeedInsensitive spot-checks that the headline experiments hold
// under a different seed (the claims are worst-case, not seed luck).
func TestSuiteSeedInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("suite takes a few seconds")
	}
	for _, entry := range All() {
		switch entry.ID {
		case "E01", "E03", "E05":
			res := entry.Run(Spec{Quick: true, Seed: 777})
			if !res.Pass {
				t.Errorf("%s failed under seed 777: %v", res.ID, res.Failures)
			}
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := newResult("EXX", "demo claim")
	r.Notef("a note with %d parts", 2)
	out := r.String()
	if !strings.Contains(out, "EXX") || !strings.Contains(out, "demo claim") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "PASS") {
		t.Errorf("passing result must say PASS: %q", out)
	}
	r.failf("bad thing %d", 7)
	out = r.String()
	if r.Pass || !strings.Contains(out, "bad thing 7") {
		t.Errorf("failure not rendered: %q", out)
	}
}

func TestAssertHelper(t *testing.T) {
	r := newResult("EXX", "demo")
	r.assert(true, "should not fail")
	if !r.Pass {
		t.Fatal("assert(true) failed the result")
	}
	r.assert(false, "expected failure %d", 1)
	if r.Pass || len(r.Failures) != 1 {
		t.Fatalf("assert(false) not recorded: %+v", r.Failures)
	}
}

func TestSizesHelper(t *testing.T) {
	got := sizes(Spec{Quick: true}, []int{1, 2}, []int{3, 4, 5})
	if len(got) != 2 || got[0] != 1 {
		t.Errorf("quick sizes = %v", got)
	}
	got = sizes(Spec{}, []int{1, 2}, []int{3, 4, 5})
	if len(got) != 3 || got[0] != 3 {
		t.Errorf("full sizes = %v", got)
	}
}

func TestRampHelper(t *testing.T) {
	r := ramp(4, 0.5)
	want := []float64{0, 0.5, 1, 1.5}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ramp = %v, want %v", r, want)
		}
	}
}

func TestLegalEnvelopeProperties(t *testing.T) {
	// With a concave monotone bound the envelope equals the direct bound.
	bound := func(h int) float64 { return 10 * float64(h) }
	env := legalEnvelope(5, bound)
	for d := 1; d < 5; d++ {
		if math.Abs(env[d]-10*float64(d)) > 1e-9 {
			t.Fatalf("env[%d] = %v, want %v", d, env[d], 10*float64(d))
		}
	}
	// With a jagged bound, every pairwise constraint must still hold.
	jagged := func(h int) float64 {
		if h == 3 {
			return 5 // a dip: long jumps cheaper than short ones
		}
		return 4 * float64(h)
	}
	env = legalEnvelope(6, jagged)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			hops := j - i
			if hops < 0 {
				hops = -hops
			}
			if env[j]-env[i] > jagged(hops)+1e-9 {
				t.Errorf("pair (%d,%d): %v − %v exceeds bound %v",
					i, j, env[j], env[i], jagged(hops))
			}
		}
	}
}

func TestSplitLineTopology(t *testing.T) {
	topo := splitLineTopology(8)
	if topo.N() != 8 {
		t.Fatalf("N = %d, want 8", topo.N())
	}
	init := offsetHalves(8, 5)
	if init[3] != 0 || init[4] != 5 {
		t.Fatalf("offsetHalves wrong: %v", init)
	}
}

func TestMergeScenarioRuns(t *testing.T) {
	out, err := runMerge(8, 6, gradsync.AOPT(), 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.bridge.Points) == 0 {
		t.Fatal("no bridge samples recorded")
	}
	// The bridge starts near the offset.
	first := out.bridge.Points[0].V
	if first < 4 {
		t.Errorf("bridge skew right after merge = %v, want ≈ 6", first)
	}
}
