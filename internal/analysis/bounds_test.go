package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	tMu  = 0.1
	tRho = 0.0016
)

func TestSigma(t *testing.T) {
	got := Sigma(tMu, tRho)
	want := (1 - tRho) * tMu / (2 * tRho)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Sigma = %v, want %v", got, want)
	}
	if !math.IsInf(Sigma(tMu, 0), 1) {
		t.Error("Sigma with ρ=0 should be +Inf")
	}
}

func TestValidateRates(t *testing.T) {
	tests := []struct {
		name    string
		mu, rho float64
		wantErr bool
	}{
		{"valid", 0.1, 0.001, false},
		{"mu too large (eq 7)", 0.2, 0.001, true},
		{"mu zero", 0, 0.001, true},
		{"rho zero", 0.1, 0, true},
		{"rho one", 0.1, 1, true},
		{"sigma below one", 0.01, 0.01, true}, // σ = 0.99·0.01/0.02 < 1
		{"mu NaN", math.NaN(), 0.001, true},
		{"rho NaN", 0.1, math.NaN(), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateRates(tc.mu, tc.rho)
			if (err != nil) != tc.wantErr {
				t.Errorf("ValidateRates(%v, %v) = %v, wantErr %v", tc.mu, tc.rho, err, tc.wantErr)
			}
		})
	}
}

func TestKappaAndDelta(t *testing.T) {
	eps, tau := 0.2, 0.1
	minK := MinKappa(eps, tau, tMu)
	if want := 4 * (eps + tMu*tau); minK != want {
		t.Errorf("MinKappa = %v, want %v", minK, want)
	}
	k := Kappa(eps, tau, tMu, 1.2)
	if k <= minK {
		t.Errorf("Kappa = %v not above the eq. (9) minimum %v", k, minK)
	}
	lo, hi := DeltaRange(k, eps, tau, tMu)
	if lo != 0 || hi <= 0 {
		t.Errorf("DeltaRange = (%v, %v); want positive-width interval from 0", lo, hi)
	}
}

func TestBRange(t *testing.T) {
	if got, want := BMin(0.0), 320.0*128; got != want {
		t.Errorf("BMin(0) = %v, want %v", got, want)
	}
	// eq. (12) requires BMax ≥ BMin; that holds only for tiny ρ.
	rho := tMu / (2 * BMin(0.001))
	if BMax(tMu, rho) < BMin(rho) {
		t.Errorf("for ρ=%v the eq. (12) window is empty: [%v, %v]", rho, BMin(rho), BMax(tMu, rho))
	}
}

func TestInsertionDurationStaticMatchesPaperExample(t *testing.T) {
	// §5.5: for µ ≤ 1/100 (so ρ ≤ µ/100), (2I+G̃)/(1−ρ) < 43·G̃/µ.
	mu, rho := 0.01, 0.0001
	g := 5.0
	ins := InsertionDurationStatic(g, mu, rho)
	if lhs, rhs := (2*ins+g)/(1-rho), 43*g/mu; lhs >= rhs {
		t.Errorf("(2I+G̃)/(1−ρ) = %v, paper claims < %v", lhs, rhs)
	}
	// Formula is linear in G̃.
	if r := InsertionDurationStatic(10, mu, rho) / ins; math.Abs(r-2) > 1e-9 {
		t.Errorf("I(2G̃)/I(G̃) = %v, want 2", r)
	}
}

func TestInsertionDurationDynamicPowerOfTwo(t *testing.T) {
	f := func(gRaw, bRaw uint16) bool {
		g := float64(gRaw%1000) + 1
		b := BMin(tRho) + float64(bRaw)
		ins := InsertionDurationDynamic(g, tMu, tRho, b, 0.1, 0.05)
		l2 := math.Log2(ins)
		return math.Abs(l2-math.Round(l2)) < 1e-9 && ins >= 8*b*g/tMu
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionBaseOnGrid(t *testing.T) {
	if got := InsertionBase(10.1, 4); got != 12 {
		t.Errorf("InsertionBase(10.1, 4) = %v, want 12", got)
	}
	if got := InsertionBase(12, 4); got != 12 {
		t.Errorf("InsertionBase(12, 4) = %v, want 12 (already on grid)", got)
	}
}

func TestInsertionTimesListing2(t *testing.T) {
	t0, ins := 100.0, 64.0
	if got := InsertionTime(t0, ins, 1); got != t0 {
		t.Errorf("T_1 = %v, want T_0 = %v", got, t0)
	}
	if got := InsertionTime(t0, ins, 2); got != t0+ins/2 {
		t.Errorf("T_2 = %v, want %v", got, t0+ins/2)
	}
	if got := InsertionTime(t0, ins, 3); got != t0+0.75*ins {
		t.Errorf("T_3 = %v, want %v", got, t0+0.75*ins)
	}
	// Monotone increasing and converging below T_0 + I.
	prev := math.Inf(-1)
	for s := 1; s <= 40; s++ {
		v := InsertionTime(t0, ins, s)
		if v <= prev {
			t.Fatalf("T_%d = %v not increasing (prev %v)", s, v, prev)
		}
		if v >= t0+ins {
			t.Fatalf("T_%d = %v beyond T_0+I", s, v)
		}
		prev = v
	}
}

func TestLevelAt(t *testing.T) {
	t0, ins := 100.0, 64.0
	tests := []struct {
		l    float64
		want int
	}{
		{99, 0},
		{100, 1},
		{100 + 31.9, 1},
		{100 + 32, 2},
		{100 + 48, 3},
		{100 + 63.9, 10},
		{100 + 64, InfLevel},
		{1e9, InfLevel},
	}
	for _, tc := range tests {
		if got := LevelAt(tc.l, t0, ins); got != tc.want {
			t.Errorf("LevelAt(%v) = %d, want %d", tc.l, got, tc.want)
		}
	}
}

// Property: LevelAt is consistent with InsertionTime — at every sampled L,
// T_level ≤ L < T_{level+1}.
func TestLevelAtConsistencyProperty(t *testing.T) {
	f := func(lRaw uint32, insRaw uint16) bool {
		ins := float64(insRaw%1000) + 1
		t0 := 50.0
		l := t0 + float64(lRaw)/float64(math.MaxUint32)*ins*1.1 - 0.05*ins
		lvl := LevelAt(l, t0, ins)
		switch {
		case lvl == 0:
			return l < t0
		case lvl == InfLevel:
			return l >= t0+ins
		default:
			return InsertionTime(t0, ins, lvl) <= l && l < InsertionTime(t0, ins, lvl+1)
		}
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLevelAtMonotoneInL(t *testing.T) {
	t0, ins := 10.0, 100.0
	prev := -1
	for l := 0.0; l < 120; l += 0.25 {
		lvl := LevelAt(l, t0, ins)
		if lvl < prev {
			t.Fatalf("LevelAt not monotone: level dropped from %d to %d at l=%v", prev, lvl, l)
		}
		prev = lvl
	}
}

func TestStandardSeqShape(t *testing.T) {
	gHat := 10.0
	sigma := 3.0
	seq := StandardSeq(gHat, sigma)
	if seq(1) != 2*gHat || seq(2) != 2*gHat {
		t.Errorf("C_1, C_2 = %v, %v; want both 2Ĝ", seq(1), seq(2))
	}
	for s := 2; s < 10; s++ {
		if math.Abs(seq(s+1)-seq(s)/sigma) > 1e-9 {
			t.Errorf("C_%d/C_%d = %v, want σ", s, s+1, seq(s)/seq(s+1))
		}
	}
}

func TestGradientSkewBoundShape(t *testing.T) {
	gHat, sigma := 100.0, 3.0
	// The bound per unit weight decreases as the path gets heavier:
	// short paths are allowed proportionally more skew.
	prevPerUnit := math.Inf(1)
	for _, k := range []float64{1, 2, 4, 8, 16, 32} {
		b := GradientSkewBound(gHat, sigma, k)
		perUnit := b / k
		if perUnit > prevPerUnit+1e-9 {
			t.Errorf("per-unit bound increased at κ_p=%v: %v > %v", k, perUnit, prevPerUnit)
		}
		prevPerUnit = perUnit
	}
	// For κ_p ≥ 4Ĝ the level is 2 and the bound is simply 3κ_p... the level
	// formula: s(p) = max(2 + ceil(log_σ(4Ĝ/κ_p)), 1).
	if lvl := StableLevel(gHat, sigma, 4*gHat); lvl != 2 {
		t.Errorf("StableLevel at κ_p = 4Ĝ: got %d, want 2", lvl)
	}
	if lvl := StableLevel(gHat, sigma, 4*gHat*sigma*sigma); lvl != 1 {
		t.Errorf("StableLevel at very heavy path: got %d, want 1", lvl)
	}
}

func TestGlobalDecayRatePositive(t *testing.T) {
	if GlobalDecayRate(tMu, tRho) <= 0 {
		t.Errorf("decay rate %v not positive for valid params", GlobalDecayRate(tMu, tRho))
	}
	// µ(1−ρ) − 2ρ exact value.
	if got, want := GlobalDecayRate(0.1, 0.01), 0.1*0.99-0.02; math.Abs(got-want) > 1e-12 {
		t.Errorf("GlobalDecayRate = %v, want %v", got, want)
	}
}

func TestStabilizationTimeBoundLinearInG(t *testing.T) {
	b1 := StabilizationTimeBound(1, tMu, tRho, 0.1)
	b2 := StabilizationTimeBound(2, tMu, tRho, 0.1)
	if b2 <= b1 {
		t.Errorf("stabilization bound not increasing in G̃: %v vs %v", b1, b2)
	}
}

// TestLemma71SeparationProperty checks the insertion-grid separation: for
// any two edges inserted with (possibly different) global skew estimates
// under eq. (11), their level insertion times either coincide (same level)
// or are at least min(I, I')/(2⁷·4^(min(s,s')−2)) apart.
func TestLemma71SeparationProperty(t *testing.T) {
	f := func(gRawA, gRawB uint16, kA, kB uint8, sA, sB uint8) bool {
		b := BMin(tRho)
		gA := float64(gRawA%500) + 1
		gB := float64(gRawB%500) + 1
		iA := InsertionDurationDynamic(gA, tMu, tRho, b, 0.1, 0.05)
		iB := InsertionDurationDynamic(gB, tMu, tRho, b, 0.1, 0.05)
		// T₀ grids: arbitrary multiples of the respective durations.
		t0A := float64(kA%32) * iA
		t0B := float64(kB%32) * iB
		lvlA := int(sA%10) + 1
		lvlB := int(sB%10) + 1
		tsA := InsertionTimeDynamic(t0A, iA, lvlA)
		tsB := InsertionTimeDynamic(t0B, iB, lvlB)
		diff := math.Abs(tsA - tsB)
		minLvl := lvlA
		if lvlB < minLvl {
			minLvl = lvlB
		}
		minIns := math.Min(iA, iB)
		sep := minIns / (128 * math.Pow(4, float64(minLvl-2)))
		if lvlA == lvlB && diff < 1e-9 {
			return true // same level, same time is allowed by the lemma
		}
		return diff >= sep-1e-6
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("Lemma 7.1 separation violated: %v", err)
	}
}

// TestGradientSeqNonIncreasingProperty: gradient sequences must be
// non-increasing in the level (Definition 5.7).
func TestGradientSeqNonIncreasingProperty(t *testing.T) {
	f := func(gRaw uint16, sigmaRaw uint8) bool {
		g := float64(gRaw%1000) + 1
		sigma := float64(sigmaRaw%50) + 1.5
		seq := StandardSeq(g, sigma)
		prev := math.Inf(1)
		for s := 1; s <= 30; s++ {
			v := seq(s)
			if v > prev+1e-12 || v <= 0 {
				return false
			}
			prev = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionTimeDynamicShape(t *testing.T) {
	t0, ins := 64.0, 64.0
	// T_1 = T0 + (2/3)I, converging to T0 + I, strictly increasing.
	if got, want := InsertionTimeDynamic(t0, ins, 1), t0+ins*2/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("T_1 = %v, want %v", got, want)
	}
	prev := math.Inf(-1)
	for s := 1; s <= 40; s++ {
		v := InsertionTimeDynamic(t0, ins, s)
		if v <= prev || v >= t0+ins {
			t.Fatalf("T_%d = %v not strictly increasing below T0+I", s, v)
		}
		prev = v
	}
}

func TestLevelAtDynamicConsistencyProperty(t *testing.T) {
	f := func(lRaw uint32, insRaw uint16) bool {
		ins := float64(insRaw%1000) + 1
		t0 := 50.0
		l := t0 + float64(lRaw)/float64(math.MaxUint32)*ins*1.1 - 0.05*ins
		lvl := LevelAtDynamic(l, t0, ins)
		switch {
		case lvl == 0:
			return l < InsertionTimeDynamic(t0, ins, 1)
		case lvl == InfLevel:
			return l >= t0+ins
		default:
			return InsertionTimeDynamic(t0, ins, lvl) <= l && l < InsertionTimeDynamic(t0, ins, lvl+1)
		}
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
