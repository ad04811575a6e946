package topo

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// layoutPair drives the structure-of-arrays graph and the map-backed
// reference in lockstep: same node count, same scripted operations, and —
// because detection lags are drawn from per-graph RNGs seeded identically
// and the scripts are identical — the same lag draws in the same order.
type layoutPair struct {
	soaEng, refEng *sim.Engine
	soa, ref       *Dynamic
}

func newLayoutPair(n int, seed int64) *layoutPair {
	p := &layoutPair{soaEng: sim.NewEngine(), refEng: sim.NewEngine()}
	p.soa = NewDynamic(n, p.soaEng, sim.NewRNG(seed))
	p.ref = NewDynamic(n, p.refEng, sim.NewRNG(seed))
	p.ref.SetReferenceLayout(true)
	return p
}

// check asserts full observable equality of the two graphs at the current
// time: declared edges, both-up edges, and per-pair Sees/BothUp/UpSince/
// AgeBoth/Params/Neighbors for every declared pair and endpoint.
func (p *layoutPair) check(t *testing.T, ctx string) {
	t.Helper()
	now := p.soaEng.Now()
	if rn := p.refEng.Now(); rn != now {
		t.Fatalf("%s: engines diverged: soa t=%v ref t=%v", ctx, now, rn)
	}
	sd := p.soa.DeclaredEdges(nil)
	rd := p.ref.DeclaredEdges(nil)
	if len(sd) != len(rd) {
		t.Fatalf("%s: declared %d edges, reference %d", ctx, len(sd), len(rd))
	}
	for i := range sd {
		if sd[i] != rd[i] {
			t.Fatalf("%s: declared edge %d: %v vs reference %v", ctx, i, sd[i], rd[i])
		}
	}
	su := p.soa.EdgesBothUp(nil)
	ru := p.ref.EdgesBothUp(nil)
	if len(su) != len(ru) {
		t.Fatalf("%s: both-up %d edges, reference %d", ctx, len(su), len(ru))
	}
	for i := range su {
		if su[i] != ru[i] {
			t.Fatalf("%s: both-up edge %d: %v vs reference %v", ctx, i, su[i], ru[i])
		}
	}
	ss := p.soa.StableEdges(now, 0.05, nil)
	rs := p.ref.StableEdges(now, 0.05, nil)
	if len(ss) != len(rs) {
		t.Fatalf("%s: stable %d edges, reference %d", ctx, len(ss), len(rs))
	}
	if p.soa.MinTransit() != p.ref.MinTransit() {
		t.Fatalf("%s: MinTransit %v vs reference %v", ctx, p.soa.MinTransit(), p.ref.MinTransit())
	}
	for _, id := range sd {
		for _, pair := range [][2]int{{id.U, id.V}, {id.V, id.U}} {
			u, v := pair[0], pair[1]
			if got, want := p.soa.Sees(u, v), p.ref.Sees(u, v); got != want {
				t.Fatalf("%s: Sees(%d,%d) = %v, reference %v", ctx, u, v, got, want)
			}
			if got, want := p.soa.BothUp(u, v), p.ref.BothUp(u, v); got != want {
				t.Fatalf("%s: BothUp(%d,%d) = %v, reference %v", ctx, u, v, got, want)
			}
			gt, gok := p.soa.UpSince(u, v)
			wt, wok := p.ref.UpSince(u, v)
			if gt != wt || gok != wok {
				t.Fatalf("%s: UpSince(%d,%d) = (%v,%v), reference (%v,%v)", ctx, u, v, gt, gok, wt, wok)
			}
			ga, gaok := p.soa.AgeBoth(u, v, now)
			wa, waok := p.ref.AgeBoth(u, v, now)
			if ga != wa || gaok != waok {
				t.Fatalf("%s: AgeBoth(%d,%d) = (%v,%v), reference (%v,%v)", ctx, u, v, ga, gaok, wa, waok)
			}
			gp, gpok := p.soa.Params(u, v)
			wp, wpok := p.ref.Params(u, v)
			if gp != wp || gpok != wpok {
				t.Fatalf("%s: Params(%d,%d) = (%v,%v), reference (%v,%v)", ctx, u, v, gp, gpok, wp, wpok)
			}
			// Both layouts number slots alike, so directed indices agree,
			// and the index-keyed reads agree with the pair-keyed ones.
			gd, gdok := p.soa.Dir(u, v)
			wd, wdok := p.ref.Dir(u, v)
			if gd != wd || gdok != wdok || !gdok {
				t.Fatalf("%s: Dir(%d,%d) = (%v,%v), reference (%v,%v)", ctx, u, v, gd, gdok, wd, wdok)
			}
			if (gd&1 == 1) != (u > v) {
				t.Fatalf("%s: Dir(%d,%d) = %d has the wrong side", ctx, u, v, gd)
			}
			for _, g := range []*Dynamic{p.soa, p.ref} {
				if g.SeesAt(gd) != g.Sees(u, v) || g.ParamsAt(gd) != gp {
					t.Fatalf("%s: SeesAt/ParamsAt(%d) disagree with Sees/Params(%d,%d)", ctx, gd, u, v)
				}
			}
		}
	}
	if got := p.soa.DirCap(); got != p.ref.DirCap() || got != 2*p.soa.slots.Cap() {
		t.Fatalf("%s: DirCap %d, reference %d", ctx, got, p.ref.DirCap())
	}
	entries := 0
	for u := 0; u < p.soa.N(); u++ {
		peers, dirs := p.soa.Row(u)
		entries += len(peers)
		for i, v := range peers {
			if d, ok := p.ref.Dir(u, int(v)); !ok || d != dirs[i] {
				t.Fatalf("%s: Row(%d) holds (%d, %d), reference Dir (%d, %v)", ctx, u, v, dirs[i], d, ok)
			}
		}
	}
	if entries != 2*len(sd) {
		t.Fatalf("%s: rows hold %d entries for %d declared links", ctx, entries, len(sd))
	}
	var sn, rn []int
	for u := 0; u < p.soa.N(); u++ {
		sn = p.soa.Neighbors(u, sn[:0])
		rn = p.ref.Neighbors(u, rn[:0])
		if len(sn) != len(rn) {
			t.Fatalf("%s: Neighbors(%d) = %v, reference %v", ctx, u, sn, rn)
		}
		for i := range sn {
			if sn[i] != rn[i] {
				t.Fatalf("%s: Neighbors(%d) = %v, reference %v", ctx, u, sn, rn)
			}
		}
	}
}

// runScript executes one churn script step-by-step, checking equality after
// every operation and after every engine advance. Byte values map to
// operations over a small node universe, so the fuzz target can share it.
func runLayoutScript(t *testing.T, script []byte) {
	t.Helper()
	const n = 9
	p := newLayoutPair(n, 42)
	params := []LinkParams{
		DefaultLinkParams(),
		{Eps: 0.1, Tau: 0, Delay: 0.2, Uncertainty: 0.1},   // τ=0: inline transitions
		{Eps: 0.3, Tau: 0.25, Delay: 0.15, Uncertainty: 0}, // long τ: overlapping flaps
	}
	for i := 0; i+2 < len(script); i += 3 {
		a := int(script[i]) % n
		b := int(script[i+1]) % n
		if a == b {
			continue
		}
		op := script[i+2] % 6
		ctx := ""
		switch op {
		case 0, 1:
			lp := params[int(script[i+2]/6)%len(params)]
			e1 := p.soa.DeclareLink(a, b, lp)
			e2 := p.ref.DeclareLink(a, b, lp)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: DeclareLink(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "declare"
		case 2:
			e1 := p.soa.Appear(a, b)
			e2 := p.ref.Appear(a, b)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: Appear(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "appear"
		case 3:
			e1 := p.soa.Disappear(a, b)
			e2 := p.ref.Disappear(a, b)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: Disappear(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "disappear"
		case 4:
			e1 := p.soa.Undeclare(a, b)
			e2 := p.ref.Undeclare(a, b)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("op %d: Undeclare(%d,%d) err %v vs reference %v", i, a, b, e1, e2)
			}
			ctx = "undeclare"
		case 5:
			dt := 0.01 + float64(script[i+2]>>3)/256.0
			p.soaEng.RunUntil(p.soaEng.Now() + dt)
			p.refEng.RunUntil(p.refEng.Now() + dt)
			ctx = "advance"
		}
		p.check(t, ctx)
	}
	// Drain all pending detections and compare the settled state.
	p.soaEng.RunUntil(p.soaEng.Now() + 1)
	p.refEng.RunUntil(p.refEng.Now() + 1)
	p.check(t, "drain")
}

// TestLayoutDifferentialChurn runs random declare/appear/disappear/undeclare
// scripts (with interleaved time advances, so lagged detections land) on the
// slab layout and the map reference, asserting observable equality after
// every step. Enough operations that slot free-list recycling and CSR row
// relocation/compaction all trigger.
func TestLayoutDifferentialChurn(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*400)
		rng.Read(script)
		runLayoutScript(t, script)
	}
}

// FuzzTopoChurn lets the fuzzer hunt for operation interleavings where the
// slab layout and the map reference disagree.
func FuzzTopoChurn(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 2, 0, 1, 5, 0, 1, 3, 0, 1, 4})
	f.Add([]byte{3, 4, 6, 3, 4, 2, 3, 4, 2, 3, 4, 3, 3, 4, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*600 {
			script = script[:3*600]
		}
		runLayoutScript(t, script)
	})
}

// TestUndeclare pins the free-list lifecycle: undeclare requires the edge to
// be fully down, frees the slot for reuse, and drops it from every view.
func TestUndeclare(t *testing.T) {
	engine := sim.NewEngine()
	d := NewDynamic(4, engine, sim.NewRNG(1))
	if err := d.DeclareLink(0, 1, DefaultLinkParams()); err != nil {
		t.Fatal(err)
	}
	if err := d.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Undeclare(0, 1); err == nil {
		t.Fatal("Undeclare of a visible link succeeded")
	}
	if err := d.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(engine.Now() + 1)
	if err := d.Undeclare(0, 1); err != nil {
		t.Fatalf("Undeclare of a down link failed: %v", err)
	}
	if err := d.Undeclare(0, 1); err == nil {
		t.Fatal("double Undeclare succeeded")
	}
	if _, ok := d.Params(0, 1); ok {
		t.Fatal("Params after Undeclare succeeded")
	}
	if d.Sees(0, 1) || d.Sees(1, 0) {
		t.Fatal("Sees after Undeclare")
	}
	if got := d.DeclaredEdges(nil); len(got) != 0 {
		t.Fatalf("DeclaredEdges after Undeclare = %v", got)
	}
	// The freed slot is recycled by the next declare.
	if err := d.DeclareLink(2, 3, DefaultLinkParams()); err != nil {
		t.Fatal(err)
	}
	if err := d.AppearInstant(2, 3); err != nil {
		t.Fatal(err)
	}
	if !d.BothUp(2, 3) {
		t.Fatal("recycled edge not up")
	}
	if d.Sees(0, 1) {
		t.Fatal("recycled slot leaked old pair's visibility")
	}
}

// TestUndeclareCancelsPendingDetection: an in-flight appearance detection
// must not resurrect an undeclared edge.
func TestUndeclareCancelsPendingDetection(t *testing.T) {
	for _, ref := range []bool{false, true} {
		engine := sim.NewEngine()
		d := NewDynamic(2, engine, sim.NewRNG(1))
		d.SetReferenceLayout(ref)
		if err := d.DeclareLink(0, 1, LinkParams{Eps: 0.2, Tau: 0.5, Delay: 0.1, Uncertainty: 0}); err != nil {
			t.Fatal(err)
		}
		if err := d.Appear(0, 1); err != nil {
			t.Fatal(err)
		}
		// Undeclare while both detections are still pending.
		if err := d.Undeclare(0, 1); err != nil {
			t.Fatalf("ref=%v: %v", ref, err)
		}
		engine.RunUntil(2)
		if d.Sees(0, 1) || d.Sees(1, 0) {
			t.Fatalf("ref=%v: cancelled detection still fired", ref)
		}
	}
}

// TestRedeclareVisibleLink pins DeclareLink's contract on both layouts:
// re-declaring a link either endpoint sees is an error when the parameters
// change (and leaves the old ones in force), a no-op when they do not, and
// an update once both endpoints have lost the link.
func TestRedeclareVisibleLink(t *testing.T) {
	narrow := DefaultLinkParams()
	wide := narrow
	wide.Eps = 0.8
	for _, ref := range []bool{false, true} {
		engine := sim.NewEngine()
		d := NewDynamic(3, engine, sim.NewRNG(1))
		d.SetReferenceLayout(ref)
		if err := d.DeclareLink(0, 1, narrow); err != nil {
			t.Fatal(err)
		}
		if err := d.Appear(0, 1); err != nil {
			t.Fatal(err)
		}
		// Run to the first detection: one endpoint sees the link.
		engine.RunUntil(engine.PeekNext())
		if d.Sees(0, 1) == d.Sees(1, 0) {
			t.Fatalf("ref=%v: want exactly one endpoint to see the link", ref)
		}
		if err := d.DeclareLink(1, 0, wide); err == nil {
			t.Fatalf("ref=%v: re-declare with new parameters while visible to one endpoint succeeded", ref)
		}
		engine.RunUntil(engine.Now() + 1)
		if err := d.DeclareLink(0, 1, wide); err == nil {
			t.Fatalf("ref=%v: re-declare with new parameters while visible succeeded", ref)
		}
		if p, _ := d.Params(0, 1); p != narrow {
			t.Fatalf("ref=%v: rejected re-declare changed the parameters to %+v", ref, p)
		}
		if err := d.DeclareLink(0, 1, narrow); err != nil {
			t.Fatalf("ref=%v: re-declare with unchanged parameters while visible: %v", ref, err)
		}
		if err := d.Disappear(0, 1); err != nil {
			t.Fatal(err)
		}
		engine.RunUntil(engine.Now() + 1)
		if err := d.DeclareLink(0, 1, wide); err != nil {
			t.Fatalf("ref=%v: re-declare while down: %v", ref, err)
		}
		if p, _ := d.Params(1, 0); p != wide {
			t.Fatalf("ref=%v: re-declare while down left parameters %+v", ref, p)
		}
	}
}
