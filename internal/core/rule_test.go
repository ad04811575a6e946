package core

import (
	"math"
	"testing"
)

// TestNextModeBoundaries pins Listing 3's two max-estimate triggers at their
// exact float boundaries: slow at l = m − 1e-12 and not one ulp below it,
// fast at l = m − ι and not one ulp above it. Away from a trigger the node
// keeps its mode, so each probe starts in the mode the trigger would leave.
func TestNextModeBoundaries(t *testing.T) {
	const mu, iota = 0.1, 0.05
	fast := 1 + mu
	for _, m := range []float64{0, 1, 12.345, -7.5} {
		caught := m - 1e-12
		if mult, isFast := NextMode(false, false, caught, m, fast, mu, iota); mult != 1 || isFast {
			t.Errorf("m=%v: l = m−1e-12 decided (%v, %v), want slow", m, mult, isFast)
		}
		below := math.Nextafter(caught, math.Inf(-1))
		if mult, isFast := NextMode(false, false, below, m, fast, mu, iota); mult != fast || !isFast {
			t.Errorf("m=%v: one ulp below m−1e-12 decided (%v, %v), want the fast mode kept", m, mult, isFast)
		}
		behind := m - iota
		if mult, isFast := NextMode(false, false, behind, m, 1, mu, iota); mult != fast || !isFast {
			t.Errorf("m=%v: l = m−ι decided (%v, %v), want fast", m, mult, isFast)
		}
		above := math.Nextafter(behind, math.Inf(1))
		if mult, isFast := NextMode(false, false, above, m, 1, mu, iota); mult != 1 || isFast {
			t.Errorf("m=%v: one ulp above m−ι decided (%v, %v), want the slow mode kept", m, mult, isFast)
		}
	}
}

// TestIntegrateCaughtUp pins Integrate's catch-up test at equality: an M_u
// equal to the stepped L_u is caught up and follows it, and one ulp above
// it advances at mRate.
func TestIntegrateCaughtUp(t *testing.T) {
	l, mult, dh, mRate := 1.0, 1.1, 0.02, 0.99
	stepped := l + mult*dh
	if gotL, gotM := Integrate(l, stepped, mult, dh, mRate); gotL != stepped || gotM != stepped {
		t.Errorf("M = stepped L: Integrate = (%v, %v), want (%v, %v)", gotL, gotM, stepped, stepped)
	}
	ahead := math.Nextafter(stepped, math.Inf(1))
	if _, gotM := Integrate(l, ahead, mult, dh, mRate); gotM != ahead+mRate*dh {
		t.Errorf("M one ulp above the stepped L: M = %v, want %v", gotM, ahead+mRate*dh)
	}
}
