package sim

import "math/rand"

// RNG wraps a seeded source so simulations are reproducible. All randomness
// in the repository flows through an RNG owned by the scenario, never through
// package-level global state (per the style guide: no mutable globals).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uint64 returns a uniform 64-bit value (seed material for derived
// compact streams, e.g. the base of an array of per-node Streams).
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// SplitMixGamma is the SplitMix64 stream increment — the golden-ratio odd
// constant from Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators" (2014).
const SplitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 is the SplitMix64 step: advance x by SplitMixGamma and return
// the finalized (bijectively mixed) output. It is the canonical mixer for
// deriving well-separated deterministic streams from structured inputs —
// the sweep layer's seed derivation and Stream both build on it; keep the
// one implementation here.
func SplitMix64(x uint64) uint64 {
	x += SplitMixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a compact SplitMix64 value stream: 8 bytes of state, advanced
// by value. Arrays of Streams give each entity its own deterministic
// sequence whose draws depend only on the entity's identity and draw count
// — never on the global interleaving of other entities' draws. The
// randomized adversaries all draw this way: the transport's per-sender
// delays, the oracle's per-node estimate errors and the random walk's
// per-node rate paths. That is what lets the sharded tick and event drain
// consume randomness concurrently and still match the serial run bit for
// bit.
type Stream struct {
	state uint64
}

// NewStream derives the idx-th well-separated stream from a base seed.
// Streams derived from the same (base, idx) are identical across runs.
func NewStream(base uint64, idx int) Stream {
	return Stream{state: SplitMix64(base + uint64(idx)*SplitMixGamma)}
}

// Uint64 returns the stream's next uniform 64-bit value.
func (s *Stream) Uint64() uint64 {
	out := SplitMix64(s.state)
	s.state += SplitMixGamma
	return out
}

// Float64 returns the stream's next uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns the stream's next uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + (hi-lo)*s.Float64()
}

// Skip leaves the stream where k more draws would leave it, in one step:
// each draw advances the state by SplitMixGamma (mod 2⁶⁴).
func (s *Stream) Skip(k uint64) { s.state += k * SplitMixGamma }

// Exp returns an exponential sample with the given mean (Poisson event
// gaps). A non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Split derives an independent child generator. Children created in the same
// order from the same parent are identical across runs.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}
