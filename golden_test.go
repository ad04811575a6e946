package gradsync_test

// Golden fingerprints: the exact bits of five small full runs, pinned as
// constants: three AOPT runs and one run of each baseline. The layout, shard and tick-crossing differentials compare two
// code paths of one tree against each other; these constants compare the
// tree against the code that produced them, so a refactor of the storage
// layout or the trigger fold that changes any clock, counter or message
// count fails here even when every differential still agrees with itself.
// A deliberate behaviour change must regenerate them (run with -v: each
// case logs its fresh values).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	gradsync "repro"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/scenario"
)

// goldenCase is one pinned configuration and its expected fingerprint.
type goldenCase struct {
	name    string
	horizon float64
	build   func() gradsync.Config
	// active requires the run to reach the paths its pin is meant to cover:
	// for AOPT, FastTicks, MissingEstimates and Insertions all above zero
	// (the fast mode, the missing-estimate path and completed insertion
	// handshakes); for BlockSync, fast and slow ticks; for MaxSync, jumps.
	active   bool
	state    string // sha256 over the bits of every L_u, M_u, H_u
	counters string
}

// sawtooth returns initial clocks that climb by gap per node and drop back
// every period nodes, so some neighbours start far ahead and some far
// behind: both gradient triggers fire from the first tick.
func sawtooth(n, period int, gap float64) []float64 {
	out := make([]float64, n)
	for u := range out {
		out[u] = float64(u%period) * gap
	}
	return out
}

// chords returns k distinct diameter chords (u, u+n/2) of an n-node ring.
func chords(n, k int) []scenario.Pair {
	out := make([]scenario.Pair, 0, k)
	for i := 0; i < k; i++ {
		u := i * (n / 2) / k
		out = append(out, scenario.Pair{u, u + n/2})
	}
	return out
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name:    "ring-messaging-churn",
			horizon: 40,
			build: func() gradsync.Config {
				return gradsync.Config{
					Topology:         gradsync.RingTopology(64),
					DiameterHint:     32,
					Drift:            gradsync.TwoGroupDrift(32),
					Estimates:        gradsync.MessagingEstimates(false),
					Scenario:         &scenario.Churn{Every: 1.5, Pairs: chords(64, 8)},
					TickParallelism:  2,
					EventParallelism: 2,
					Seed:             7,
				}
			},
			state:    "c3aebdae47ecedcc040e8bf41ea6cedd707092b70d261d1b8421df055d9164f9",
			counters: "fast=665 slow=127271 missing=1195 insertions=28 aborts=0 misses=1195 sent=21772 dropped=9",
		},
		{
			name:    "geometric-waves-oracle",
			horizon: 30,
			build: func() gradsync.Config {
				const n = 64
				radius := 1 / (0.45 * n)
				geo := &scenario.RandomGeometric{Radius: radius, StepEvery: 0.02}
				initial := geo.InitialEdges(n)
				edges := make([][2]int, len(initial))
				for i, p := range initial {
					edges[i] = [2]int(p)
				}
				waves := &scenario.ChurnWaves{WaveEvery: 4, BurstSize: 6, Spacing: 0.3, Pairs: chords(n, 12)}
				return gradsync.Config{
					Topology:         gradsync.CustomTopology(n, edges),
					DiameterHint:     n/4 + 2,
					Drift:            gradsync.TwoGroupDrift(n / 2),
					Scenario:         scenario.Compose(geo, waves),
					TickParallelism:  2,
					EventParallelism: 2,
					Seed:             11,
				}
			},
			state:    "1349827c34135d7e22f7fb993c3f17bba8a9a670a83db8a3b7bfb01bf0b4a8f5",
			counters: "fast=420 slow=95580 missing=0 insertions=933 aborts=0 misses=0 sent=14766 dropped=402",
		},
		{
			name:    "grid-decaying-waves-messaging",
			horizon: 40,
			active:  true,
			build: func() gradsync.Config {
				return gradsync.Config{
					Topology:  gradsync.GridTopology(6, 6),
					Algorithm: gradsync.AOPTDecaying(),
					Drift:     gradsync.TwoGroupDrift(18),
					Estimates: gradsync.MessagingEstimates(true),
					Scenario: scenario.Compose(
						&scenario.ChurnWaves{WaveEvery: 3, BurstSize: 4, Spacing: 0.2},
						&scenario.EdgeFlap{U: 0, V: 35, At: 5, Period: 0.15, Flaps: 9},
					),
					TickParallelism:  2,
					EventParallelism: 2,
					Seed:             5,
				}
			},
			state:    "882a3df22d93d6a493c319454c48c1b05cb82381f5254e3b8f7b077a435e5a92",
			counters: "fast=733 slow=71231 missing=1120 insertions=89 aborts=0 misses=1120 sent=25645 dropped=5",
		},
		{
			// S is small against ε, so at times both BlockSync triggers hold
			// at once and Listing 3's case order decides the mode.
			name:    "ring-blocksync-sawtooth",
			horizon: 30,
			active:  true,
			build: func() gradsync.Config {
				return gradsync.Config{
					Topology:         gradsync.RingTopology(24),
					Algorithm:        gradsync.BlockSyncAlgo(0.5),
					Drift:            gradsync.TwoGroupDrift(12),
					Estimates:        gradsync.MessagingEstimates(false),
					InitialClocks:    sawtooth(24, 6, 0.6),
					TickParallelism:  2,
					EventParallelism: 2,
					Seed:             3,
				}
			},
			state:    "3254feba9aa7cefb792e3e0125cc94b79f6f1b1895dfac1ff7d6a8fcd6ba5deb",
			counters: "fast=17418 slow=18582 sent=5762 dropped=0",
		},
		{
			name:    "ring-maxsync-sawtooth",
			horizon: 30,
			active:  true,
			build: func() gradsync.Config {
				return gradsync.Config{
					Topology:         gradsync.RingTopology(24),
					Algorithm:        gradsync.MaxSyncAlgo(),
					Drift:            gradsync.TwoGroupDrift(12),
					Estimates:        gradsync.MessagingEstimates(false),
					InitialClocks:    sawtooth(24, 6, 0.6),
					TickParallelism:  2,
					EventParallelism: 2,
					Seed:             3,
				}
			},
			state:    "318023395cfe115d6cd0412fb5aaef2f09a034605eac6e2c901bd326337aa92b",
			counters: "jumps=173 sent=5762 dropped=0",
		},
	}
}

// goldenFingerprint runs the network to the horizon and returns the state
// hash and the counter line.
func goldenFingerprint(t *testing.T, c goldenCase) (state, counters string) {
	t.Helper()
	net, err := gradsync.New(c.build())
	if err != nil {
		t.Fatal(err)
	}
	net.RunFor(c.horizon)
	rt := net.Runtime()
	h := sha256.New()
	var b [24]byte
	for u := 0; u < net.N(); u++ {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(net.Logical(u)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(net.MaxEstimate(u)))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(rt.HW[u]))
		h.Write(b[:])
	}
	traffic := fmt.Sprintf("sent=%d dropped=%d", rt.Net.Sent(), rt.Net.Dropped())
	switch a := rt.Algo().(type) {
	case *core.Algorithm:
		var misses uint64
		if m, ok := rt.Est.(*estimate.Messaging); ok {
			misses = m.Misses
		}
		if c.active && (a.FastTicks == 0 || a.MissingEstimates == 0 || a.Insertions == 0) {
			t.Errorf("%s: want fast ticks, missing estimates and insertions all > 0, got %d/%d/%d",
				c.name, a.FastTicks, a.MissingEstimates, a.Insertions)
		}
		counters = fmt.Sprintf("fast=%d slow=%d missing=%d insertions=%d aborts=%d misses=%d %s",
			a.FastTicks, a.SlowTicks, a.MissingEstimates, a.Insertions, a.HandshakeAborts, misses, traffic)
	case *baselines.BlockSync:
		if c.active && (a.FastTicks == 0 || a.SlowTicks == 0) {
			t.Errorf("%s: want fast and slow ticks > 0, got %d/%d", c.name, a.FastTicks, a.SlowTicks)
		}
		counters = fmt.Sprintf("fast=%d slow=%d %s", a.FastTicks, a.SlowTicks, traffic)
	case *baselines.MaxSync:
		if c.active && a.Jumps == 0 {
			t.Errorf("%s: want jumps > 0", c.name)
		}
		counters = fmt.Sprintf("jumps=%d %s", a.Jumps, traffic)
	default:
		t.Fatalf("%s: no counters for algorithm %T", c.name, a)
	}
	return hex.EncodeToString(h.Sum(nil)), counters
}

// TestGoldenFingerprints pins the final clocks and counters of five small
// runs built through gradsync.New with both parallelism knobs at 2.
func TestGoldenFingerprints(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			state, counters := goldenFingerprint(t, c)
			t.Logf("state %s\ncounters %s", state, counters)
			if state != c.state {
				t.Errorf("state fingerprint %s, want %s", state, c.state)
			}
			if counters != c.counters {
				t.Errorf("counters\n  got  %s\n  want %s", counters, c.counters)
			}
		})
	}
}
