package gradsync_test

// Golden fingerprints: the exact bits of three small full runs, pinned as
// constants. The layout, shard and tick-crossing differentials compare two
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
	"repro/internal/estimate"
	"repro/internal/scenario"
)

// goldenCase is one pinned configuration and its expected fingerprint.
type goldenCase struct {
	name    string
	horizon float64
	build   func() gradsync.Config
	// active requires FastTicks, MissingEstimates and Insertions all above
	// zero, so the pinned bits cover the fast mode, the missing-estimate
	// path and completed insertion handshakes.
	active   bool
	state    string // sha256 over the bits of every L_u, M_u, H_u
	counters string
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
	a := net.Core()
	var misses uint64
	if m, ok := rt.Est.(*estimate.Messaging); ok {
		misses = m.Misses
	}
	if c.active && (a.FastTicks == 0 || a.MissingEstimates == 0 || a.Insertions == 0) {
		t.Errorf("%s: want fast ticks, missing estimates and insertions all > 0, got %d/%d/%d",
			c.name, a.FastTicks, a.MissingEstimates, a.Insertions)
	}
	counters = fmt.Sprintf("fast=%d slow=%d missing=%d insertions=%d aborts=%d misses=%d sent=%d dropped=%d",
		a.FastTicks, a.SlowTicks, a.MissingEstimates, a.Insertions, a.HandshakeAborts,
		misses, rt.Net.Sent(), rt.Net.Dropped())
	return hex.EncodeToString(h.Sum(nil)), counters
}

// TestGoldenFingerprints pins the final clocks and counters of three small
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
