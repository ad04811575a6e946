package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestReplicatedDeterministicAcrossParallelism is the determinism
// regression net for the sweep layer: the same root seed must yield
// byte-identical reports whether replicas run on one worker or eight, and
// across repeated runs. The subset covers the runner structures: a direct
// per-size net (E01), the merge scenario with three algorithms sharing an
// adversary (E05), an auxiliary corruption RNG (E08), a two-table result
// (E12), and the scale tier with composed churn + grid-backed mobility
// (E16 — the acceptance gate for the N=10⁵ rung's reproducibility).
func TestReplicatedDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated runs take a few seconds")
	}
	for _, entry := range All() {
		switch entry.ID {
		case "E01", "E05", "E08", "E12", "E14", "E16":
		default:
			continue
		}
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Quick: true, Seed: 1, Seeds: 3}

			spec.Parallelism = 1
			serial := RunReplicated(entry.Run, spec).String()
			serialAgain := RunReplicated(entry.Run, spec).String()
			if serial != serialAgain {
				t.Fatalf("%s: two serial runs with the same root seed differ", entry.ID)
			}

			spec.Parallelism = 8
			parallel := RunReplicated(entry.Run, spec).String()
			if parallel != serial {
				t.Errorf("%s: parallel=8 output differs from parallel=1:\n--- serial ---\n%s\n--- parallel ---\n%s",
					entry.ID, serial, parallel)
			}
		})
	}
}

// TestScenarioDeterminismAcrossParallelism pins the scenario layer's
// determinism contract: for every generator in the library, the same seed
// must yield a byte-identical global-skew series, whether the replicas run
// on one worker or eight and across repeated runs. This is the regression
// net for generators that draw randomness or iterate pair sets — a single
// map-ordered loop or worker-dependent draw shows up as a diff here.
func TestScenarioDeterminismAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replays take a few seconds")
	}
	const (
		n       = 10
		horizon = 150.0
		seeds   = 4
	)
	for _, c := range scenarioCases(n, true) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			roots := sweep.Seeds(9, seeds)
			replay := func(parallelism int) string {
				series := sweep.Map(seeds, parallelism, func(i int) string {
					run := runScenarioCase(c, n, horizon, roots[i])
					if run.err != nil {
						t.Errorf("seed %d: scenario error: %v", roots[i], run.err)
					}
					return run.series.String()
				})
				return strings.Join(series, "---\n")
			}
			serial := replay(1)
			if again := replay(1); again != serial {
				t.Fatalf("%s: two serial replays with the same seeds differ", c.name)
			}
			if parallel := replay(8); parallel != serial {
				t.Errorf("%s: parallel=8 skew series differ from parallel=1:\n--- serial ---\n%s\n--- parallel ---\n%s",
					c.name, serial, parallel)
			}
		})
	}
}

// TestScaleTierDeterministicAcrossEventParallelism is the same net for the
// sharded event drain: the scale tiers must emit byte-identical reports
// whether beacon fires and deliveries drain serially or across 2 or 8
// window shards. A shard-count-dependent delay draw, a fold-order-dependent
// counter, or a window that leaks past the safe horizon shows up as a diff
// here. (E15/E16 default EventParallelism to NumCPU, so this also pins the
// production configuration against the serial engine.)
func TestScaleTierDeterministicAcrossEventParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("tier replays take a few seconds")
	}
	for _, entry := range All() {
		switch entry.ID {
		case "E15", "E16":
		default:
			continue
		}
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Quick: true, Seed: 1, Seeds: 2, Parallelism: 2}

			spec.EventParallelism = 1
			serial := RunReplicated(entry.Run, spec).String()

			for _, shards := range []int{2, 8} {
				spec.EventParallelism = shards
				if sharded := RunReplicated(entry.Run, spec).String(); sharded != serial {
					t.Errorf("%s: EventParallelism=%d output differs from EventParallelism=1:\n--- serial ---\n%s\n--- sharded ---\n%s",
						entry.ID, shards, serial, sharded)
				}
			}
		})
	}
}

// scaleTierGolden is the sha256 of each scale tier's quick two-seed report
// (RunReplicated(…, Spec{Quick: true, Seed: 1, Seeds: 2, Parallelism: 2})
// .String()).
var scaleTierGolden = map[string]string{
	"E15": "0dea97210456aefe75589412c15ef3818e27afc543c436385f8fd4fb9ed464df",
	"E16": "d764ffbe2ccc2c73a08233e4dfda3ada2e9c4489b1bd4519c9951232de2b58f9",
}

// TestScaleTierDeterministicAcrossLayout is the same net for the
// structure-of-arrays storage: the scale-tier reports must hash to the
// golden constants that both the slab layout and the retired map-backed
// reference layout produced. A divergent trigger decision, estimate query
// order, or counter would surface as a different hash.
func TestScaleTierDeterministicAcrossLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("tier replays take a few seconds")
	}
	for _, entry := range All() {
		want, ok := scaleTierGolden[entry.ID]
		if !ok {
			continue
		}
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			t.Parallel()
			report := RunReplicated(entry.Run, Spec{Quick: true, Seed: 1, Seeds: 2, Parallelism: 2}).String()
			sum := sha256.Sum256([]byte(report))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s: report sha256 %s, want %s; report:\n%s", entry.ID, got, want, report)
			}
		})
	}
}

// TestReplicatedAllExperimentsMultiSeed runs the whole suite across two
// derived adversary draws: the shape claims are worst-case statements and
// must hold for every seed the sweep engine can hand a replica.
func TestReplicatedAllExperimentsMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated suite takes a few seconds")
	}
	for _, entry := range All() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			t.Parallel()
			res := RunReplicated(entry.Run, Spec{Quick: true, Seed: 42, Seeds: 2, Parallelism: 4})
			if !res.Pass {
				t.Errorf("%s failed across seeds: %v", res.ID, res.Failures)
			}
			if res.Table == nil || len(res.Table.Rows) == 0 {
				t.Errorf("%s produced no aggregated rows", res.ID)
			}
		})
	}
}
