// Package experiments contains the reproduction harness: one runner per
// claim of the paper (the "tables and figures" of this theory paper are its
// theorems; see EXPERIMENTS.md for the experiment index E01–E16). Every
// runner returns a table of paper-bound vs measured rows plus a pass/fail
// shape verdict, and is invoked both from the benchmarks in bench_test.go
// and from cmd/experiments. RunReplicated wraps any runner to aggregate
// independent adversary draws across a worker pool (internal/sweep).
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Spec sizes an experiment run.
type Spec struct {
	// Quick selects bench-sized runs (seconds); full runs otherwise.
	Quick bool
	// Seed feeds all randomness. Under RunReplicated it is the root seed
	// from which per-replica seeds are derived.
	Seed int64
	// Seeds is the number of independent adversary draws RunReplicated
	// aggregates over; 0 or 1 means a single plain run.
	Seeds int
	// Parallelism bounds the replica worker pool (0 = GOMAXPROCS). It
	// affects wall-clock time only, never results.
	Parallelism int
	// TickParallelism shards the integration tick of the networks the
	// scale tiers build (E15, E16); 0 picks runtime.NumCPU(), so the tiers
	// default to the sharded tick. Like Parallelism it affects wall-clock
	// only, never results — the sharded tick is byte-identical for every
	// shard count.
	TickParallelism int
	// EventParallelism shards the discrete-event drain of the scale-tier
	// networks (E15, E16); 0 picks runtime.NumCPU(), so the tiers default
	// to the sharded drain. Like the other knobs it affects wall-clock
	// only, never results — the sharded drain is byte-identical for every
	// shard count.
	EventParallelism int
}

// TickShards resolves the effective tick parallelism for the scale tiers.
func (s Spec) TickShards() int {
	if s.TickParallelism > 0 {
		return s.TickParallelism
	}
	return runtime.NumCPU()
}

// EventShards resolves the effective event parallelism for the scale tiers.
func (s Spec) EventShards() int {
	if s.EventParallelism > 0 {
		return s.EventParallelism
	}
	return runtime.NumCPU()
}

// SeedFor derives the deterministic sub-seed for one component of an
// experiment (a swept network size, an auxiliary RNG, …), replacing ad hoc
// `Seed + offset` arithmetic with well-separated streams.
func (s Spec) SeedFor(parts ...int64) int64 {
	return sweep.Derive(s.Seed, parts...)
}

// Result is the outcome of one experiment.
type Result struct {
	ID    string
	Claim string
	Table *metrics.Table
	// Table2 holds a second result table for experiments with two parts.
	Table2 *metrics.Table
	Notes  []string
	Pass   bool
	// Failures lists shape assertions that did not hold.
	Failures []string
	// MemNotes carries machine-dependent memory measurements (live heap,
	// bytes/node) from the scale tiers. They are deliberately EXCLUDED from
	// String(): the rendered report must stay byte-identical across
	// machines, shard counts and storage layouts (the determinism tests
	// compare it verbatim). cmd/experiments prints them as separate
	// `=== mem` footer lines instead.
	MemNotes []string
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// MemNotef appends a formatted memory-footer note (see MemNotes).
func (r *Result) MemNotef(format string, args ...any) {
	r.MemNotes = append(r.MemNotes, fmt.Sprintf(format, args...))
}

// failf records a failed shape assertion.
func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	r.Pass = false
}

// assert records a failure unless cond holds.
func (r *Result) assert(cond bool, format string, args ...any) {
	if !cond {
		r.failf(format, args...)
	}
}

func newResult(id, claim string) *Result {
	return &Result{ID: id, Claim: claim, Pass: true}
}

// String renders the full report for one experiment.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s: %s ---\n", r.ID, r.Claim)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	if r.Table2 != nil {
		b.WriteString(r.Table2.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if r.Pass {
		b.WriteString("shape: PASS\n")
	} else {
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "shape FAIL: %s\n", f)
		}
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(Spec) *Result

// Entry names a runner so callers can select experiments without running
// them first.
type Entry struct {
	ID  string
	Run Runner
}

// All returns the full experiment suite in order.
func All() []Entry {
	return []Entry{
		{"E01", E01GlobalSkew},
		{"E02", E02GradientSkew},
		{"E03", E03LocalSkewVsD},
		{"E04", E04Stabilization},
		{"E05", E05LowerBound},
		{"E06", E06MuSweep},
		{"E07", E07Churn},
		{"E08", E08SelfStab},
		{"E09", E09Weighted},
		{"E10", E10DynamicEstimates},
		{"E11", E11EstimateLayer},
		{"E12", E12Ablations},
		{"E13", E13InsertionStrategies},
		{"E14", E14ScenarioMatrix},
		{"E15", E15LargeScale},
		{"E16", E16ExtremeScale},
	}
}

// sizes picks node counts for scaling experiments.
func sizes(s Spec, quick, full []int) []int {
	if s.Quick {
		return quick
	}
	return full
}

// ramp builds a linear initial clock assignment with the given per-hop
// increment (node 0 lowest).
func ramp(n int, perHop float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * perHop
	}
	return out
}
