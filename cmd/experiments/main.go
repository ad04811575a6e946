// Command experiments runs the full reproduction suite (E01–E16, one per
// theorem-level claim of the paper; see EXPERIMENTS.md) and prints the
// result tables. Use -quick for bench-sized runs, -only to select
// experiments, and -seeds/-parallel to aggregate independent adversary
// draws on a worker pool (the report is identical for every -parallel
// value; see internal/sweep).
//
//	experiments                 # full suite
//	experiments -quick          # fast suite
//	experiments -only E03,E05   # a subset
//	experiments -seeds 8 -parallel 8
//	experiments -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "bench-sized runs")
	seed := fs.Int64("seed", 1, "root random seed")
	seeds := fs.Int("seeds", 1, "independent replicas per experiment, aggregated as mean±std")
	parallel := fs.Int("parallel", 0, "replica worker pool size (0 = GOMAXPROCS); does not affect results")
	tickpar := fs.Int("tickpar", 0, "integration-tick shards for the scale tiers E15/E16 (0 = NumCPU; networks under 12000 nodes tick serially); does not affect results")
	evpar := fs.Int("evpar", 0, "event-drain shards for the scale tiers E15/E16 (0 = NumCPU); does not affect results")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. E03,E05)")
	out := fs.String("out", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var filter map[string]bool
	if *only != "" {
		filter = make(map[string]bool)
		for _, id := range strings.Split(*only, ",") {
			filter[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		var valid, unknown []string
		known := make(map[string]bool)
		for _, entry := range experiments.All() {
			valid = append(valid, entry.ID)
			known[entry.ID] = true
		}
		for id := range filter {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return fmt.Errorf("-only names unknown experiments %s; valid ids are %s",
				strings.Join(unknown, ","), strings.Join(valid, ","))
		}
	}

	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "experiments: close:", cerr)
			}
		}()
		w = io.MultiWriter(stdout, f)
	}

	spec := experiments.Spec{Quick: *quick, Seed: *seed, Seeds: *seeds, Parallelism: *parallel, TickParallelism: *tickpar, EventParallelism: *evpar}
	failed := 0
	ran := 0
	start := time.Now()
	for _, entry := range experiments.All() {
		if filter != nil && !filter[entry.ID] {
			continue
		}
		res := experiments.RunReplicated(entry.Run, spec)
		ran++
		fmt.Fprintln(w, res.String())
		// Memory footers are machine-dependent, so they print outside the
		// deterministic report body, on `===`-prefixed lines that report
		// diffing strips along with the timing summary below.
		for _, m := range res.MemNotes {
			fmt.Fprintf(w, "=== mem %s: %s ===\n", res.ID, m)
		}
		if !res.Pass {
			failed++
		}
	}
	fmt.Fprintf(w, "=== %d experiments, %d failed shape checks (%.1fs) ===\n",
		ran, failed, time.Since(start).Seconds())
	if failed > 0 {
		return fmt.Errorf("%d experiments failed their shape checks", failed)
	}
	return nil
}
