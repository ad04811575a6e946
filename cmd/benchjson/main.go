// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record file, so benchmark runs can be archived and diffed as a
// perf trajectory (see `make bench-json`, which emits BENCH_sweep.json).
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_sweep.json
//
// Every `<value> <unit>` column after ns/op — the -benchmem pair, MB/s and
// any b.ReportMetric unit, in whatever order — lands in the record's
// metrics map, so a new per-benchmark metric needs no parser change.
//
// With -compare it is the trend checker closing that loop: it diffs two
// record files and exits non-zero when any benchmark regressed beyond the
// threshold (default 20% ns/op), so CI can flag perf drift across PRs.
//
//	benchjson -compare BENCH_baseline.json BENCH_sweep.json
//	benchjson -threshold 10 -compare old.json new.json
//
// With -markdown the comparison is rendered as a GitHub-flavored table —
// the nightly workflow appends it to $GITHUB_STEP_SUMMARY, so every run
// shows its per-benchmark delta against the committed baseline without
// downloading artifacts (the first step toward a perf-trend dashboard).
//
// Besides benchmark result lines, the parser captures the `=== mem` live-heap
// footers the scale-tier benchmarks print (`=== mem Runtime10k/...: N=10000
// live heap 12.3 MiB (1289 B/node) ===`) into a "mem" section of the record
// file, and -compare gates bytes/node against the baseline (default 10%):
// live-heap wall-clock is noisy but per-node retention is not, so the memory
// diet gets the same CI trend protection as ns/op and allocs/op.
//
// Every record file also carries its host: the `cpu:` header go test
// prints, the GOMAXPROCS suffix it appends to benchmark names (stripped from
// the names so records key across machines), the parsing host's CPU count,
// the Go version and, when run at the root of a git checkout, the commit.
// -compare prints both hosts and warns when the CPU model, CPU count or
// GOMAXPROCS differ, because then a delta measures the machines as much as
// the code.
//
// With -trend the command renders a markdown trend table across many record
// files (oldest → newest) — the nightly workflow feeds it the last ~10
// archived BENCH_sweep.json artifacts, turning the per-run snapshots into a
// perf trajectory in the job summary.
//
//	benchjson -trend run1.json run2.json ... BENCH_sweep.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line.
type Record struct {
	Pkg        string  `json:"pkg"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds every other `<value> <unit>` column of the line, keyed
	// by unit: the -benchmem pair (B/op, allocs/op), MB/s, and whatever
	// b.ReportMetric reports (events/sec, events/window, qps, …). A unit is
	// present exactly when its column was printed, so a measured 0
	// allocs/op is distinguishable from memory data simply being absent —
	// required for the allocation gate in -compare, where 0 → 1 allocs/op
	// on a pinned-alloc-free benchmark must fail.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// MemRecord is one parsed `=== mem <case>: N=<n> live heap <x> MiB (<y>
// B/node) ===` footer — the live-heap tracking line the scale tiers and the
// Runtime benchmarks print after a forced GC with the network still
// reachable. BytesPerNode is the figure -compare gates.
type MemRecord struct {
	Case         string  `json:"case"`
	N            int64   `json:"n"`
	LiveHeapMiB  float64 `json:"live_heap_mib"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// Report is the emitted JSON document. Mem is omitted when the run printed
// no footers, so record files from before the mem section stay loadable and
// comparable (the mem gate only fires when both sides carry a case). Host
// is nil in record files written before it existed.
type Report struct {
	Host       *Host       `json:"host,omitempty"`
	Benchmarks []Record    `json:"benchmarks"`
	Mem        []MemRecord `json:"mem,omitempty"`
}

// Host is the provenance of a record file.
type Host struct {
	// CPU is the model named by the `cpu:` header line go test prints.
	CPU string `json:"cpu,omitempty"`
	// GOMAXPROCS is the -N suffix go test appends to benchmark names,
	// taken from the first result line that has one (1 when none has).
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// NumCPU is runtime.NumCPU() of the host that parsed the run; `make
	// bench-json` parses on the host that ran it. 0 in older records.
	NumCPU int `json:"num_cpu,omitempty"`
	// GoVersion is the toolchain that built benchjson; `make bench-json`
	// runs it with the go command that ran the benchmarks.
	GoVersion string `json:"go_version,omitempty"`
	// Commit is the git HEAD of the tree benchjson wrote the record in
	// (gitCommit), empty when that tree is not a git checkout.
	Commit string `json:"commit,omitempty"`
}

// String renders the host for -compare; a nil Host is "unknown host".
func (h *Host) String() string {
	if h == nil {
		return "unknown host"
	}
	s := fmt.Sprintf("cpu %q, %d CPUs, GOMAXPROCS %d, %s", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	if h.Commit != "" {
		s += ", commit " + h.Commit
	}
	return s
}

// gitCommit returns `git rev-parse HEAD` for dir when dir is the root of a
// git checkout, and "" otherwise or when git fails. The build info cannot
// supply the commit, because `go run` stamps no VCS information.
func gitCommit(dir string) string {
	if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sameMachine reports whether both hosts name the same CPU model and
// GOMAXPROCS, and the same CPU count when both records carry one. An
// unknown host matches nothing.
func (h *Host) sameMachine(o *Host) bool {
	return h != nil && o != nil && h.CPU == o.CPU && h.GOMAXPROCS == o.GOMAXPROCS &&
		(h.NumCPU == 0 || o.NumCPU == 0 || h.NumCPU == o.NumCPU)
}

// memLine matches the shared mem-footer format anywhere in a line (test
// harnesses may indent or prefix it).
var memLine = regexp.MustCompile(
	`=== mem (.+?): N=(\d+) live heap ([\d.]+) MiB \(([\d.]+) B/node\) ===`)

// procsSuffix is the machine-dependent -GOMAXPROCS suffix go test appends
// to benchmark names; it is stripped so records key across machines.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "BENCH_sweep.json", "output JSON file")
	compare := fs.Bool("compare", false, "compare two record files (old new) instead of parsing stdin")
	threshold := fs.Float64("threshold", 20, "with -compare: max tolerated ns/op regression in percent")
	memThreshold := fs.Float64("mem-threshold", 10, "with -compare: max tolerated bytes-per-node regression in percent")
	markdown := fs.Bool("markdown", false, "with -compare: render the delta table as GitHub-flavored markdown (for $GITHUB_STEP_SUMMARY)")
	trend := fs.Bool("trend", false, "render a markdown trend table across record files given oldest → newest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two files (old new), got %d", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *threshold, *memThreshold, *markdown, stdout)
	}
	if *trend {
		if fs.NArg() < 1 {
			return fmt.Errorf("-trend needs at least one record file")
		}
		return trendFiles(fs.Args(), stdout)
	}

	report, err := parse(stdin)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	report.Host.Commit = gitCommit(".")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchjson: wrote %d records (%d mem footers) to %s\n",
		len(report.Benchmarks), len(report.Mem), *out)
	return nil
}

// parse scans `go test -bench` output, tracking the current package from
// the "pkg:" header lines the test binary prints per package. Mem footers
// are collected alongside the benchmark lines; the last footer per case
// wins (a benchmark printing one per b.N restart overwrites in place).
func parse(r io.Reader) (*Report, error) {
	report := &Report{Host: &Host{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}}
	pkg := ""
	memIdx := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			report.Host.CPU = strings.TrimSpace(c)
			continue
		}
		if m := memLine.FindStringSubmatch(line); m != nil {
			mr := MemRecord{Case: m[1]}
			var err error
			if mr.N, err = strconv.ParseInt(m[2], 10, 64); err != nil {
				return nil, fmt.Errorf("bad N in %q: %w", line, err)
			}
			if mr.LiveHeapMiB, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("bad live heap in %q: %w", line, err)
			}
			if mr.BytesPerNode, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("bad B/node in %q: %w", line, err)
			}
			if i, ok := memIdx[mr.Case]; ok {
				report.Mem[i] = mr
			} else {
				memIdx[mr.Case] = len(report.Mem)
				report.Mem = append(report.Mem, mr)
			}
			continue
		}
		rec, ok, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		rec.Pkg = pkg
		if m := procsSuffix.FindString(strings.Fields(line)[0]); m != "" && report.Host.GOMAXPROCS == 0 {
			report.Host.GOMAXPROCS, _ = strconv.Atoi(m[1:]) // the regexp admits only digits
		}
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if report.Host.GOMAXPROCS == 0 {
		report.Host.GOMAXPROCS = 1 // go test prints no suffix at 1
	}
	return report, nil
}

// parseBenchLine parses one `go test -bench` result line: the name, the
// iteration count, ns/op, then any number of `<value> <unit>` columns in
// whatever order and with whatever units the benchmark reported. ok is
// false for lines that are not result lines.
func parseBenchLine(line string) (rec Record, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
		return Record{}, false, nil
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, false, nil
	}
	rec = Record{Name: procsSuffix.ReplaceAllString(f[0], ""), Iterations: iters}
	if rec.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
		return Record{}, false, fmt.Errorf("bad ns/op in %q: %w", line, err)
	}
	cols := f[4:]
	if len(cols)%2 != 0 {
		return Record{}, false, fmt.Errorf("unpaired metric column in %q", line)
	}
	for i := 0; i < len(cols); i += 2 {
		v, err := strconv.ParseFloat(cols[i], 64)
		if err != nil {
			return Record{}, false, fmt.Errorf("bad %s in %q: %w", cols[i+1], line, err)
		}
		if rec.Metrics == nil {
			rec.Metrics = make(map[string]float64, len(cols)/2)
		}
		rec.Metrics[cols[i+1]] = v
	}
	return rec, true, nil
}

// loadReport reads a record file previously written by this command.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &report, nil
}

// benchKey identifies a benchmark across record files.
type benchKey struct{ pkg, name string }

// deltaRow is one comparison outcome, rendered as text or markdown.
type deltaRow struct {
	name         string
	verdict      string // "ok", "REGRESSED", "new", "removed"
	oldNs, newNs float64
	deltaPct     float64
	old, new     map[string]float64 // the two records' metric columns
}

// memRow is one mem-footer comparison outcome.
type memRow struct {
	name           string
	verdict        string // "ok", "REGRESSED", "new", "removed"
	n              int64
	oldBpn, newBpn float64 // bytes per node
	deltaPct       float64
}

// compareFiles diffs two record files and fails on regressions: a benchmark
// present in both whose ns/op grew by more than threshold percent, or —
// when both records carry -benchmem data — whose allocs/op grew at all.
// Allocation counts are deterministic, so the alloc gate is exact: it is
// what keeps the pinned-alloc-free hot paths (core step, invalidation,
// churn transitions) from silently regaining a per-op allocation. New and
// removed benchmarks are reported but never fail the check, so adding a
// benchmark (or retiring one) does not break CI.
//
// Mem footers are diffed by case name and gated at memThreshold percent
// bytes-per-node growth: per-node retention for a fixed configuration is
// deterministic up to GC rounding, so a 10% rise is a real packing
// regression, never noise. Cases absent on either side (old baselines
// predate the mem section) are reported but never fail.
func compareFiles(oldPath, newPath string, threshold, memThreshold float64, markdown bool, stdout io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	renderHosts(oldRep.Host, newRep.Host, markdown, stdout)
	old := make(map[benchKey]Record, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		old[benchKey{r.Pkg, r.Name}] = r
	}

	var rows []deltaRow
	var regressions []string
	matched := 0
	for _, r := range newRep.Benchmarks {
		prev, ok := old[benchKey{r.Pkg, r.Name}]
		if !ok {
			rows = append(rows, deltaRow{name: r.Name, verdict: "new", newNs: r.NsPerOp, new: r.Metrics})
			continue
		}
		matched++
		delete(old, benchKey{r.Pkg, r.Name})
		deltaPct := 0.0
		if prev.NsPerOp > 0 {
			deltaPct = (r.NsPerOp - prev.NsPerOp) / prev.NsPerOp * 100
		}
		verdict := "ok"
		if deltaPct > threshold {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s %s: %.1f → %.1f ns/op (%+.1f%%, threshold %.0f%%)",
					r.Pkg, r.Name, prev.NsPerOp, r.NsPerOp, deltaPct, threshold))
		}
		oldAllocs, hadMem := prev.Metrics["allocs/op"]
		newAllocs, hasMem := r.Metrics["allocs/op"]
		if hadMem && hasMem && newAllocs > oldAllocs {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s %s: %.0f → %.0f allocs/op",
					r.Pkg, r.Name, oldAllocs, newAllocs))
		}
		rows = append(rows, deltaRow{
			name: r.Name, verdict: verdict,
			oldNs: prev.NsPerOp, newNs: r.NsPerOp, deltaPct: deltaPct,
			old: prev.Metrics, new: r.Metrics,
		})
	}
	removed := make([]string, 0, len(old))
	for key := range old {
		removed = append(removed, key.name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		rows = append(rows, deltaRow{name: name, verdict: "removed"})
	}

	oldMem := make(map[string]MemRecord, len(oldRep.Mem))
	for _, m := range oldRep.Mem {
		oldMem[m.Case] = m
	}
	var memRows []memRow
	for _, m := range newRep.Mem {
		prev, ok := oldMem[m.Case]
		if !ok {
			memRows = append(memRows, memRow{name: m.Case, verdict: "new", n: m.N, newBpn: m.BytesPerNode})
			continue
		}
		delete(oldMem, m.Case)
		deltaPct := 0.0
		if prev.BytesPerNode > 0 {
			deltaPct = (m.BytesPerNode - prev.BytesPerNode) / prev.BytesPerNode * 100
		}
		verdict := "ok"
		if deltaPct > memThreshold {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("mem %s: %.0f → %.0f B/node (%+.1f%%, threshold %.0f%%)",
					m.Case, prev.BytesPerNode, m.BytesPerNode, deltaPct, memThreshold))
		}
		memRows = append(memRows, memRow{
			name: m.Case, verdict: verdict, n: m.N,
			oldBpn: prev.BytesPerNode, newBpn: m.BytesPerNode, deltaPct: deltaPct,
		})
	}
	removedMem := make([]string, 0, len(oldMem))
	for name := range oldMem {
		removedMem = append(removedMem, name)
	}
	sort.Strings(removedMem)
	for _, name := range removedMem {
		memRows = append(memRows, memRow{name: name, verdict: "removed"})
	}

	if markdown {
		renderMarkdown(rows, threshold, stdout)
		renderMemMarkdown(memRows, memThreshold, stdout)
	} else {
		renderText(rows, stdout)
		renderMemText(memRows, stdout)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark appears in both %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		if !markdown {
			for _, r := range regressions {
				fmt.Fprintln(stdout, "regression:", r)
			}
		}
		return fmt.Errorf("%d regressions across %d matched benchmarks (thresholds: %.0f%% ns/op, %.0f%% B/node, any allocs/op growth)",
			len(regressions), matched, threshold, memThreshold)
	}
	if !markdown {
		fmt.Fprintf(stdout, "benchjson: %d matched benchmarks within threshold of baseline\n", matched)
	}
	return nil
}

// renderHosts prints the two records' hosts ahead of the delta table, and a
// warning when they are not the same machine. It informs only: the gates
// apply to cross-host comparisons unchanged.
func renderHosts(oldHost, newHost *Host, markdown bool, w io.Writer) {
	const warning = "the records do not come from one host (the CPU model, CPU count or GOMAXPROCS differ, or a record names no host), so the deltas mix machine and code"
	if markdown {
		fmt.Fprintf(w, "Baseline host: %s. Run host: %s.\n\n", oldHost, newHost)
		if !oldHost.sameMachine(newHost) {
			fmt.Fprintf(w, "> **Warning:** %s.\n\n", warning)
		}
		return
	}
	fmt.Fprintf(w, "host old: %s\nhost new: %s\n", oldHost, newHost)
	if !oldHost.sameMachine(newHost) {
		fmt.Fprintf(w, "warning: %s\n", warning)
	}
}

// metricCell renders one metric of a row as "old → new", with an em-dash
// for a side that did not report it, or "" when neither did. The -benchmem
// pair prints as exact integers, so a one-byte or one-alloc change shows;
// every other unit prints to three significant digits.
func metricCell(r deltaRow, unit string) string {
	format := "%.3g"
	if unit == "B/op" || unit == "allocs/op" {
		format = "%.0f"
	}
	side := func(m map[string]float64) string {
		if v, ok := m[unit]; ok {
			return fmt.Sprintf(format, v)
		}
		return "—"
	}
	_, inOld := r.old[unit]
	_, inNew := r.new[unit]
	if !inOld && !inNew {
		return ""
	}
	return side(r.old) + " → " + side(r.new)
}

// metricUnits returns the metric units of rows: first the lead units (in
// order), then every other unit any row reports, sorted.
func metricUnits(rows []deltaRow, lead ...string) []string {
	seen := make(map[string]bool)
	for _, u := range lead {
		seen[u] = true
	}
	var extra []string
	for _, r := range rows {
		for _, m := range []map[string]float64{r.old, r.new} {
			for u := range m {
				if !seen[u] {
					seen[u] = true
					extra = append(extra, u)
				}
			}
		}
	}
	sort.Strings(extra)
	return slices.Concat(lead, extra)
}

// renderText is the plain-text rendering: one line per benchmark, with
// every metric either record reports.
func renderText(rows []deltaRow, w io.Writer) {
	for _, r := range rows {
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "new       %-50s %12.1f ns/op\n", r.name, r.newNs)
		case "removed":
			fmt.Fprintf(w, "removed   %-50s\n", r.name)
		default:
			metrics := ""
			for _, unit := range metricUnits([]deltaRow{r}) {
				metrics += fmt.Sprintf("  %s %s", metricCell(r, unit), unit)
			}
			fmt.Fprintf(w, "%-9s %-50s %12.1f → %-12.1f ns/op  %+.1f%%%s\n",
				r.verdict, r.name, r.oldNs, r.newNs, r.deltaPct, metrics)
		}
	}
}

// markdownLead are the metric columns every markdown delta table carries:
// the -benchmem pair and the throughput headlines. Other units any row
// reports get columns after them.
var markdownLead = []string{"B/op", "allocs/op", "events/sec", "qps"}

// renderMarkdown emits the per-benchmark delta table for a GitHub job
// summary: one row per benchmark, baseline vs run ns/op, the percentage
// delta, and one "baseline → run" column per metric.
func renderMarkdown(rows []deltaRow, threshold float64, w io.Writer) {
	units := metricUnits(rows, markdownLead...)
	fmt.Fprintf(w, "### Benchmark delta vs baseline (threshold %.0f%% ns/op; any allocs/op growth)\n\n", threshold)
	fmt.Fprint(w, "| benchmark | baseline ns/op | run ns/op | Δ ns/op |")
	for _, u := range units {
		fmt.Fprintf(w, " %s (baseline → run) |", u)
	}
	fmt.Fprint(w, " verdict |\n|---|---:|---:|---:|")
	for range units {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w, "---|")
	for _, r := range rows {
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "| %s | — | %.1f | — |", r.name, r.newNs)
		case "removed":
			fmt.Fprintf(w, "| %s | — | — | — |", r.name)
		default:
			fmt.Fprintf(w, "| %s | %.1f | %.1f | %+.1f%% |", r.name, r.oldNs, r.newNs, r.deltaPct)
		}
		for _, u := range units {
			if cell := metricCell(r, u); cell != "" {
				fmt.Fprintf(w, " %s |", cell)
			} else {
				fmt.Fprint(w, " |")
			}
		}
		verdict := r.verdict
		if verdict == "REGRESSED" {
			verdict = "**REGRESSED**"
		}
		fmt.Fprintf(w, " %s |\n", verdict)
	}
}

// renderMemText prints the mem-footer deltas in the plain-text format.
func renderMemText(rows []memRow, w io.Writer) {
	for _, r := range rows {
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "mem new   %-50s %12.0f B/node (N=%d)\n", r.name, r.newBpn, r.n)
		case "removed":
			fmt.Fprintf(w, "mem gone  %-50s\n", r.name)
		default:
			fmt.Fprintf(w, "mem %-5s %-50s %12.0f → %-12.0f B/node  %+.1f%%\n",
				r.verdict, r.name, r.oldBpn, r.newBpn, r.deltaPct)
		}
	}
}

// renderMemMarkdown emits the live-heap delta table next to the benchmark
// table in the job summary. Skipped entirely when neither file carried mem
// footers, so summaries against pre-mem baselines stay unchanged.
func renderMemMarkdown(rows []memRow, memThreshold float64, w io.Writer) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n### Live-heap delta vs baseline (threshold %.0f%% bytes/node)\n\n", memThreshold)
	fmt.Fprintln(w, "| case | N | baseline B/node | run B/node | Δ B/node | verdict |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---|")
	for _, r := range rows {
		switch r.verdict {
		case "new":
			fmt.Fprintf(w, "| %s | %d | — | %.0f | — | new |\n", r.name, r.n, r.newBpn)
		case "removed":
			fmt.Fprintf(w, "| %s | — | — | — | — | removed |\n", r.name)
		default:
			verdict := "ok"
			if r.verdict == "REGRESSED" {
				verdict = "**REGRESSED**"
			}
			fmt.Fprintf(w, "| %s | %d | %.0f | %.0f | %+.1f%% | %s |\n",
				r.name, r.n, r.oldBpn, r.newBpn, r.deltaPct, verdict)
		}
	}
}

// trendCell renders one run of a benchmark in the trend table: ns/op, then
// every reported metric but the -benchmem pair (which -compare gates), in
// unit order.
func trendCell(rec Record) string {
	cell := fmt.Sprintf("%.3g", rec.NsPerOp)
	units := make([]string, 0, len(rec.Metrics))
	for u := range rec.Metrics {
		if u != "B/op" && u != "allocs/op" {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	for _, u := range units {
		cell += fmt.Sprintf(" (%.3g %s)", rec.Metrics[u], u)
	}
	return cell
}

// trendFiles renders the multi-run perf trajectory: one markdown table of
// ns/op (and the throughput metrics where recorded) per benchmark across every record
// file given oldest → newest, plus a bytes-per-node table for the mem
// footers. Rows are keyed by the newest file so retired benchmarks fall off
// the dashboard; runs that predate a benchmark (or the mem section) show an
// em-dash, and record files from before the metrics map show ns/op alone
// (their fixed per-unit fields are ignored). Columns are labeled by file
// basename — the nightly workflow names the archived records after their
// run id, so the header doubles as the run index.
func trendFiles(paths []string, stdout io.Writer) error {
	type runRecords struct {
		label string
		bench map[benchKey]Record
		mem   map[string]MemRecord
	}
	runs := make([]runRecords, 0, len(paths))
	for _, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			return err
		}
		rr := runRecords{
			label: strings.TrimSuffix(filepath.Base(path), ".json"),
			bench: make(map[benchKey]Record, len(rep.Benchmarks)),
			mem:   make(map[string]MemRecord, len(rep.Mem)),
		}
		for _, r := range rep.Benchmarks {
			rr.bench[benchKey{r.Pkg, r.Name}] = r
		}
		for _, m := range rep.Mem {
			rr.mem[m.Case] = m
		}
		runs = append(runs, rr)
	}
	newest, err := loadReport(paths[len(paths)-1])
	if err != nil {
		return err
	}

	header := func(title, keyCol string) {
		fmt.Fprintf(stdout, "### %s\n\n| %s |", title, keyCol)
		for _, rr := range runs {
			fmt.Fprintf(stdout, " %s |", rr.label)
		}
		fmt.Fprint(stdout, "\n|---|")
		for range runs {
			fmt.Fprint(stdout, "---:|")
		}
		fmt.Fprintln(stdout)
	}

	header(fmt.Sprintf("ns/op trend across %d runs (oldest → newest)", len(runs)), "benchmark")
	for _, r := range newest.Benchmarks {
		fmt.Fprintf(stdout, "| %s |", r.Name)
		for _, rr := range runs {
			if rec, ok := rr.bench[benchKey{r.Pkg, r.Name}]; ok {
				fmt.Fprintf(stdout, " %s |", trendCell(rec))
			} else {
				fmt.Fprint(stdout, " — |")
			}
		}
		fmt.Fprintln(stdout)
	}

	if len(newest.Mem) > 0 {
		fmt.Fprintln(stdout)
		header("B/node trend (live heap)", "case")
		for _, m := range newest.Mem {
			fmt.Fprintf(stdout, "| %s |", m.Case)
			for _, rr := range runs {
				if rec, ok := rr.mem[m.Case]; ok {
					fmt.Fprintf(stdout, " %.0f |", rec.BytesPerNode)
				} else {
					fmt.Fprint(stdout, " — |")
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}
