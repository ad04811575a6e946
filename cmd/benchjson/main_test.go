package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: some cpu
BenchmarkCoreStep 	  175795	      6696 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/core	2.5s
pkg: repro
BenchmarkSweepReplicas/parallel=8-8         	       1	 12345678 ns/op
BenchmarkThroughput-8 	     100	     250 ns/op	  64.00 MB/s	      16 B/op	       1 allocs/op
BenchmarkRuntime10k-8 	       3	 627203010 ns/op	    188198 events/sec	  725360 B/op	      22 allocs/op
BenchmarkRuntime10k/par=max/evpar=max-8 	       3	 52719301 ns/op	    1.2e+06 events/sec	    95.17 events/window	  725360 B/op	      22 allocs/op
=== mem Runtime10k/par=max/evpar=max: N=10000 live heap 12.9 MiB (1351 B/node) ===
ok  	repro	1.2s
pkg: repro/cmd/gradsyncd
BenchmarkSkewQuery/serial-8         	 3583066	       319.0 ns/op	   3134468 qps	       0 B/op	       0 allocs/op
ok  	repro/cmd/gradsyncd	6.4s
`

func TestParseAndWrite(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run([]string{"-out", out}, strings.NewReader(sample), &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(report.Benchmarks) != 6 {
		t.Fatalf("parsed %d records, want 6", len(report.Benchmarks))
	}
	first := report.Benchmarks[0]
	if first.Pkg != "repro/internal/core" || first.Name != "BenchmarkCoreStep" {
		t.Errorf("record 0 = %+v", first)
	}
	if first.Iterations != 175795 || first.NsPerOp != 6696 || first.Metrics["allocs/op"] != 0 {
		t.Errorf("record 0 numbers = %+v", first)
	}
	if _, ok := first.Metrics["allocs/op"]; !ok {
		t.Errorf("record 0 has no allocs/op; a measured 0 allocs/op must be marked as present")
	}
	second := report.Benchmarks[1]
	if second.Pkg != "repro" || second.Name != "BenchmarkSweepReplicas/parallel=8" {
		t.Errorf("record 1 = %+v (the -GOMAXPROCS suffix must be stripped)", second)
	}
	if _, ok := second.Metrics["allocs/op"]; ok || len(second.Metrics) != 0 {
		t.Errorf("record 1 = %+v has metrics despite printing none", second)
	}
	third := report.Benchmarks[2]
	if third.Name != "BenchmarkThroughput" || third.Metrics["MB/s"] != 64 ||
		third.Metrics["B/op"] != 16 || third.Metrics["allocs/op"] != 1 {
		t.Errorf("record 2 = %+v (memory stats must survive an MB/s column)", third)
	}
	fourth := report.Benchmarks[3]
	if fourth.Name != "BenchmarkRuntime10k" || fourth.Metrics["events/sec"] != 188198 ||
		fourth.Metrics["B/op"] != 725360 || fourth.Metrics["allocs/op"] != 22 {
		t.Errorf("record 3 = %+v (events/sec metric must be captured)", fourth)
	}
	fifth := report.Benchmarks[4]
	if fifth.Name != "BenchmarkRuntime10k/par=max/evpar=max" || fifth.Metrics["events/window"] != 95.17 ||
		fifth.Metrics["events/sec"] != 1.2e+06 || fifth.Metrics["B/op"] != 725360 {
		t.Errorf("record 4 = %+v (events/window metric must be captured between events/sec and B/op)", fifth)
	}
	sixth := report.Benchmarks[5]
	if _, hasAllocs := sixth.Metrics["allocs/op"]; sixth.Pkg != "repro/cmd/gradsyncd" ||
		sixth.Name != "BenchmarkSkewQuery/serial" || sixth.Metrics["qps"] != 3134468 ||
		!hasAllocs || sixth.Metrics["allocs/op"] != 0 {
		t.Errorf("record 5 = %+v (qps metric must be captured between events/window and B/op)", sixth)
	}
	if len(report.Mem) != 1 {
		t.Fatalf("parsed %d mem footers, want 1", len(report.Mem))
	}
	mem := report.Mem[0]
	if mem.Case != "Runtime10k/par=max/evpar=max" || mem.N != 10000 ||
		mem.LiveHeapMiB != 12.9 || mem.BytesPerNode != 1351 {
		t.Errorf("mem record = %+v", mem)
	}
}

// TestParseHostProvenance pins the host a record file states: the cpu:
// header, the GOMAXPROCS suffix stripped from the names, and the Go version.
func TestParseHostProvenance(t *testing.T) {
	report, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := Host{CPU: "some cpu", GOMAXPROCS: 8, GoVersion: runtime.Version()}
	if report.Host == nil || *report.Host != want {
		t.Fatalf("host = %+v, want %+v", report.Host, want)
	}
	// go test prints no suffix at GOMAXPROCS 1.
	report, err = parse(strings.NewReader("cpu: one core\nBenchmarkA \t 10\t 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Host.GOMAXPROCS != 1 || report.Host.CPU != "one core" {
		t.Errorf("host = %+v, want GOMAXPROCS 1 on cpu \"one core\"", report.Host)
	}
}

// TestCompareHosts pins -compare's host lines: both hosts are printed, a
// warning appears exactly when the CPU model or GOMAXPROCS differ (or a
// record names no host), and the gates ignore it.
func TestCompareHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h *Host, ns float64) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(Report{Host: h, Benchmarks: []Record{{Pkg: "p", Name: "BenchmarkA", NsPerOp: ns}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := &Host{CPU: "Xeon A", GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	old := write("old.json", base, 100)
	for _, c := range []struct {
		name string
		host *Host
		warn bool
	}{
		{"same host, other Go", &Host{CPU: "Xeon A", GOMAXPROCS: 2, GoVersion: "go1.25.0"}, false},
		{"other CPU", &Host{CPU: "Xeon B", GOMAXPROCS: 2, GoVersion: "go1.24.0"}, true},
		{"other GOMAXPROCS", &Host{CPU: "Xeon A", GOMAXPROCS: 8, GoVersion: "go1.24.0"}, true},
		{"no host", nil, true},
	} {
		niu := write("new.json", c.host, 101)
		for _, md := range []bool{false, true} {
			args := []string{"-compare", old, niu}
			if md {
				args = []string{"-compare", "-markdown", old, niu}
			}
			var stdout bytes.Buffer
			if err := run(args, strings.NewReader(""), &stdout); err != nil {
				t.Errorf("%s (markdown %v): compare within threshold failed: %v", c.name, md, err)
			}
			got := stdout.String()
			for _, h := range []*Host{base, c.host} {
				if !strings.Contains(got, h.String()) {
					t.Errorf("%s (markdown %v): output does not name host %s:\n%s", c.name, md, h, got)
				}
			}
			if warned := strings.Contains(strings.ToLower(got), "warning"); warned != c.warn {
				t.Errorf("%s (markdown %v): warning printed = %v, want %v:\n%s", c.name, md, warned, c.warn, got)
			}
		}
	}
	// The gates stay as they were: a cross-host 30% regression still fails.
	slow := write("slow.json", &Host{CPU: "Xeon B", GOMAXPROCS: 8}, 130)
	if err := run([]string{"-compare", old, slow}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("a cross-host 30% regression passed the compare")
	}
}

// TestParseAnyMetricColumn pins the column-order independence of the
// parser: a ReportMetric unit it has never heard of, sorting before the
// -benchmem pair, must neither hide B/op and allocs/op (which would turn
// the allocation gate off for that benchmark) nor be dropped itself.
func TestParseAnyMetricColumn(t *testing.T) {
	rec, ok, err := parseBenchLine("BenchmarkLookup-8 \t 1000000\t 1043 ns/op\t 5.000 misses/op\t 16 B/op\t 1 allocs/op")
	if err != nil || !ok {
		t.Fatalf("parseBenchLine: ok=%v err=%v", ok, err)
	}
	want := map[string]float64{"misses/op": 5, "B/op": 16, "allocs/op": 1}
	if rec.Name != "BenchmarkLookup" || rec.Iterations != 1000000 || rec.NsPerOp != 1043 || len(rec.Metrics) != len(want) {
		t.Fatalf("record = %+v", rec)
	}
	for unit, v := range want {
		if got, ok := rec.Metrics[unit]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", unit, got, ok, v)
		}
	}
	// The allocation gate sees the parsed pair.
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", Record{Pkg: "p", Name: "BenchmarkLookup", NsPerOp: 1043,
		Metrics: map[string]float64{"misses/op": 5, "B/op": 0, "allocs/op": 0}})
	niu := writeReport(t, dir, "new.json", Record{Pkg: "p", Name: "BenchmarkLookup", NsPerOp: rec.NsPerOp, Metrics: rec.Metrics})
	var stdout bytes.Buffer
	if err := run([]string{"-compare", old, niu}, strings.NewReader(""), &stdout); err == nil {
		t.Fatalf("0 → 1 allocs/op behind a misses/op column passed the compare:\n%s", stdout.String())
	}
	for _, bad := range []string{
		"BenchmarkA 10 5 ns/op 3",           // value without a unit
		"BenchmarkA 10 5 ns/op x misses/op", // unparsable value
	} {
		if _, _, err := parseBenchLine(bad); err == nil {
			t.Errorf("parseBenchLine(%q) accepted a malformed metric column", bad)
		}
	}
	for _, skip := range []string{"BenchmarkA-8", "BenchmarkA: starting", "BenchmarkA-8 --- FAIL: x"} {
		if _, ok, err := parseBenchLine(skip); ok || err != nil {
			t.Errorf("parseBenchLine(%q) = ok %v err %v, want a skipped non-result line", skip, ok, err)
		}
	}
}

// TestCommittedBaselineLoads: the baseline that `make bench-diff` and the
// nightly compare against loads with its -benchmem pair present on every
// record, so the allocation gate is armed for all of them.
func TestCommittedBaselineLoads(t *testing.T) {
	base, err := loadReport(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline does not load: %v", err)
	}
	for _, r := range base.Benchmarks {
		if _, ok := r.Metrics["allocs/op"]; !ok {
			t.Errorf("baseline %s has no allocs/op column", r.Name)
		}
	}
}

// TestParseMemLastFooterWins pins the dedup rule: a benchmark restarted for
// larger b.N reprints its footer, and only the final print is recorded.
func TestParseMemLastFooterWins(t *testing.T) {
	input := `pkg: repro
BenchmarkA 	 1	 100 ns/op
=== mem ring: N=100 live heap 1.0 MiB (50 B/node) ===
    === mem ring: N=100 live heap 2.0 MiB (61 B/node) ===
`
	report, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Mem) != 1 {
		t.Fatalf("got %d mem records, want 1 (same case must overwrite)", len(report.Mem))
	}
	if report.Mem[0].BytesPerNode != 61 {
		t.Errorf("BytesPerNode = %v, want the last footer's 61 (indented footers must still match)",
			report.Mem[0].BytesPerNode)
	}
}

// writeMemReport drops a record file that carries both a benchmark (so the
// matched>0 guard passes) and mem footers.
func writeMemReport(t *testing.T, dir, name string, mems ...MemRecord) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Report{
		Benchmarks: []Record{{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100}},
		Mem:        mems,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareMemRegressionFails pins the bytes-per-node gate: >10% growth on
// a case present in both files fails the compare even though every ns/op is
// inside its threshold.
func TestCompareMemRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeMemReport(t, dir, "old.json",
		MemRecord{Case: "ring", N: 10000, LiveHeapMiB: 10, BytesPerNode: 1000})
	niu := writeMemReport(t, dir, "new.json",
		MemRecord{Case: "ring", N: 10000, LiveHeapMiB: 12, BytesPerNode: 1150})
	var stdout bytes.Buffer
	err := run([]string{"-compare", old, niu}, strings.NewReader(""), &stdout)
	if err == nil {
		t.Fatalf("+15%% B/node passed the 10%% mem threshold:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "1000 → 1150 B/node") {
		t.Errorf("output does not name the mem regression:\n%s", stdout.String())
	}
	// A looser explicit mem threshold tolerates the same delta.
	if err := run([]string{"-mem-threshold", "20", "-compare", old, niu}, strings.NewReader(""), &stdout); err != nil {
		t.Errorf("-mem-threshold 20 still failed: %v", err)
	}
	// Growth inside the threshold passes.
	ok := writeMemReport(t, dir, "ok.json",
		MemRecord{Case: "ring", N: 10000, LiveHeapMiB: 10.5, BytesPerNode: 1050})
	if err := run([]string{"-compare", old, ok}, strings.NewReader(""), &bytes.Buffer{}); err != nil {
		t.Errorf("+5%% B/node failed the 10%% threshold: %v", err)
	}
	// Shrinking never fails.
	if err := run([]string{"-compare", niu, old}, strings.NewReader(""), &bytes.Buffer{}); err != nil {
		t.Errorf("a B/node improvement failed the compare: %v", err)
	}
}

// TestCompareMemBackCompat: baselines that predate the mem section (no Mem
// array) never trip the gate, and new cases are reported without failing.
func TestCompareMemBackCompat(t *testing.T) {
	dir := t.TempDir()
	old := writeMemReport(t, dir, "old.json") // benchmark only, no mem
	niu := writeMemReport(t, dir, "new.json",
		MemRecord{Case: "ring", N: 10000, LiveHeapMiB: 12, BytesPerNode: 1150})
	var stdout bytes.Buffer
	if err := run([]string{"-compare", old, niu}, strings.NewReader(""), &stdout); err != nil {
		t.Fatalf("mem gate fired against a baseline without mem records: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "mem new") {
		t.Errorf("new mem case not reported:\n%s", stdout.String())
	}
	// Markdown mode renders the mem table only when footers exist.
	var md bytes.Buffer
	if err := run([]string{"-compare", "-markdown", old, niu}, strings.NewReader(""), &md); err != nil {
		t.Fatalf("markdown compare failed: %v", err)
	}
	if !strings.Contains(md.String(), "| case | N | baseline B/node |") {
		t.Errorf("markdown output missing the mem table header:\n%s", md.String())
	}
	var mdNone bytes.Buffer
	if err := run([]string{"-compare", "-markdown", old, old}, strings.NewReader(""), &mdNone); err != nil {
		t.Fatalf("markdown self-compare failed: %v", err)
	}
	if strings.Contains(mdNone.String(), "Live-heap delta") {
		t.Errorf("mem table rendered with no mem records on either side:\n%s", mdNone.String())
	}
}

// TestTrendTable pins the -trend rendering: one column per record file in
// argument order, rows keyed by the newest file, em-dashes where a run
// predates a benchmark or mem case.
func TestTrendTable(t *testing.T) {
	dir := t.TempDir()
	run1 := filepath.Join(dir, "1111.json")
	writeFile := func(path string, rep Report) {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(run1, Report{Benchmarks: []Record{
		{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100},
		{Pkg: "p", Name: "BenchmarkGone", NsPerOp: 5},
	}})
	run2 := filepath.Join(dir, "2222.json")
	writeFile(run2, Report{
		Benchmarks: []Record{
			{Pkg: "p", Name: "BenchmarkA", NsPerOp: 90, Metrics: map[string]float64{"events/sec": 2e6, "B/op": 8, "allocs/op": 1}},
			{Pkg: "p", Name: "BenchmarkNew", NsPerOp: 42, Metrics: map[string]float64{"qps": 3.1e6}},
		},
		Mem: []MemRecord{{Case: "ring", N: 10000, LiveHeapMiB: 12, BytesPerNode: 1150}},
	})
	var stdout bytes.Buffer
	if err := run([]string{"-trend", run1, run2}, strings.NewReader(""), &stdout); err != nil {
		t.Fatalf("trend: %v\n%s", err, stdout.String())
	}
	got := stdout.String()
	for _, want := range []string{
		"| benchmark | 1111 | 2222 |",
		"| BenchmarkA | 100 | 90 (2e+06 events/sec) |",
		"| BenchmarkNew | — | 42 (3.1e+06 qps) |",
		"| case | 1111 | 2222 |",
		"| ring | — | 1150 |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trend output missing %q:\n%s", want, got)
		}
	}
	// Rows are keyed by the newest file: retired benchmarks fall off.
	if strings.Contains(got, "BenchmarkGone") {
		t.Errorf("trend table still lists a benchmark absent from the newest run:\n%s", got)
	}
	if err := run([]string{"-trend"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("-trend with no files must error")
	}
}

func TestRejectsEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run([]string{"-out", out}, strings.NewReader("no benchmarks here\n"), &stdout); err == nil {
		t.Fatal("expected an error for input without benchmark lines")
	}
}

// writeReport drops a record file for the compare tests.
func writeReport(t *testing.T, dir, name string, recs ...Record) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Report{Benchmarks: recs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100},
		Record{Pkg: "p", Name: "BenchmarkGone", NsPerOp: 50})
	niu := writeReport(t, dir, "new.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 115}, // +15% < 20%
		Record{Pkg: "p", Name: "BenchmarkNew", NsPerOp: 10})
	var stdout bytes.Buffer
	if err := run([]string{"-compare", old, niu}, strings.NewReader(""), &stdout); err != nil {
		t.Fatalf("compare within threshold failed: %v\n%s", err, stdout.String())
	}
	for _, want := range []string{"BenchmarkNew", "BenchmarkGone", "matched benchmarks within"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, stdout.String())
		}
	}
}

func TestCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100})
	niu := writeReport(t, dir, "new.json", Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 130})
	var stdout bytes.Buffer
	err := run([]string{"-compare", old, niu}, strings.NewReader(""), &stdout)
	if err == nil {
		t.Fatalf("30%% regression passed the 20%% threshold:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSED") {
		t.Errorf("output does not flag the regression:\n%s", stdout.String())
	}
	// A looser explicit threshold tolerates the same delta.
	if err := run([]string{"-threshold", "50", "-compare", old, niu}, strings.NewReader(""), &stdout); err != nil {
		t.Errorf("-threshold 50 still failed: %v", err)
	}
}

// TestCompareAllocRegressionFails pins the allocation gate: a benchmark that
// was measured alloc-free and regains even one alloc/op fails the compare,
// regardless of its ns/op staying inside the threshold.
func TestCompareAllocRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100, Metrics: map[string]float64{"B/op": 0, "allocs/op": 0}})
	niu := writeReport(t, dir, "new.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 101, Metrics: map[string]float64{"B/op": 48, "allocs/op": 1}})
	var stdout bytes.Buffer
	err := run([]string{"-compare", old, niu}, strings.NewReader(""), &stdout)
	if err == nil {
		t.Fatalf("0 → 1 allocs/op passed the compare:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "0 → 1 allocs/op") {
		t.Errorf("output does not name the alloc regression:\n%s", stdout.String())
	}
	// Fewer allocations never fail; absent memory data on either side
	// disables the gate (old baselines predate -benchmem capture).
	better := writeReport(t, dir, "better.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100, Metrics: map[string]float64{"B/op": 0, "allocs/op": 0}})
	if err := run([]string{"-compare", niu, better}, strings.NewReader(""), &bytes.Buffer{}); err != nil {
		t.Errorf("dropping 1 → 0 allocs/op failed the compare: %v", err)
	}
	noMem := writeReport(t, dir, "nomem.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100})
	if err := run([]string{"-compare", noMem, niu}, strings.NewReader(""), &bytes.Buffer{}); err != nil {
		t.Errorf("alloc gate fired against a baseline without memory data: %v", err)
	}
}

func TestCompareImprovementNeverFails(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 200})
	niu := writeReport(t, dir, "new.json", Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 90})
	if err := run([]string{"-compare", old, niu}, strings.NewReader(""), &bytes.Buffer{}); err != nil {
		t.Fatalf("a 2× improvement failed the check: %v", err)
	}
}

func TestCompareMarkdownTable(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100, Metrics: map[string]float64{"events/sec": 600000}},
		Record{Pkg: "p", Name: "BenchmarkMem", NsPerOp: 100, Metrics: map[string]float64{"B/op": 725360, "allocs/op": 22}},
		Record{Pkg: "p", Name: "BenchmarkGone", NsPerOp: 50})
	niu := writeReport(t, dir, "new.json",
		Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 140, Metrics: map[string]float64{"events/sec": 450000}},
		Record{Pkg: "p", Name: "BenchmarkMem", NsPerOp: 100, Metrics: map[string]float64{"B/op": 725368, "allocs/op": 22}},
		Record{Pkg: "p", Name: "BenchmarkNew", NsPerOp: 10})
	var stdout bytes.Buffer
	err := run([]string{"-compare", "-markdown", old, niu}, strings.NewReader(""), &stdout)
	if err == nil {
		t.Fatalf("40%% regression passed the 20%% threshold in markdown mode:\n%s", stdout.String())
	}
	got := stdout.String()
	for _, want := range []string{
		"| benchmark |",
		"| BenchmarkA | 100.0 | 140.0 | +40.0% | | | 6e+05 → 4.5e+05 | | **REGRESSED** |",
		// The -benchmem pair is exact: an 8-byte change in a 6-digit
		// B/op must not round away.
		"| BenchmarkMem | 100.0 | 100.0 | +0.0% | 725360 → 725368 | 22 → 22 | | | ok |",
		"| BenchmarkNew | — | 10.0 | — |",
		"| BenchmarkGone | — | — | — | | | | | removed |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("markdown output missing %q:\n%s", want, got)
		}
	}
	var text bytes.Buffer
	_ = run([]string{"-compare", old, niu}, strings.NewReader(""), &text) // fails on BenchmarkA, as above
	if want := "725360 → 725368 B/op  22 → 22 allocs/op"; !strings.Contains(text.String(), want) {
		t.Errorf("text output missing %q:\n%s", want, text.String())
	}
	// The markdown must be the whole stdout payload — the plain-text
	// regression echo would corrupt the job-summary table.
	if strings.Contains(got, "regression:") {
		t.Errorf("markdown mode leaked the plain-text regression lines:\n%s", got)
	}
}

func TestCompareDisjointFilesError(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", Record{Pkg: "p", Name: "BenchmarkA", NsPerOp: 1})
	niu := writeReport(t, dir, "new.json", Record{Pkg: "p", Name: "BenchmarkB", NsPerOp: 1})
	if err := run([]string{"-compare", old, niu}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("disjoint record files must error (nothing was actually compared)")
	}
	if err := run([]string{"-compare", old}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("-compare with one file must error")
	}
}
