// Command perfbench is the repository benchmark. One run exercises both
// harnesses the repository ships:
//
//   - the simulator, through the public API: the workload's network is built
//     with gradsync.New (several times; set-up time is their median) and
//     advanced in timed 0.1-unit RunFor slices, with both sharding knobs at 2,
//     for 70% of the time budget;
//   - the live daemon: fresh `gradsyncd -topo ring -n 64` processes built
//     from the same tree (daemonArgs gives their flags), queried over
//     loopback sockets by an open-loop Poisson generator at a fixed offered
//     rate for the rest of the budget.
//
// Every slice and every request is checked: the gradient ladder against
// Corollary 7.10, the ring's global skew against G̃, trigger conflicts,
// scenario errors, HTTP status and the daemon's legality verdict.
//
// With --trace 1 the simulated stack is instead assembled by hand with a
// timing decorator around the algorithm, one span per layer per slice is
// kept in memory and written to -spans at exit, and the same slices are
// replayed untraced through gradsync.New to check the final clocks agree
// and to measure the tracing overhead. The daemon side then reports
// per-endpoint latencies, an unloaded daemon's tick p99 and in-process
// timings of the live query calls.
//
// Usage, from the repository root (perfbench/run.sh builds and runs):
//
//	perfbench -gradsyncd .bench_build/gradsyncd --workload geo-mobile-10k --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the JSON result; the line before it
// is the run's record: host provenance, sample counts and every failure
// count against its attempts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the simulator or the daemon sees,
// reported by untraced runs. The simulator's throughput is scaled to a
// reference host speed (calib.go) and set-up time is taken net of the CPU
// time the hypervisor stole (netOfSteal). The daemon's query latency, tick
// jitter and CPU use, and the slice p50 and p90, are not among them: on a
// shared 2-vCPU host their spread over five seeds (query p50 0.5–1.0, query
// p99 1.2–3.7, tick p99 0.4–1.0, daemon CPU 0.1–0.6, slice p50 and p90
// 0.1–0.3 of the median) is wider than any usable regression bound, and
// neither correction scales them in proportion. The traced run reports the
// daemon figures per layer; the record carries the rest.
var endToEnd = []metric{
	{"setup_s", "s"},                       // median gradsync.New (topology build included) + median daemon spawn-to-healthy, net of steal
	{"sim_units_per_ref_s", "units/ref-s"}, // simulated time per host second inside RunFor, at the reference host speed (calib.go)
	{"heap_bytes_per_node", "B"},           // live heap after GC with the network reachable, per node
	{"gradient_ratio", "ratio"},            // worst ladder skew over its Corollary 7.10 bound
}

// perLayer are the traced run's figures, named by repository module.
// Simulator counts and times are per simulated unit.
var perLayer = []metric{
	{"sim.events", "1/unit"},
	{"sim.windows", "1/unit"},
	{"sim.events_per_window", "events/window"},
	{"sim.crossed_ticks", "1/unit"},
	{"sim.serial_steps", "1/unit"},
	{"sim.global_events", "1/unit"},
	{"sim.trunc_global", "1/unit"},
	{"sim.trunc_control", "1/unit"},
	{"sim.trunc_lookahead", "1/unit"},
	{"core.step_ms", "ms/unit"},
	{"core.stepnode_ms", "ms/unit"},
	{"core.beacon_ms", "ms/unit"},
	{"core.control_ms", "ms/unit"},
	{"core.edge_ms", "ms/unit"},
	{"core.step_calls", "1/unit"},
	{"core.stepnode_calls", "1/unit"},
	{"core.beacon_calls", "1/unit"},
	{"core.control_calls", "1/unit"},
	{"core.edge_calls", "1/unit"},
	{"core.insertions", "1/unit"},
	{"core.handshake_aborts", "1/unit"},
	{"core.trigger_conflicts", "count"},
	{"runner.drain_ms", "ms/unit"},
	{"estimate.misses", "1/unit"},
	{"estimate.query_ns", "ns"},
	{"transport.sent", "1/unit"},
	{"transport.dropped", "1/unit"},
	{"transport.slab_bytes_per_node", "B"},
	{"scenario.edge_events", "1/unit"},
	{"scenario.moves", "1/unit"},
	{"live.snapshot_ns", "ns"},
	{"live.skew_ns", "ns"},
	{"live.legality_ns", "ns"},
	{"live.stats_ns", "ns"},
	{"live.daemon_cpu", "cores"}, // CPU the loaded daemon burns: protocol loops plus serving
	{"live.dropped", "1/s"},
	{"live.enqueued", "1/s"},
	{"live.tick_p99_ms", "ms"}, // under query load, from /v1/stats
	{"live.tick_p99_ms_noload", "ms"},
	{"http.query_p50_us", "us"}, // all endpoints, from the due time
	{"http.query_p99_us", "us"},
	{"http.healthz_p50_us", "us"},
	{"http.healthz_p99_us", "us"},
	{"http.clock_node_p50_us", "us"},
	{"http.clock_node_p99_us", "us"},
	{"http.skew_p50_us", "us"},
	{"http.skew_p99_us", "us"},
	{"http.legality_p50_us", "us"},
	{"http.legality_p99_us", "us"},
	{"http.stats_p50_us", "us"},
	{"http.stats_p99_us", "us"},
	{"load.late_ms_p99", "ms"},
	{"load.achieved_qps", "1/s"},
	{"trace.overhead_pct", "%"},
	{"host.probe_rate", "Msteps/s"}, // the reference kernel's speed, to compare host times across runs
}

// scale sizes a run; tests shrink it.
type scale struct {
	ringN, geoN int
	setups      int           // gradsync.New calls per run
	daemons     int           // fresh loaded daemons per untraced run
	rate        float64       // offered query rate, requests per second
	warmup      time.Duration // unrecorded load at the start of each daemon
	liveProbe   time.Duration // in-process timing per live query call
}

var fullScale = scale{
	ringN:     100000,
	geoN:      10000,
	setups:    9,
	daemons:   5,
	rate:      4000,
	warmup:    500 * time.Millisecond,
	liveProbe: 250 * time.Millisecond,
}

// workloads maps each workload name to its simulated network.
var workloads = map[string]func(scale) netSpec{
	// Steady-state large-N drain work: wide windows, crossed ticks, the
	// beacon wheel and Messaging.RecordBeacon; about one churn toggle per
	// unit.
	"ring-messaging-100k": func(s scale) netSpec { return ringSpec(s.ringN) },
	// Write-heavy dynamics: hundreds of edge transitions and handshakes per
	// unit; global events cut windows short and the oracle keeps tick
	// crossing off.
	"geo-mobile-10k": func(s scale) netSpec { return geoSpec(s.geoN) },
}

// options is one invocation.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	gradsyncd string // daemon binary
	spans     string // directory for traced spans
	scale     scale
}

func main() {
	o := options{scale: fullScale}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: ring-messaging-100k or geo-mobile-10k")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured time budget in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.gradsyncd, "gradsyncd", ".bench_build/gradsyncd", "gradsyncd binary")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	if err := execute(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outcome is what a run measured and checked.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	invalid           []string       // reasons the run's figures cannot be trusted
	record            map[string]any // sample and failure counts for the record line
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and writes the record and result lines.
func execute(o options, stdout io.Writer) error {
	mk, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if _, err := os.Stat(o.gradsyncd); err != nil {
		return fmt.Errorf("gradsyncd binary: %w", err)
	}
	spec := mk(o.scale)
	h := newHost(".")
	budget := time.Duration(o.seconds * float64(time.Second))
	var (
		out  *outcome
		err  error
		defs = endToEnd
	)
	if o.trace {
		out, err = tracedOutcome(o, spec, budget)
		defs = perLayer
	} else {
		out, err = plainOutcome(o, spec, budget)
	}
	if err != nil {
		return err
	}
	h.finish()

	res := result{
		Correct:   out.failed == 0 && len(out.invalid) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, m := range defs {
		v, ok := out.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	rec := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": h, "invalid": out.invalid, "checks": out.record,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// simShare is the part of the budget the simulator gets; the daemons share
// the rest.
const simShare = 0.7

// plainOutcome is the untraced run: the end-to-end figures.
func plainOutcome(o options, spec netSpec, budget time.Duration) (*outcome, error) {
	simBudget := time.Duration(simShare * float64(budget))
	sr, err := runSim(spec, o.seed, o.scale.setups, spec.slicesFor(simBudget), overrun(simBudget))
	if err != nil {
		return nil, err
	}
	dr, err := loadDaemons(o.gradsyncd, o.scale.daemons, budget-simBudget, o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		values: map[string]float64{
			"setup_s":             netOfSteal(median(sr.setups), sr.setupSteal) + netOfSteal(median(dr.startups), dr.startupSteal),
			"sim_units_per_ref_s": sr.unitsPerRefSecond(),
			"heap_bytes_per_node": sr.heapPerNode,
			"gradient_ratio":      sr.check.ladder.worst,
		},
		attempted: sr.check.slices + dr.load.attempted,
		failed:    sr.check.failedSlices + dr.load.failed(),
		record: map[string]any{
			"sim":    simRecord(sr),
			"daemon": daemonRecord(dr),
		},
	}
	out.checkRate(dr)
	return out, nil
}

// checkRate marks the run invalid when a daemon was delivered less than 95%
// of the offered rate: the figures would then describe a lighter load.
func (out *outcome) checkRate(dr *daemonRun) {
	if dr.delivered < 0.95 {
		out.invalid = append(out.invalid, fmt.Sprintf("a daemon was delivered %.1f%% of the offered %.0f req/s", 100*dr.delivered, dr.offered))
	}
}

// tracedOutcome is the traced run: the per-layer figures.
func tracedOutcome(o options, spec netSpec, budget time.Duration) (*outcome, error) {
	tr, err := runTracedSim(spec, o.seed, time.Duration(0.4*float64(budget)))
	if err != nil {
		return nil, err
	}
	daemonBudget := time.Duration(0.15 * float64(budget))
	dr, err := loadDaemons(o.gradsyncd, 1, daemonBudget, o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	idle, err := idleDaemonTickP99(o.gradsyncd, o.scale.warmup+daemonBudget)
	if err != nil {
		return nil, err
	}
	probe, err := probeLive(o.scale.liveProbe)
	if err != nil {
		return nil, err
	}
	path, err := writeSpans(o.spans, o.workload, o.seed, tr.spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	v := probe
	for k, x := range tr.layers {
		v[k] = x
	}
	v["live.daemon_cpu"] = dr.cpu[0]
	v["live.dropped"] = dr.droppedPerS
	v["live.enqueued"] = dr.enqueuedPerS
	v["live.tick_p99_ms"] = dr.tickP99[0]
	v["live.tick_p99_ms_noload"] = idle
	all := micros(dr.load.all())
	v["http.query_p50_us"] = quantile(all, 0.5)
	v["http.query_p99_us"] = quantile(all, 0.99)
	for i, name := range endpoints {
		l := micros(dr.load.latency[i])
		v["http."+name+"_p50_us"] = quantile(l, 0.5)
		v["http."+name+"_p99_us"] = quantile(l, 0.99)
	}
	v["load.late_ms_p99"] = quantile(micros(dr.load.late), 0.99) / 1e3
	v["load.achieved_qps"] = dr.load.achieved
	replayWall := tr.replay.wallSeconds()
	var tracedWall float64
	for _, s := range tr.slices {
		tracedWall += s / 1e3
	}
	v["trace.overhead_pct"] = 100 * (tracedWall/replayWall - 1)
	v["host.probe_rate"] = tr.replay.probeRate / 1e6

	rc := tr.replay.check
	out := &outcome{
		values: v,
		// The traced slices are checked through their replay, plus the
		// fingerprint comparison and the traced stack's own conflict and
		// scenario-error check.
		attempted: rc.slices + 2 + dr.load.attempted,
		failed:    rc.failedSlices + dr.load.failed(),
		record: map[string]any{
			"sim":                simRecord(tr.replay),
			"daemon":             daemonRecord(dr),
			"traced_fingerprint": tr.fingerprint,
			"spans":              path,
		},
	}
	if !tr.fingerprintsMet {
		out.failed++
	}
	if tr.conflictOrErr {
		out.failed++
	}
	out.checkRate(dr)
	return out, nil
}

func simRecord(r *simRun) map[string]any {
	c := r.check
	rec := map[string]any{
		"slices": len(r.slices), "failed_slices": c.failedSlices,
		"ladder_samples": c.ladder.samples, "ladder_violations": c.ladder.violations,
		"global_checks": c.globalChecks, "global_violations": c.globalViolations,
		"trigger_conflicts": c.net.Core().TriggerConflicts,
		"setups":            len(r.setups), "setup_s": r.setups, "units": r.units(), "fingerprint": r.fingerprint,
		"setup_steal_share": r.setupSteal, "units_per_wall_s": r.units() / r.wallSeconds(), "probe_rate": r.probeRate, "probes": r.probes,
		"slice_ms_p50": median(r.slices), "slice_ms_p90": quantile(r.slices, 0.9),
	}
	if r.scenario.err != nil {
		rec["scenario_error"] = r.scenario.err.Error()
	}
	return rec
}

func daemonRecord(d *daemonRun) map[string]any {
	return map[string]any{
		"requests": d.load.attempted, "non200": d.load.non200, "timeouts": d.load.timeouts,
		"illegal": d.load.illegal, "latency_samples": len(d.load.all()),
		"offered_qps": d.offered, "achieved_qps": d.load.achieved, "delivered_share": d.delivered,
		"late_ms_p50": quantile(micros(d.load.late), 0.5) / 1e3,
		"late_ms_p99": quantile(micros(d.load.late), 0.99) / 1e3,
		"daemons":     len(d.startups), "startup_steal_share": d.startupSteal, "tick_p99_ms": d.tickP99,
		"p50_us": d.p50, "p99_us": d.p99, "cpu": d.cpu,
	}
}

// micros converts nanoseconds to microseconds.
func micros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
