package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/live"
)

// daemonNodes is the daemon's ring size.
const daemonNodes = 64

// The daemon runs the protocol at the default real-time rates (a tick every
// 1 ms, a beacon every 5 ms) but on a five times longer time scale: 100 ms
// per unit instead of 20, with tick and beacon interval shrunk to match. The
// legality bound 2S = 2 units then allows a node to trail its neighbours by
// 200 ms of real time instead of 40. With the default scale, a node thread
// descheduled by the hypervisor for 40 ms makes /v1/legality answer
// "legal": false; on a shared 2-vCPU host that happened in about one run in
// twenty at full scale, and in most runs of the smoke test.
var daemonArgs = []string{
	"-topo", "ring", "-n", fmt.Sprint(daemonNodes),
	"-tick", "0.01", "-beacon", "0.05", "-timescale", "100ms",
}

// daemonConfig is the live configuration daemonArgs give gradsyncd.
func daemonConfig() live.Config {
	edges := make([][2]int, daemonNodes)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % daemonNodes}
	}
	return live.Config{N: daemonNodes, Edges: edges, Tick: 0.01, BeaconInterval: 0.05, TimeScale: 100 * time.Millisecond}
}

// daemon is one gradsyncd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	spawned time.Time
	startup time.Duration // spawn until the first 200 from /healthz
	exited  chan error
}

// startDaemon spawns gradsyncd with daemonArgs on a free loopback port
// and waits for /healthz to answer 200. A port taken between choosing and
// binding makes the child exit; that is retried on a fresh port.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d := &daemon{addr: addr, exited: make(chan error, 1)}
		d.cmd = exec.Command(bin, append(daemonArgs, "-listen", addr)...)
		d.cmd.Stderr = os.Stderr
		// The child dies with the benchmark even if the benchmark is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		d.spawned = time.Now()
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() { d.exited <- d.cmd.Wait() }()
		if lastErr = d.awaitHealthy(10 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// awaitHealthy polls /healthz every millisecond until it answers 200.
func (d *daemon) awaitHealthy(limit time.Duration) error {
	client := &http.Client{Timeout: 100 * time.Millisecond}
	deadline := d.spawned.Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("gradsyncd exited during start-up: %v", err)
		default:
		}
		if resp, err := client.Get("http://" + d.addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.startup = time.Since(d.spawned)
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("gradsyncd on %s not healthy after %v", d.addr, limit)
}

// stats reads /v1/stats.
func (d *daemon) stats() (live.Stats, error) {
	var st live.Stats
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + d.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpu returns the on-CPU time of the daemon's threads, summed from their
// /proc schedstat (nanosecond resolution; 0 where /proc is unavailable).
func (d *daemon) cpu() time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			sum += ns
		}
	}
	return time.Duration(sum)
}

// stop sends SIGTERM, waits up to five seconds for a clean exit, then kills
// the process and waits for it to end.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// daemonRun is the outcome of the daemon part of a run.
type daemonRun struct {
	startups     []float64 // seconds
	startupSteal float64   // share of CPU time stolen during the startups
	load         loadResult
	// Per loaded daemon: query latency p50 and p99 from the due time (µs),
	// the tick p99 its /v1/stats reports (ms) and the CPU cores it used
	// while under load.
	p50, p99, tickP99, cpu []float64
	offered                float64 // requests per second
	delivered              float64 // lowest delivered share of the offered rate over the daemons
	// The /v1/stats transport counters per second of daemon life.
	droppedPerS, enqueuedPerS float64
}

// loadDaemons runs count fresh daemons one after another, each under the
// open-loop query load for its share of budget after a warm-up, reading
// /v1/stats after each.
func loadDaemons(bin string, count int, budget time.Duration, sc scale, seed int64) (*daemonRun, error) {
	r := &daemonRun{offered: sc.rate, delivered: 1}
	var startSteal stealWatch
	for i := 0; i < count; i++ {
		startSteal.start()
		d, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		startSteal.stop()
		c0, t0 := d.cpu(), time.Now()
		lr, err := runLoad(loadConfig{
			addr: d.addr, rate: sc.rate, conns: 2, warmup: sc.warmup,
			measure: budget / time.Duration(count), seed: seed*1000 + int64(i), nodes: daemonNodes,
		})
		cores := float64(d.cpu()-c0) / float64(time.Since(t0))
		var st live.Stats
		if err == nil {
			st, err = d.stats()
		}
		life := time.Since(d.spawned).Seconds()
		d.stop()
		if err != nil {
			return nil, err
		}
		r.startups = append(r.startups, d.startup.Seconds())
		r.load.merge(lr)
		lat := micros(lr.all())
		r.p50 = append(r.p50, quantile(lat, 0.5))
		r.p99 = append(r.p99, quantile(lat, 0.99))
		r.load.achieved += lr.achieved / float64(count)
		r.delivered = min(r.delivered, lr.delivered)
		r.tickP99 = append(r.tickP99, st.TickP99Ms)
		r.cpu = append(r.cpu, cores)
		r.droppedPerS += float64(st.Dropped) / life / float64(count)
		r.enqueuedPerS += float64(st.Enqueued) / life / float64(count)
	}
	r.startupSteal = startSteal.share()
	return r, nil
}

// idleDaemonTickP99 runs a fresh daemon for d with no query load and
// returns its tick p99 in ms.
func idleDaemonTickP99(bin string, dur time.Duration) (float64, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	time.Sleep(dur)
	st, err := d.stats()
	return st.TickP99Ms, err
}
