package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is the provenance every record carries.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`      // git HEAD, when the tree is a git checkout
	SourceSHA  string  `json:"source_sha"`  // sha256 over the tree's Go sources and modules
	StealShare float64 `json:"steal_share"` // share of CPU time stolen by the hypervisor over the run; -1 if unknown

	watch stealWatch
}

// newHost records the provenance and the CPU counters at the run's start.
func newHost(root string) *host {
	h := &host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SourceSHA:  sourceSHA(root),
		StealShare: -1,
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	h.watch.start()
	return h
}

// finish sets the steal share over the interval since newHost.
func (h *host) finish() {
	h.watch.stop()
	if h.watch.total > 0 {
		h.StealShare = h.watch.share()
	}
}

// cpuStat returns the steal and total jiffies of the aggregate cpu line of
// /proc/stat.
func cpuStat() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// sourceSHA hashes the path and content of every .go, go.mod and go.sum
// file under root, skipping hidden directories, in lexical order.
func sourceSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stealWatch accumulates the jiffies the hypervisor stole, and the total
// jiffies, over the intervals between start and stop calls.
type stealWatch struct {
	steal, total uint64
	s0, t0       uint64
	ok           bool
}

func (w *stealWatch) start() { w.s0, w.t0, w.ok = cpuStat() }

func (w *stealWatch) stop() {
	if s, t, ok := cpuStat(); ok && w.ok && t > w.t0 {
		w.steal += s - w.s0
		w.total += t - w.t0
	}
}

// share is the stolen share of CPU time over the watched intervals (0 where
// /proc/stat is unavailable).
func (w *stealWatch) share() float64 {
	if w.total == 0 {
		return 0
	}
	return float64(w.steal) / float64(w.total)
}

// netOfSteal scales a host duration measured while the share s of CPU time
// was stolen to the time it would have taken without the theft. On a shared
// 2-vCPU host that share swung between 0% and 34% over consecutive runs and
// stretched wall time at least as much.
func netOfSteal(d, s float64) float64 { return d * (1 - s) }
