package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// endpoints are the daemon's five query endpoints, in round-robin order.
var endpoints = [...]string{"healthz", "clock_node", "skew", "legality", "stats"}

// requests prebuilds the request bytes: the four fixed endpoints plus one
// /v1/clock?node=k request per node, which the round-robin rotates through.
type requests struct {
	fixed [len(endpoints)][]byte
	clock [][]byte
}

func newRequests(nodes int) *requests {
	r := &requests{}
	get := func(path string) []byte { return []byte("GET " + path + " HTTP/1.1\r\nHost: gradsyncd\r\n\r\n") }
	for i, p := range []string{"/healthz", "", "/v1/skew", "/v1/legality", "/v1/stats"} {
		r.fixed[i] = get(p)
	}
	for k := 0; k < nodes; k++ {
		r.clock = append(r.clock, get("/v1/clock?node="+strconv.Itoa(k)))
	}
	return r
}

// request returns the i-th request of the schedule and its endpoint index.
func (r *requests) request(i int) ([]byte, int) {
	ep := i % len(endpoints)
	if ep == 1 {
		return r.clock[(i/len(endpoints))%len(r.clock)], ep
	}
	return r.fixed[ep], ep
}

// loadConfig is one open-loop run against one daemon.
type loadConfig struct {
	addr    string
	rate    float64       // offered requests per second, Poisson arrivals
	conns   int           // keep-alive connections, requests spread round-robin
	warmup  time.Duration // sent but not recorded
	measure time.Duration // recorded window
	seed    int64
	nodes   int // /v1/clock?node= rotates over [0, nodes)
}

// loadResult holds the recorded window's outcome. Latencies run from each
// request's due time to the end of its response, so a stall of the daemon
// or of the generator delays every request due during it.
type loadResult struct {
	latency   [len(endpoints)][]int64 // ns from due time, successful requests
	late      []int64                 // ns the send trailed its due time
	attempted int
	non200    int
	timeouts  int
	illegal   int     // /v1/skew or /v1/legality answered "legal": false
	achieved  float64 // successful responses per second of the recorded window
	// delivered is the achieved share of the offered rate, counted against
	// the requests the schedule put in the window rather than the nominal
	// rate, so Poisson noise in the arrival count does not move it.
	delivered float64
}

func (r *loadResult) failed() int { return r.non200 + r.timeouts + r.illegal }

// merge folds o into r.
func (r *loadResult) merge(o *loadResult) {
	for i := range r.latency {
		r.latency[i] = append(r.latency[i], o.latency[i]...)
	}
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.non200 += o.non200
	r.timeouts += o.timeouts
	r.illegal += o.illegal
}

// all returns every recorded latency.
func (r *loadResult) all() []int64 {
	var out []int64
	for _, l := range r.latency {
		out = append(out, l...)
	}
	return out
}

// pending is one request in flight on a connection.
type pending struct {
	due    int64 // ns since the schedule's origin
	ep     int
	record bool
}

// responseTimeout bounds the wait for one response; a request past it
// counts as timed out and the connection is abandoned.
const responseTimeout = 2 * time.Second

// loadConn is one keep-alive connection. The scheduler writes requests
// back to back without waiting (HTTP/1.1 pipelining); the reader matches
// responses to requests in order.
type loadConn struct {
	c net.Conn
	// q carries in-flight requests to the reader. Its capacity holds four
	// seconds of the offered rate, so a stalled daemon never blocks the
	// schedule before the response timeout has abandoned the connection.
	q    chan pending
	dead bool // set by the scheduler after a failed write
	res  loadResult
}

// runLoad drives one daemon with an open-loop Poisson schedule: request i
// is due at the i-th arrival of a seeded Poisson process and is sent then,
// whether or not earlier requests have been answered.
func runLoad(cfg loadConfig) (*loadResult, error) {
	reqs := newRequests(cfg.nodes)
	conns := make([]*loadConn, cfg.conns)
	for i := range conns {
		c, err := net.DialTimeout("tcp", cfg.addr, 5*time.Second)
		if err != nil {
			for _, d := range conns[:i] {
				d.c.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", cfg.addr, err)
		}
		conns[i] = &loadConn{c: c, q: make(chan pending, int(4*cfg.rate)+16)}
	}
	origin := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *loadConn) {
			defer wg.Done()
			c.read(origin)
		}(c)
	}

	res := &loadResult{}
	warm, end := cfg.warmup.Nanoseconds(), (cfg.warmup + cfg.measure).Nanoseconds()
	rng := rand.New(rand.NewSource(cfg.seed))
	// The schedule sleeps with nanosleep on a locked thread: the runtime's
	// timer overshoots sub-millisecond sleeps by most of a millisecond,
	// which would swamp the latencies being measured.
	runtime.LockOSThread()
	due, lastSent := int64(0), int64(0)
	for i := 0; ; i++ {
		due += int64(rng.ExpFloat64() / cfg.rate * 1e9)
		if due >= end {
			break
		}
		waitUntil(origin, due)
		sent := time.Since(origin).Nanoseconds()
		lastSent = sent
		req, ep := reqs.request(i)
		c := conns[i%len(conns)]
		record := due >= warm
		if record {
			res.attempted++
			res.late = append(res.late, sent-due)
		}
		if c.dead {
			if record {
				res.timeouts++
			}
			continue
		}
		c.q <- pending{due: due, ep: ep, record: record}
		if _, err := c.c.Write(req); err != nil {
			c.dead = true
		}
	}
	runtime.UnlockOSThread()
	for _, c := range conns {
		close(c.q)
	}
	wg.Wait()
	for _, c := range conns {
		c.c.Close()
		res.merge(&c.res)
	}
	// The offered window closes at its scheduled end, or at the last send
	// when the generator fell behind. Response time is what the run
	// measures, so a slow last response does not stretch the window.
	window := float64(max(lastSent, end) - warm)
	ok := res.attempted - res.failed()
	res.achieved = float64(ok) / (window / 1e9)
	if res.attempted > 0 {
		res.delivered = float64(ok) / float64(res.attempted) * float64(end-warm) / window
	}
	return res, nil
}

// waitUntil returns at or just after origin+due. It nanosleeps to within
// sleepMargin of the due time, which the kernel's timer slack and wake-up
// latency (about 70 µs here) mostly consume, and spins the remainder.
func waitUntil(origin time.Time, due int64) {
	const sleepMargin = 80 * time.Microsecond
	for {
		left := time.Duration(due - time.Since(origin).Nanoseconds())
		if left <= 0 {
			return
		}
		if left > sleepMargin {
			ts := syscall.NsecToTimespec(int64(left - sleepMargin))
			syscall.Nanosleep(&ts, nil)
		}
	}
}

// read consumes responses in request order until the scheduler closes q.
func (c *loadConn) read(origin time.Time) {
	br := bufio.NewReaderSize(c.c, 16<<10)
	broken := false
	for p := range c.q {
		if broken {
			if p.record {
				c.res.timeouts++
			}
			continue
		}
		c.c.SetReadDeadline(time.Now().Add(responseTimeout))
		status, body, err := readResponse(br)
		done := time.Since(origin).Nanoseconds()
		if err != nil {
			// The stream is out of step after any read error: every later
			// request on this connection is lost too, and closing it makes
			// the scheduler's next write fail instead of filling the socket.
			broken = true
			c.c.Close()
			if p.record {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) {
					c.res.timeouts++
				} else {
					c.res.non200++
				}
			}
			continue
		}
		if !p.record {
			continue
		}
		switch {
		case status != 200:
			c.res.non200++
		case (p.ep == 2 || p.ep == 3) && bytes.Contains(body, []byte(`"legal":false`)):
			c.res.illegal++
		default:
			c.res.latency[p.ep] = append(c.res.latency[p.ep], done-p.due)
		}
	}
}

// readResponse consumes one Content-Length-framed HTTP/1.1 response and
// returns its status and body. The body aliases the reader's buffer.
func readResponse(br *bufio.Reader) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte{':'}); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	body, err := br.Peek(length)
	if err != nil {
		return 0, nil, err
	}
	if _, err := br.Discard(length); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}
