// Command gradsyncd runs a live gradient clock synchronization network and
// serves its state over HTTP: per-node clocks, local/global skew against the
// gradient target, legality, and transport statistics, all as JSON. One
// process can host the whole network, or several processes can each host a
// slice of the node ids and peer over TCP with the length-prefixed beacon
// codec (internal/transport wire format).
//
// Examples:
//
//	gradsyncd -topo ring -n 16 -listen 127.0.0.1:8470
//	gradsyncd -topo ring -n 16 -trace run.trace   # record a replayable trace
//
//	# the same 8-ring split across two processes:
//	gradsyncd -topo ring -n 8 -own 0-3 -listen :8470 -peer-listen :9470 \
//	    -peer 127.0.0.1:9471=4-7
//	gradsyncd -topo ring -n 8 -own 4-7 -listen :8471 -peer-listen :9471 \
//	    -peer 127.0.0.1:9470=0-3
//
// Endpoints:
//
//	GET /healthz            liveness + sim time
//	GET /v1/clock           all hosted nodes' clocks
//	GET /v1/clock?node=3    one node's clocks
//	GET /v1/skew            skew report (global, max local, bound 2·S)
//	GET /v1/legality        legality verdict against the gradient target
//	GET /v1/stats           transport/trace counters
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/live"
	"repro/internal/topo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gradsyncd:", err)
		os.Exit(1)
	}
}

// peerFlag is one -peer value: addr=lo-hi, a TCP peer hosting a node range.
type peerFlag struct {
	addr  string
	nodes []int
}

func run(args []string) error {
	fs := flag.NewFlagSet("gradsyncd", flag.ContinueOnError)
	var (
		topoName   = fs.String("topo", "ring", "topology: ring, line or star")
		n          = fs.Int("n", 16, "total node count across all processes")
		s          = fs.Float64("s", 1, "gradient block size S (legality bound is 2S)")
		mu         = fs.Float64("mu", 0.1, "fast-mode boost µ")
		tick       = fs.Float64("tick", 0.05, "integration step, sim units")
		beacon     = fs.Float64("beacon", 0.25, "beacon interval, sim units")
		timescale  = fs.Duration("timescale", 20*time.Millisecond, "real duration of one sim unit")
		queueCap   = fs.Int("queue", 64, "capacity of each node's inbox and each peer link's outbound buffer")
		tracePath  = fs.String("trace", "", "record a replayable trace to this file")
		listen     = fs.String("listen", "127.0.0.1:8470", "HTTP listen address")
		own        = fs.String("own", "", "node ids hosted here, as lo-hi (default: all)")
		peerListen = fs.String("peer-listen", "", "TCP listen address for inbound peer beacons")
	)
	var peers []peerFlag
	var peerSpecs [][2]string
	fs.Func("peer", "peer TCP address and its node range, as addr=lo-hi (repeatable)", func(v string) error {
		addr, rng, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want addr=lo-hi, got %q", v)
		}
		peerSpecs = append(peerSpecs, [2]string{addr, rng})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Ranges validate against -n, which flag order doesn't fix until Parse is
	// done — so peer specs are collected raw and resolved here.
	for _, spec := range peerSpecs {
		nodes, err := parseRange(spec[1], *n)
		if err != nil {
			return fmt.Errorf("-peer %s: %w", spec[0], err)
		}
		peers = append(peers, peerFlag{addr: spec[0], nodes: nodes})
	}

	edges, err := buildEdges(*topoName, *n)
	if err != nil {
		return err
	}
	cfg := live.Config{
		N: *n, Edges: edges,
		S: *s, Mu: *mu,
		Tick: *tick, BeaconInterval: *beacon,
		TimeScale:     *timescale,
		QueueCapacity: *queueCap,
	}
	if *own != "" {
		if cfg.Owned, err = parseRange(*own, *n); err != nil {
			return fmt.Errorf("-own: %w", err)
		}
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		cfg.Trace = traceFile
	}

	c, err := live.NewCluster(cfg)
	if err != nil {
		return err
	}
	if *peerListen != "" {
		ln, err := net.Listen("tcp", *peerListen)
		if err != nil {
			return err
		}
		defer ln.Close()
		go c.ServePeers(ln)
	}
	for _, p := range peers {
		// Peers start independently; retry briefly so launch order between
		// the processes of one deployment doesn't matter.
		if err := connectWithRetry(c, p, 50, 100*time.Millisecond); err != nil {
			return fmt.Errorf("peer %s: %w", p.addr, err)
		}
	}

	c.Start()
	defer c.Stop()

	srv := &http.Server{Addr: *listen, Handler: newHandler(c)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sigCh:
	}
	srv.Close()
	return c.Stop()
}

func connectWithRetry(c *live.Cluster, p peerFlag, attempts int, wait time.Duration) error {
	var err error
	for i := 0; i < attempts; i++ {
		if _, err = c.ConnectPeer(p.addr, p.nodes); err == nil {
			return nil
		}
		time.Sleep(wait)
	}
	return err
}

// parseRange parses "lo-hi" (inclusive) or a single id into a node id list.
// Every id must be a valid node for a network of n nodes: negative ids and
// ids ≥ n are configuration errors, rejected here rather than surfacing
// later as routing failures.
func parseRange(s string, n int) ([]int, error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		hi = lo
	}
	a, err := strconv.Atoi(lo)
	if err != nil {
		return nil, fmt.Errorf("bad node range %q", s)
	}
	b, err := strconv.Atoi(hi)
	if err != nil || b < a {
		return nil, fmt.Errorf("bad node range %q", s)
	}
	if a < 0 || b >= n {
		return nil, fmt.Errorf("node range %q outside [0,%d)", s, n)
	}
	ids := make([]int, 0, b-a+1)
	for i := a; i <= b; i++ {
		ids = append(ids, i)
	}
	return ids, nil
}

// buildEdges returns the named topology over n nodes, built by topo's
// builders, as gradsync.StartLive builds it.
func buildEdges(topoName string, n int) ([][2]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("need at least one node, got -n %d", n)
	}
	build, ok := map[string]func(int) []topo.EdgeID{
		"ring": topo.Ring, "line": topo.Line, "star": topo.Star,
	}[topoName]
	if !ok {
		return nil, fmt.Errorf("unknown topology %q (want ring, line or star)", topoName)
	}
	ids := build(n)
	edges := make([][2]int, len(ids))
	for i, id := range ids {
		edges[i] = [2]int{id.U, id.V}
	}
	return edges, nil
}

// jsonCT is assigned into the response header map directly (map assignment
// of a shared slice) — unlike Header().Set, which canonicalizes the key
// through textproto and allocates on every request.
var jsonCT = []string{"application/json"}

// cachedResp is one pre-rendered response body, valid for exactly one
// cluster epoch.
type cachedResp struct {
	epoch uint64
	body  []byte
}

// server serves the query API for a running cluster. The hot endpoints
// (/v1/skew and /v1/clock?node=) are allocation-free: routing is a manual
// path switch (no ServeMux machinery), the node parameter is cut out of
// RawQuery without parsing the full query, and bodies are rendered by the
// hand-rolled appenders in encode.go into pooled buffers. Endpoints whose
// payload only changes when the cluster applies an input (/healthz,
// /v1/legality) cache their rendered body keyed on the published epoch, so
// under read-mostly load they serve the same byte slice until the next
// state-machine step.
type server struct {
	c       *live.Cluster
	bufPool sync.Pool // *[]byte response scratch
	health  atomic.Pointer[cachedResp]
	legal   atomic.Pointer[cachedResp]
}

// newHandler serves the query API for a running cluster.
func newHandler(c *live.Cluster) http.Handler {
	s := &server{c: c}
	s.bufPool.New = func() any {
		b := make([]byte, 0, 512)
		return &b
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch r.URL.Path {
	case "/healthz":
		s.serveHealth(w)
	case "/v1/clock":
		s.serveClock(w, r)
	case "/v1/skew":
		s.serveSkew(w)
	case "/v1/legality":
		s.serveLegality(w)
	case "/v1/stats":
		s.serveStats(w)
	default:
		http.NotFound(w, r)
	}
}

// respond writes one rendered JSON body. Content-Length is left to
// net/http's single-write detection, so the write path adds no header
// allocations.
func respond(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonCT
	w.Write(body)
}

func (s *server) serveHealth(w http.ResponseWriter) {
	e := s.c.Epoch()
	if p := s.health.Load(); p != nil && p.epoch == e {
		respond(w, p.body)
		return
	}
	// Rebuilds race benignly: concurrent requests on a fresh epoch may each
	// render (reporting their own simNow), and any of the stores is a valid
	// cache for the epoch.
	body := appendHealth(make([]byte, 0, 96), s.c.SimNow(), s.c.N(), len(s.c.Owned()))
	s.health.Store(&cachedResp{epoch: e, body: body})
	respond(w, body)
}

func (s *server) serveLegality(w http.ResponseWriter) {
	e := s.c.Epoch()
	if p := s.legal.Load(); p != nil && p.epoch == e {
		respond(w, p.body)
		return
	}
	body := appendLegality(make([]byte, 0, 128), s.c.Legality())
	s.legal.Store(&cachedResp{epoch: e, body: body})
	respond(w, body)
}

func (s *server) serveClock(w http.ResponseWriter, r *http.Request) {
	q, ok := nodeQuery(r.URL.RawQuery)
	// The buffer is written back after appending so growth (a ring larger
	// than the initial 512 bytes) sticks to the pooled slot instead of
	// reallocating on every request.
	bp := s.bufPool.Get().(*[]byte)
	defer s.bufPool.Put(bp)
	if !ok {
		*bp = appendClockAll((*bp)[:0], s.c)
		respond(w, *bp)
		return
	}
	id, err := strconv.Atoi(q)
	if err != nil || id < 0 || id >= s.c.N() {
		http.Error(w, "node must be an integer in [0,n)", http.StatusBadRequest)
		return
	}
	if !s.c.Owns(id) {
		http.Error(w, "node is hosted by another process", http.StatusNotFound)
		return
	}
	snap, _ := s.c.Snapshot(id)
	*bp = appendSnapshot((*bp)[:0], snap)
	respond(w, *bp)
}

func (s *server) serveSkew(w http.ResponseWriter) {
	bp := s.bufPool.Get().(*[]byte)
	*bp = appendSkew((*bp)[:0], s.c.Skew())
	respond(w, *bp)
	s.bufPool.Put(bp)
}

func (s *server) serveStats(w http.ResponseWriter) {
	bp := s.bufPool.Get().(*[]byte)
	*bp = appendStats((*bp)[:0], s.c.Stats())
	respond(w, *bp)
	s.bufPool.Put(bp)
}

// nodeQuery cuts the node parameter out of a raw query string without
// url.ParseQuery (which allocates a map per call). Substring operations
// only, so present-or-absent detection is free.
func nodeQuery(raw string) (val string, ok bool) {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if v, found := strings.CutPrefix(kv, "node="); found {
			return v, true
		}
	}
	return "", false
}
