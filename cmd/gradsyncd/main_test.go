package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/live"
)

func startTestCluster(t testing.TB, n int) *live.Cluster {
	t.Helper()
	edges, err := buildEdges("ring", n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.NewCluster(live.Config{
		N: n, Edges: edges,
		Tick: 0.05, BeaconInterval: 0.25,
		TimeScale: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Stop() })
	return c
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
	}
	return resp
}

func TestDaemonEndpoints(t *testing.T) {
	c := startTestCluster(t, 16)
	srv := httptest.NewServer(newHandler(c))
	defer srv.Close()
	time.Sleep(150 * time.Millisecond) // let some beacons flow

	var health struct {
		OK     bool    `json:"ok"`
		SimNow float64 `json:"simNow"`
		N      int     `json:"n"`
	}
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	if !health.OK || health.N != 16 || health.SimNow <= 0 {
		t.Fatalf("/healthz: %+v", health)
	}

	var clocks struct {
		Nodes []live.NodeSnapshot `json:"nodes"`
	}
	getJSON(t, srv, "/v1/clock", &clocks)
	if len(clocks.Nodes) != 16 {
		t.Fatalf("/v1/clock returned %d nodes, want 16", len(clocks.Nodes))
	}

	var one live.NodeSnapshot
	getJSON(t, srv, "/v1/clock?node=3", &one)
	if one.Node != 3 || one.HW <= 0 {
		t.Fatalf("/v1/clock?node=3: %+v", one)
	}
	// node=99 names a node that cannot exist in a 16-node network: invalid
	// input (400), not a missing resource (404 is reserved for valid ids
	// hosted by another process; see TestClockNodeStatusCodes).
	if resp := getJSON(t, srv, "/v1/clock?node=99", &one); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/clock?node=99: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/clock?node=x", &one); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/clock?node=x: status %d, want 400", resp.StatusCode)
	}

	var skew live.SkewReport
	getJSON(t, srv, "/v1/skew", &skew)
	if skew.Bound != 2 || !skew.Legal {
		t.Fatalf("/v1/skew: %+v", skew)
	}

	var leg struct {
		Legal bool    `json:"legal"`
		Bound float64 `json:"bound"`
	}
	getJSON(t, srv, "/v1/legality", &leg)
	if !leg.Legal || leg.Bound != 2 {
		t.Fatalf("/v1/legality: %+v", leg)
	}

	var stats live.Stats
	getJSON(t, srv, "/v1/stats", &stats)
	if stats.Enqueued == 0 {
		t.Fatalf("/v1/stats shows no traffic: %+v", stats)
	}
}

func TestParseRange(t *testing.T) {
	const n = 16
	for in, want := range map[string][]int{
		"0-3":   {0, 1, 2, 3},
		"5":     {5},
		"7-7":   {7},
		"15":    {15},
		"14-15": {14, 15},
	} {
		got, err := parseRange(in, n)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseRange(%q, %d) = %v, %v; want %v", in, n, got, err, want)
		}
	}
	for _, in := range []string{
		"", "3-1", "a-b", "1-", // malformed
		"-1", "-3-2", "-2--1", // negative ids
		"16", "15-16", "0-99", // ids ≥ n
	} {
		if ids, err := parseRange(in, n); err == nil {
			t.Errorf("parseRange(%q, %d) accepted: %v", in, n, ids)
		}
	}
}

// TestRunRejectsBadNumbers checks that out-of-range flags make run return
// an error before any node starts, instead of panicking on a node
// goroutine or running with them.
func TestRunRejectsBadNumbers(t *testing.T) {
	for _, args := range [][]string{
		{"-tick", "-1"},
		{"-tick", "1e-12"},
		{"-timescale", "-5ms"},
		{"-queue", "-1"},
		{"-mu", "-1"},
		{"-mu", "NaN"},
		{"-s", "NaN"},
	} {
		if err := run(append(args, "-listen", "127.0.0.1:0")); err == nil {
			t.Errorf("run %v returned no error", args)
		}
	}
}

func TestBuildEdges(t *testing.T) {
	for _, tc := range []struct {
		topo  string
		n     int
		edges int
	}{
		{"ring", 5, 5}, {"ring", 2, 1}, {"ring", 1, 0}, {"line", 5, 4}, {"star", 5, 4},
	} {
		edges, err := buildEdges(tc.topo, tc.n)
		if err != nil || len(edges) != tc.edges {
			t.Errorf("buildEdges(%s, %d) = %d edges, %v; want %d", tc.topo, tc.n, len(edges), err, tc.edges)
		}
	}
	if _, err := buildEdges("torus", 4); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := buildEdges("ring", 0); err == nil {
		t.Error("empty network accepted")
	}
}

// nullResponseWriter is the benchmark/alloc-test sink: a ResponseWriter
// whose header map persists across requests and whose body writes are
// discarded, so measurements see the handler's own cost, not the
// recorder's. Not safe for concurrent use — each goroutine gets its own.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func newNullRW() *nullResponseWriter { return &nullResponseWriter{h: make(http.Header, 4)} }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(code int)        { w.status = code }

// benchEndpoint runs one endpoint serially and in parallel against a live
// 16-node ring, reporting throughput as a qps metric. The handler is
// exercised directly (no sockets), so this bounds the query path itself:
// snapshot read + report scan + hand-rolled JSON.
func benchEndpoint(b *testing.B, target string) {
	c := startTestCluster(b, 16)
	h := newHandler(c)
	b.Run("serial", func(b *testing.B) {
		req := httptest.NewRequest("GET", target, nil)
		rw := newNullRW()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(rw, req)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := httptest.NewRequest("GET", target, nil)
			rw := newNullRW()
			for pb.Next() {
				h.ServeHTTP(rw, req)
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
}

// BenchmarkSkewQuery measures /v1/skew throughput — the daemon's QPS figure.
func BenchmarkSkewQuery(b *testing.B) { benchEndpoint(b, "/v1/skew") }

// BenchmarkClockQuery measures single-node /v1/clock throughput — the
// cheapest read (one seqlock snapshot plus ~150 bytes of JSON), so its qps
// is the ceiling of the query plane.
func BenchmarkClockQuery(b *testing.B) { benchEndpoint(b, "/v1/clock?node=3") }
