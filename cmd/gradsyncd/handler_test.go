package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
)

// TestEncodersMatchEncodingJSON pins the hand-rolled appenders of encode.go
// to encoding/json: both renderings of the same value must decode to the
// same document. Decode-equal rather than byte-equal, because the two
// libraries pick different (but value-identical) float spellings — json
// writes 1e-9 where strconv 'g' writes 1e-09.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	// Values chosen to cross float-formatting regimes: integers, shortest
	// decimals, subnormal-small and huge magnitudes, negatives, zero.
	snap := live.NodeSnapshot{
		Node: 3, L: 12.340000000000002, M: -0.1, HW: 1e-9, Mult: 1.1,
		Fast: 18446744073709551615, Slow: 7, Samples: 42, Seq: 900719925474099,
	}
	skew := live.SkewReport{
		SimNow: 123.456, GlobalSkew: 1e21, MaxLocalSkew: 0.30000000000000004,
		Bound: 2, Legal: false,
	}
	leg := live.LegalityReport{Legal: true, Bound: 2, MaxLocalSkew: 0, SimNow: 1e-7}
	stats := live.Stats{
		SimNow: 9.5, Epoch: 12345, Enqueued: 10, Dropped: 1, Unrouted: 2,
		Rejected: 4, Reconnects: 3, PeersDown: 1, Records: 99,
		TickNominalMs: 1, TickP50Ms: 1.0625, TickP99Ms: 2.125,
	}
	cases := []struct {
		name string
		v    any
		got  []byte
	}{
		{"snapshot", snap, appendSnapshot(nil, snap)},
		{"skew", skew, appendSkew(nil, skew)},
		{"legality", leg, appendLegality(nil, leg)},
		{"stats", stats, appendStats(nil, stats)},
		{
			"health",
			map[string]any{"ok": true, "simNow": 0.30000000000000004, "n": 16, "owned": 8},
			appendHealth(nil, 0.30000000000000004, 16, 8),
		},
	}
	for _, tc := range cases {
		want, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		var wantDoc, gotDoc map[string]any
		if err := json.Unmarshal(want, &wantDoc); err != nil {
			t.Fatalf("%s: encoding/json produced undecodable output: %v", tc.name, err)
		}
		if err := json.Unmarshal(tc.got, &gotDoc); err != nil {
			t.Fatalf("%s: appender produced invalid JSON %q: %v", tc.name, tc.got, err)
		}
		if !reflect.DeepEqual(wantDoc, gotDoc) {
			t.Errorf("%s: appender diverges from encoding/json\n got: %s\nwant: %s", tc.name, tc.got, want)
		}
	}
}

// TestClockAllDocument checks the full /v1/clock rendering against a running
// cluster: the values move between reads, so this validates shape (decodes,
// right node set, sane fields) rather than comparing bytes.
func TestClockAllDocument(t *testing.T) {
	c := startTestCluster(t, 8)
	time.Sleep(50 * time.Millisecond)
	var doc struct {
		SimNow float64             `json:"simNow"`
		Nodes  []live.NodeSnapshot `json:"nodes"`
	}
	body := appendClockAll(nil, c)
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("appendClockAll produced invalid JSON %q: %v", body, err)
	}
	if doc.SimNow <= 0 || len(doc.Nodes) != 8 {
		t.Fatalf("bad clock document: simNow=%v nodes=%d", doc.SimNow, len(doc.Nodes))
	}
	for i, s := range doc.Nodes {
		if s.Node != i || s.HW < 0 || s.Mult < 1 {
			t.Fatalf("bad node entry %d: %+v", i, s)
		}
	}
}

// TestClockNodeStatusCodes pins the 400-versus-404 contract of
// /v1/clock?node=: malformed or impossible ids are client errors, while a
// valid id this process doesn't host is a missing resource (the caller
// should retry against the peer that owns it).
func TestClockNodeStatusCodes(t *testing.T) {
	edges, err := buildEdges("ring", 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.NewCluster(live.Config{
		N: 8, Edges: edges, Owned: []int{0, 1, 2, 3},
		Tick: 0.05, BeaconInterval: 0.25, TimeScale: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Stop() })
	h := newHandler(c)

	for _, tc := range []struct {
		query string
		want  int
	}{
		{"node=0", http.StatusOK},
		{"node=3", http.StatusOK},
		{"", http.StatusOK},                // no parameter: all hosted nodes
		{"other=1", http.StatusOK},         // unrelated parameters are ignored
		{"node=4", http.StatusNotFound},    // valid id, hosted elsewhere
		{"node=7", http.StatusNotFound},    // valid id, hosted elsewhere
		{"node=8", http.StatusBadRequest},  // ≥ n: no such node anywhere
		{"node=99", http.StatusBadRequest}, // ≥ n
		{"node=-1", http.StatusBadRequest}, // negative
		{"node=x", http.StatusBadRequest},  // not an integer
		{"node=", http.StatusBadRequest},   // empty value
		{"node=3.5", http.StatusBadRequest},
	} {
		req := httptest.NewRequest("GET", "/v1/clock?"+tc.query, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != tc.want {
			t.Errorf("/v1/clock?%s: status %d, want %d (body %q)", tc.query, rw.Code, tc.want, rw.Body.String())
		}
	}
}

// TestHotEndpointsZeroAlloc asserts the serving contract the benchmarks
// depend on: /v1/skew and /v1/clock?node= handle a request without a single
// heap allocation once the pools are warm. The cluster is stopped before
// measuring so background node loops can't pollute the global alloc
// counters AllocsPerRun reads; the published slab keeps serving after Stop.
func TestHotEndpointsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; alloc counts are meaningless")
	}
	c := startTestCluster(t, 16)
	time.Sleep(50 * time.Millisecond)
	c.Stop()
	h := newHandler(c)

	for _, target := range []string{"/v1/skew", "/v1/clock?node=3", "/v1/clock", "/v1/stats"} {
		req := httptest.NewRequest("GET", target, nil)
		rw := newNullRW()
		for i := 0; i < 8; i++ { // warm the buffer pools
			h.ServeHTTP(rw, req)
		}
		if avg := testing.AllocsPerRun(2000, func() { h.ServeHTTP(rw, req) }); avg != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", target, avg)
		}
	}
}

// TestEndpointHammerConsistency is the torn-read test at the HTTP layer: 8
// goroutines hammer all five endpoints against a running ring while the
// per-node responses are checked for ordering — seq strictly tracks the
// node's input count, so it must never regress between consecutive reads,
// and hw (elapsed hardware time) must never shrink as seq grows. A seqlock
// bug anywhere under the handler shows up here, and the race detector
// watches the whole stack when this runs under `make race`.
func TestEndpointHammerConsistency(t *testing.T) {
	const n = 8
	c := startTestCluster(t, n)
	srv := httptest.NewServer(newHandler(c))
	defer srv.Close()

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := g % n
			clockURL := srv.URL + "/v1/clock?node=" + string(rune('0'+node))
			others := []string{
				srv.URL + "/healthz",
				srv.URL + "/v1/clock",
				srv.URL + "/v1/skew",
				srv.URL + "/v1/legality",
				srv.URL + "/v1/stats",
			}
			var lastSeq uint64
			var lastHW float64
			for i := 0; time.Now().Before(deadline); i++ {
				resp, err := srv.Client().Get(clockURL)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				var s live.NodeSnapshot
				err = json.NewDecoder(resp.Body).Decode(&s)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d, decode %v", g, resp.StatusCode, err)
					return
				}
				if s.Seq < lastSeq {
					t.Errorf("node %d: seq regressed %d → %d", node, lastSeq, s.Seq)
					return
				}
				if s.Seq > lastSeq && s.HW < lastHW {
					t.Errorf("node %d: hw regressed %v → %v across seq %d → %d", node, lastHW, s.HW, lastSeq, s.Seq)
					return
				}
				lastSeq, lastHW = s.Seq, s.HW
				// Interleave the other endpoints: they must stay decodable
				// JSON while the cluster keeps publishing.
				other, err := srv.Client().Get(others[i%len(others)])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				var doc map[string]any
				err = json.NewDecoder(other.Body).Decode(&doc)
				other.Body.Close()
				if err != nil || other.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: %s status %d, decode %v", g, others[i%len(others)], other.StatusCode, err)
					return
				}
			}
			if lastSeq == 0 {
				t.Errorf("node %d never advanced past seq 0", node)
			}
		}(g)
	}
	wg.Wait()
}
