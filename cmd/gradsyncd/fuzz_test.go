package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseRange checks parseRange's contract on arbitrary specs: it
// returns an error, or a non-empty run of consecutive ascending ids inside
// [0, n) that starts at the spec's lower bound and ends at its upper bound.
func FuzzParseRange(f *testing.F) {
	for _, s := range []string{
		"0-3", "5", "7-7", "15", "14-15", "", "3-1", "a-b", "1-", "-1",
		"-3-2", "-2--1", "16", "15-16", "0-99", "+3", "007-8", " 1", "1-2-3",
	} {
		f.Add(s, 16)
	}
	f.Fuzz(func(t *testing.T, s string, n int) {
		// Bound n, as the daemon's node limit does, so that a wide range
		// cannot allocate without limit.
		n %= 1 << 12
		ids, err := parseRange(s, n)
		if err != nil {
			if ids != nil {
				t.Fatalf("parseRange(%q, %d) returned ids %v with error %v", s, n, ids, err)
			}
			return
		}
		lo, hi, ranged := strings.Cut(s, "-")
		if !ranged {
			hi = lo
		}
		a, errA := strconv.Atoi(lo)
		b, errB := strconv.Atoi(hi)
		if errA != nil || errB != nil {
			t.Fatalf("parseRange(%q, %d) accepted a spec whose bounds do not parse: %v", s, n, ids)
		}
		if len(ids) == 0 || ids[0] != a || ids[len(ids)-1] != b {
			t.Fatalf("parseRange(%q, %d) = %v, want the ids %d..%d", s, n, ids, a, b)
		}
		if ids[0] < 0 || ids[len(ids)-1] >= n {
			t.Fatalf("parseRange(%q, %d) = %v, outside [0,%d)", s, n, ids, n)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] != ids[i-1]+1 {
				t.Fatalf("parseRange(%q, %d) = %v is not a run of consecutive ids", s, n, ids)
			}
		}
	})
}

// FuzzClockQuery drives /v1/clock with arbitrary raw query strings against
// a stopped 8-node cluster that hosts every node (its published snapshots
// keep serving). The status is 200 or 400, a 200 body is valid JSON, and
// a first node=<k> parameter with 0 ≤ k < n is answered with node k's
// snapshot.
func FuzzClockQuery(f *testing.F) {
	const n = 8
	c := startTestCluster(f, n)
	c.Stop()
	h := newHandler(c)
	// The queries of TestClockNodeStatusCodes, plus repeated parameters.
	for _, q := range []string{
		"node=0", "node=3", "", "other=1", "node=4", "node=7", "node=8",
		"node=99", "node=-1", "node=x", "node=", "node=3.5",
		"node=1&node=2", "other=1&node=5", "node=%31",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest("GET", "/v1/clock", nil)
		req.URL.RawQuery = raw
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		body := rw.Body.Bytes()
		switch rw.Code {
		case http.StatusOK:
			if !json.Valid(body) {
				t.Fatalf("?%s: 200 with invalid JSON %q", raw, body)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("?%s: status %d, want 200 or 400", raw, rw.Code)
		}
		// The handler serves the first node parameter, if any.
		var val string
		found := false
		for _, kv := range strings.Split(raw, "&") {
			if val, found = strings.CutPrefix(kv, "node="); found {
				break
			}
		}
		k, err := strconv.Atoi(val)
		if !found || err != nil || k < 0 || k >= n {
			return
		}
		var snap struct {
			Node *int `json:"node"`
		}
		if rw.Code != http.StatusOK || json.Unmarshal(body, &snap) != nil || snap.Node == nil || *snap.Node != k {
			t.Fatalf("?%s: status %d, body %q; want node %d's snapshot", raw, rw.Code, body, k)
		}
	})
}
