package live

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func testHeader() TraceHeader {
	return TraceHeader{
		Version: 1, N: 3, Edges: [][2]int{{0, 1}, {1, 2}},
		S: 1, Rho: 0.1 / 60, Mu: 0.1, Iota: 0.05,
		Tick: 0.05, BeaconInterval: 0.25,
		Link: traceParams{Eps: 0.05, Tau: 0.05, Delay: 0.05, Uncertainty: 0.05},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	h := testHeader()
	// Awkward floats on purpose: round-tripping must preserve exact bits.
	recs := []TraceRecord{
		{Kind: RecTick, T: 0.1, Node: 0, Seq: 0, DH: 1.0 / 3.0, HW: 1.0 / 3.0},
		{Kind: RecBeacon, T: 0.2, Node: 1, Seq: 0, From: 0,
			LSent: math.Nextafter(0.1, 1), MSent: 4e-324, MinTransit: 0.02, HW: 0.7},
		{Kind: RecTick, T: 0.2, Node: 1, Seq: 1, DH: 0.05 * (1 + 1e-15), HW: 0.75},
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		rec.Append(r)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Records() != uint64(len(recs)) {
		t.Fatalf("recorder counted %d records, want %d", rec.Records(), len(recs))
	}

	gotH, gotRecs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotH.N != h.N || gotH.S != h.S || gotH.Link != h.Link || len(gotH.Edges) != len(h.Edges) {
		t.Fatalf("header round trip: got %+v, want %+v", gotH, h)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("got %d records, want %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		want, got := recs[i], gotRecs[i]
		if got.Kind != want.Kind || got.Node != want.Node || got.Seq != want.Seq || got.From != want.From {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
		for _, f := range [][2]float64{
			{got.T, want.T}, {got.DH, want.DH}, {got.LSent, want.LSent},
			{got.MSent, want.MSent}, {got.MinTransit, want.MinTransit}, {got.HW, want.HW},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("record %d: float %v != %v (bits differ)", i, f[0], f[1])
			}
		}
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	const valid = `{"version":1,"n":2,"s":1,"rho":0.001,"mu":0.1,"iota":0.05,"tick":0.05,"beaconInterval":0.25}`
	cases := map[string]string{
		"bad version":  `{"version":9,"n":2}`,
		"zero nodes":   `{"version":1,"n":0}`,
		"huge n":       `{"version":1,"n":1000000000000000000}`,
		"self-loop":    `{"version":1,"n":2,"edges":[[1,1]],"s":1,"rho":0.001,"mu":0.1,"iota":0.05,"tick":0.05,"beaconInterval":0.25}`,
		"negative S":   `{"version":1,"n":2,"s":-1,"rho":0.001,"mu":0.1,"iota":0.05,"tick":0.05,"beaconInterval":0.25}`,
		"node range":   valid + "\n" + `{"kind":"tick","t":1,"node":5,"seq":0}`,
		"unknown kind": valid + "\n" + `{"kind":"warp","t":1,"node":0,"seq":0}`,
		"junk header":  `not json`,
	}
	for name, in := range cases {
		if _, _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", name, in)
		}
	}
}

func TestReplayRejectsTamperedTrace(t *testing.T) {
	h := testHeader()
	good := []TraceRecord{
		{Kind: RecTick, T: 0.1, Node: 0, Seq: 0, DH: 0.1, HW: 0.1},
		{Kind: RecTick, T: 0.2, Node: 0, Seq: 1, DH: 0.1, HW: 0.2},
	}
	if _, err := Replay(h, good); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}

	hwEdit := append([]TraceRecord(nil), good...)
	hwEdit[1].HW = 0.25
	if _, err := Replay(h, hwEdit); err == nil {
		t.Fatal("replay accepted a trace whose recorded hw contradicts the inputs")
	}

	gap := append([]TraceRecord(nil), good...)
	gap[1].Seq = 5
	if _, err := Replay(h, gap); err == nil {
		t.Fatal("replay accepted a trace with a per-node sequence gap")
	}
}

// FuzzReplayTrace feeds arbitrary bytes to the trace decoder and replay:
// ReplayTrace must return an error or a result, never panic, and a trace
// it accepts must replay to the same fingerprint twice. The seeds are a
// small valid trace and three inputs that once broke it: a record at a
// negative time (which the replay used to schedule into the past), a
// self-loop edge (which NewCluster rejects) and a node count of 10¹⁸
// (which sized the replay's slices).
func FuzzReplayTrace(f *testing.F) {
	h, recs := syntheticTrace(3, 3, 1)
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, h)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		rec.Append(r)
	}
	if err := rec.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	header := `{"version":1,"n":%s,"edges":%s,"s":1,"rho":0.001,"mu":0.1,"iota":0.05,"tick":0.05,"beaconInterval":0.25,` +
		`"link":{"eps":0.05,"tau":0.05,"delay":0.05,"uncertainty":0.05}}` + "\n"
	f.Add([]byte(fmt.Sprintf(header, "2", "[[0,1]]") + `{"kind":"tick","t":-1,"node":0,"seq":0,"dh":0.05,"hw":0.05}` + "\n"))
	f.Add([]byte(fmt.Sprintf(header, "2", "[[1,1]]")))
	f.Add([]byte(fmt.Sprintf(header, "1000000000000000000", "[]")))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A valid header may claim up to maxNodes nodes, and a replay's cost
		// is linear in that count (0.15 s at the bound) with no code path
		// that depends on it, so the fuzzer replays small networks only.
		if h, _, err := ReadTrace(bytes.NewReader(data)); err == nil && h.N > 64 {
			return
		}
		first, err := ReplayTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ReplayTrace(bytes.NewReader(data))
		if err != nil || again.Fingerprint != first.Fingerprint {
			t.Fatalf("accepted trace replayed to %s, then to %s (err %v)", first.Fingerprint, again.Fingerprint, err)
		}
	})
}
