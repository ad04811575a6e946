package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestParseEdgeOps(t *testing.T) {
	tests := []struct {
		name    string
		spec    string
		want    int
		wantErr bool
	}{
		{"empty", "", 0, false},
		{"single add", "add:0,15@100", 1, false},
		{"add and cut", "add:0,15@100;cut:3,4@200", 2, false},
		{"missing time", "add:0,15", 0, true},
		{"missing pair", "add:0@100", 0, true},
		{"bad op", "frob:0,1@5", 0, true},
		{"bad node", "add:x,1@5", 0, true},
		{"bad time", "add:0,1@x", 0, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseEdgeOps(tc.spec)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if len(got) != tc.want {
				t.Fatalf("parsed %d ops, want %d", len(got), tc.want)
			}
		})
	}
	ops, err := parseEdgeOps("add:0,15@100;cut:3,4@200")
	if err != nil {
		t.Fatal(err)
	}
	if !ops[0].add || ops[0].u != 0 || ops[0].v != 15 || ops[0].at != 100 {
		t.Errorf("first op wrong: %+v", ops[0])
	}
	if ops[1].add || ops[1].at != 200 {
		t.Errorf("second op wrong: %+v", ops[1])
	}
}

func TestBuilders(t *testing.T) {
	for _, kind := range []string{"line", "ring", "star", "grid", "torus", "random"} {
		if _, err := buildTopology(kind, 9); err != nil {
			t.Errorf("topology %q: %v", kind, err)
		}
	}
	if _, err := buildTopology("nope", 4); err == nil {
		t.Error("unknown topology accepted")
	}
	for _, kind := range []string{"aopt", "aopt-dynskew", "maxsync", "blocksync"} {
		if _, err := buildAlgo(kind, 2); err != nil {
			t.Errorf("algo %q: %v", kind, err)
		}
	}
	for _, kind := range []string{"none", "twogroup", "linear", "sin", "flip", "walk"} {
		if _, err := buildDrift(kind, 8); err != nil {
			t.Errorf("drift %q: %v", kind, err)
		}
	}
	for _, kind := range []string{"random", "max", "min", "shift"} {
		if _, err := buildDelay(kind); err != nil {
			t.Errorf("delay %q: %v", kind, err)
		}
	}
	for _, spec := range []string{"messaging", "oracle:zero", "oracle:random"} {
		if _, err := buildEstimates(spec); err != nil {
			t.Errorf("estimates %q: %v", spec, err)
		}
	}
	if _, err := buildEstimates("wat"); err == nil {
		t.Error("unknown estimates spec accepted")
	}
}

func TestIntSqrt(t *testing.T) {
	for _, tc := range [][2]int{{1, 1}, {3, 1}, {4, 2}, {8, 2}, {9, 3}, {16, 4}, {17, 4}} {
		if got := intSqrt(tc[0]); got != tc[1] {
			t.Errorf("intSqrt(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

// TestRunSmoke exercises the full CLI path on a tiny scenario.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-topo", "line", "-n", "6", "-horizon", "20", "-sample", "10",
		"-edges", "add:0,5@5", "-csv"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() == 0 {
		t.Error("no output")
	}
	if err := run([]string{"-topo", "bogus"}, io.Discard); err == nil {
		t.Error("bogus topology accepted")
	}
}

// TestRunMultiSeedParallelIdentical replays one scenario across seeds on
// pools of different sizes; the aggregated report must be byte-identical
// and carry mean±std cells.
func TestRunMultiSeedParallelIdentical(t *testing.T) {
	report := func(parallel string) string {
		t.Helper()
		var out bytes.Buffer
		err := run([]string{"-topo", "ring", "-n", "8", "-horizon", "30", "-sample", "10",
			"-seeds", "4", "-parallel", parallel}, &out)
		if err != nil {
			t.Fatalf("run(-parallel %s): %v", parallel, err)
		}
		return out.String()
	}
	serial := report("1")
	if !strings.Contains(serial, "±") {
		t.Errorf("aggregated report has no mean±std cells:\n%s", serial)
	}
	if got := report("8"); got != serial {
		t.Errorf("-parallel 8 changed the report:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, got)
	}
}

// TestRunRejectsBadNumbers checks that out-of-range and non-finite flags
// make run return an error instead of panicking or running with them. A
// single replica runs on the calling goroutine, so a panic is recovered
// here and reported as a failure of its case.
func TestRunRejectsBadNumbers(t *testing.T) {
	for _, args := range [][]string{
		{"-tick", "NaN"}, {"-tick", "+Inf"}, {"-tick", "-Inf"}, {"-tick", "-1"},
		{"-horizon", "-5"}, {"-horizon", "0"}, {"-horizon", "NaN"}, {"-horizon", "+Inf"},
		{"-sample", "-1"}, {"-sample", "NaN"}, {"-sample", "+Inf"},
		{"-gtilde", "NaN"}, {"-gtilde", "+Inf"}, {"-gtilde", "-Inf"},
		{"-mu", "NaN"}, {"-rho", "NaN"},
		{"-algo", "blocksync", "-blocksize", "NaN"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("gradsim %v panicked: %v", args, r)
				}
			}()
			// A small, short scenario, so a flag that is wrongly accepted
			// costs little; the flag under test comes last and wins.
			base := []string{"-topo", "ring", "-n", "4", "-horizon", "1"}
			if err := run(append(base, args...), io.Discard); err == nil {
				t.Errorf("gradsim %v returned no error", args)
			}
		}()
	}
}
