package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunSmoke runs the lower-bound demonstration at tiny scale and checks
// the report reaches its conclusion.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "8", "-offset", "0.5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if s == "" {
		t.Fatal("no output")
	}
	for _, want := range []string{"universal envelope lower bound", "edgeSkew", "Theorem 8.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunRejectsBadNumbers: a too-small network, an offset that is not
// positive and finite, and an initial offset at or below the one-hop
// gradient bound (3.696 at the defaults) are errors, not panics.
func TestRunRejectsBadNumbers(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "2"}, {"-n", "3"}, {"-n", "1"}, {"-n", "-4"},
		{"-n", "8", "-offset", "0.4"},
		{"-offset", "NaN"}, {"-offset", "+Inf"}, {"-offset", "0"}, {"-offset", "-1"},
		{"-offset", "1e308"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("lowerbound %v panicked: %v", args, r)
				}
			}()
			if err := run(args, io.Discard); err == nil {
				t.Errorf("lowerbound %v returned no error", args)
			}
		}()
	}
}
