package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSubset runs one quick experiment through the CLI path end to end.
func TestRunSubset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-only", "E06"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "E06") || !strings.Contains(s, "PASS") {
		t.Errorf("output missing E06 result:\n%s", s)
	}
	if !strings.Contains(s, "1 experiments, 0 failed") {
		t.Errorf("summary line wrong:\n%s", s)
	}
}

// TestRunMultiSeedParallelIdentical drives the CLI with -seeds/-parallel:
// the aggregated report must not depend on the worker pool size (the
// trailing summary line carries wall-clock time and is stripped).
func TestRunMultiSeedParallelIdentical(t *testing.T) {
	report := func(parallel string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-quick", "-only", "E06", "-seeds", "3", "-parallel", parallel}, &out); err != nil {
			t.Fatalf("run(-parallel %s): %v", parallel, err)
		}
		body, _, _ := strings.Cut(out.String(), "===")
		return body
	}
	serial := report("1")
	if !strings.Contains(serial, "±") {
		t.Errorf("aggregated report has no mean±std cells:\n%s", serial)
	}
	if !strings.Contains(serial, "aggregated over 3 seeds") {
		t.Errorf("aggregated report missing provenance note:\n%s", serial)
	}
	if parallel := report("8"); parallel != serial {
		t.Errorf("-parallel 8 changed the report:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestRunUnknownFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunFilterUnknownID: an -only id that names no experiment (a typo
// such as E3 for E03) is an error naming it and listing the valid ids, and
// nothing runs.
func TestRunFilterUnknownID(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quick", "-only", "E06,e99,E3"}, &out)
	if err == nil {
		t.Fatalf("unknown ids accepted:\n%s", out.String())
	}
	for _, want := range []string{"E3,E99", "E01", "E16"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("ran experiments despite the unknown ids:\n%s", out.String())
	}
}
