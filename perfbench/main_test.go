package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks every workload to a few thousand nodes and one short daemon.
var tiny = scale{
	ringN:     2000,
	geoN:      400,
	setups:    2,
	daemons:   1,
	rate:      2000,
	warmup:    100 * time.Millisecond,
	liveProbe: 10 * time.Millisecond,
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks that the result line carries exactly the declared metrics, each
// with its unit, and that every correctness check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gradsyncd and runs daemons")
	}
	bin := filepath.Join(t.TempDir(), "gradsyncd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gradsyncd").CombinedOutput(); err != nil {
		t.Fatalf("build gradsyncd: %v\n%s", err, out)
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			o := options{workload: name, seed: 3, seconds: 3, trace: trace, gradsyncd: bin, spans: t.TempDir(), scale: tiny}
			var out bytes.Buffer
			if err := execute(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, lines[0])
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m.name, got, m.unit)
				}
			}
		}
	}
}
