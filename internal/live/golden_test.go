package live

import (
	"math/rand"
	"sort"
	"testing"
)

// syntheticTrace builds a replayable trace without running a cluster: an
// n-node ring whose even nodes tick at hardware rate 1−ρ/2 and odd nodes at
// 1+ρ/2, and beacons from every neighbour once per interval, at a seeded
// phase. A sender's logical clock runs at its own rate from a sawtooth of
// offsets a little more than S apart, with seeded jitter, so a receiver
// sees neighbours well ahead of and behind it at once and both gradient
// triggers fire. S is small against the estimate error ε, so at times
// both triggers hold together and Listing 3's case order decides. Each record's hw is the running sum of the node's tick
// increments, which is the value Replay recomputes and checks.
func syntheticTrace(seed int64, n int, horizon float64) (TraceHeader, []TraceRecord) {
	rng := rand.New(rand.NewSource(seed))
	h := TraceHeader{
		Version: 1, N: n,
		S: 0.3, Rho: 0.1 / 60, Mu: 0.1, Iota: 0.05,
		Tick: 0.05, BeaconInterval: 0.25,
		Link: traceParams{Eps: 0.05, Tau: 0.05, Delay: 0.05, Uncertainty: 0.05},
	}
	for u := 0; u < n; u++ {
		h.Edges = append(h.Edges, [2]int{u, (u + 1) % n})
	}
	rate := func(u int) float64 { return 1 + float64(u%2*2-1)*h.Rho/2 }
	offset := func(u int) float64 { return float64(u%3) * 1.2 * h.S }

	var recs []TraceRecord
	for u := 0; u < n; u++ {
		var in []TraceRecord
		for k := 1; float64(k)*h.Tick <= horizon; k++ {
			in = append(in, TraceRecord{Kind: RecTick, T: float64(k) * h.Tick, Node: u, DH: h.Tick * rate(u)})
		}
		for _, v := range []int{(u + n - 1) % n, (u + 1) % n} {
			phase := rng.Float64() * h.BeaconInterval
			for t := phase; t <= horizon; t += h.BeaconInterval {
				l := t*rate(v) + offset(v) + (rng.Float64()-0.5)*h.S
				in = append(in, TraceRecord{
					Kind: RecBeacon, T: t, Node: u, From: v,
					LSent: l, MSent: l + rng.Float64()*2*h.Iota,
					MinTransit: rng.Float64() * 2 * h.Tick,
				})
			}
		}
		sort.SliceStable(in, func(i, j int) bool { return in[i].T < in[j].T })
		hw := 0.0
		for i := range in {
			hw += in[i].DH
			in[i].Seq, in[i].HW = uint64(i), hw
		}
		recs = append(recs, in...)
	}
	return h, recs
}

// TestReplayGolden pins the node state machine: the fingerprint of a
// synthetic trace's replay and the summed mode counts. The trace reaches
// both triggers, their conflicts and the flooding credit, so a change to
// the live node's trigger rule, Listing 3's switch, integration step or
// flooding arithmetic moves them.
func TestReplayGolden(t *testing.T) {
	const (
		wantFingerprint = "01b5832b678cc198c5791c61726954e14e8b7c6ef694613f9b017701f427bab4"
		wantFast        = 812
		wantSlow        = 1588
	)
	h, recs := syntheticTrace(17, 6, 20)
	res, err := Replay(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow uint64
	for _, s := range res.Snapshots {
		fast += s.Fast
		slow += s.Slow
	}
	t.Logf("fingerprint %s fast=%d slow=%d", res.Fingerprint, fast, slow)
	if fast == 0 || slow == 0 {
		t.Errorf("want fast and slow ticks > 0, got %d/%d", fast, slow)
	}
	if res.Fingerprint != wantFingerprint || fast != wantFast || slow != wantSlow {
		t.Errorf("replay fingerprint %s fast=%d slow=%d, want %s fast=%d slow=%d",
			res.Fingerprint, fast, slow, wantFingerprint, wantFast, wantSlow)
	}
}
