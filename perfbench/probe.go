package main

import (
	"time"

	"repro/internal/live"
)

// liveSink keeps the probed calls' results observable.
var liveSink float64

// probeLive times the live query calls the daemon's handlers make, on an
// in-process cluster configured as the benchmark's daemon, while its node
// loops run.
func probeLive(per time.Duration) (map[string]float64, error) {
	c, err := live.NewCluster(daemonConfig())
	if err != nil {
		return nil, err
	}
	c.Start()
	time.Sleep(200 * time.Millisecond)
	out := map[string]float64{
		"live.snapshot_ns": timeCalls(per, func(i int) {
			s, _ := c.Snapshot(i % daemonNodes)
			liveSink += s.L
		}),
		"live.skew_ns":     timeCalls(per, func(int) { liveSink += c.Skew().GlobalSkew }),
		"live.legality_ns": timeCalls(per, func(int) { liveSink += c.Legality().MaxLocalSkew }),
		"live.stats_ns":    timeCalls(per, func(int) { liveSink += float64(c.Stats().Epoch) }),
	}
	return out, c.Stop()
}

// timeCalls calls f in batches of 64 for at least d and returns the mean
// nanoseconds per call.
func timeCalls(d time.Duration, f func(i int)) float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for j := 0; j < 64; j++ {
			f(n)
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
