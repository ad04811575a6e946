package experiments

import (
	gradsync "repro"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// mergeOutcome is the result of one run of the merge scenario: two
// internally synchronized line segments with clock offset Θ(D) joined by a
// new edge at mergeAt.
type mergeOutcome struct {
	net *gradsync.Network
	// bridge is the skew series of the new edge {k−1, k}.
	bridge *metrics.Series
	// worstOld is the max skew observed on pre-existing edges after merge.
	worstOld float64
	offset   float64
	mergeAt  float64
}

// runMerge executes the merge scenario for the given algorithm: the network
// starts as two disjoint segments and a scenario.PartitionHeal joins them
// with the bridge edge at mergeAt. offset is the initial clock offset
// between the halves; horizon is relative to the merge time.
func runMerge(n int, offset float64, algo gradsync.Algo, seed int64, horizon float64) (*mergeOutcome, error) {
	k := n / 2
	const mergeAt = 5.0
	heal := &scenario.PartitionHeal{HealAt: mergeAt, Bridges: []scenario.Pair{{k - 1, k}}}
	net, err := gradsync.New(gradsync.Config{
		Topology:      splitLineTopology(n),
		Algorithm:     algo,
		InitialClocks: offsetHalves(n, offset),
		Scenario:      heal,
		Seed:          seed,
	})
	if err != nil {
		return nil, err
	}
	out := &mergeOutcome{
		net:     net,
		bridge:  &metrics.Series{Name: "bridge"},
		offset:  offset,
		mergeAt: mergeAt,
	}
	net.Every(0.05, func(t float64) {
		if t < out.mergeAt {
			return
		}
		out.bridge.Add(t, net.SkewBetween(k-1, k))
		for u := 0; u+1 < n; u++ {
			if u+1 == k {
				continue
			}
			if s := net.SkewBetween(u, u+1); s > out.worstOld {
				out.worstOld = s
			}
		}
	})
	net.RunFor(out.mergeAt + horizon)
	if heal.Err != nil {
		return nil, heal.Err
	}
	return out, nil
}

// stabilizedAt returns the time after the merge at which the bridge skew
// first stays below threshold for the confirmation window, or -1.
func (m *mergeOutcome) stabilizedAt(threshold, window float64) float64 {
	t, ok := m.bridge.FirstSustainedBelow(threshold, window, m.mergeAt)
	if !ok {
		return -1
	}
	return t - m.mergeAt
}

// splitLineTopology builds two disjoint line segments [0..k−1] and [k..n−1].
func splitLineTopology(n int) gradsync.Topology {
	k := n / 2
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		if i+1 == k {
			continue
		}
		edges = append(edges, [2]int{i, i + 1})
	}
	return gradsync.CustomTopology(n, edges)
}

// offsetHalves gives the upper segment a clock offset.
func offsetHalves(n int, offset float64) []float64 {
	init := make([]float64, n)
	for i := n / 2; i < n; i++ {
		init[i] = offset
	}
	return init
}
