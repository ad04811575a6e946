// Hand-rolled JSON encoding for the daemon's hot endpoints. The reflection
// walk of encoding/json costs both time and per-request allocations; these
// appenders write the exact same documents into caller-owned byte slices
// with strconv, so the serving path is allocation-free once response
// buffers come from the pool. Equivalence with encoding/json is pinned by
// TestEncodersMatchEncodingJSON (every appender's output must unmarshal to
// the same value as the stdlib marshal of the same struct), so a field
// added to a report type without updating its appender fails the build of
// the contract, not just drifts.
package main

import (
	"strconv"

	"repro/internal/live"
)

// appendFloat writes f in the shortest form that round-trips float64 —
// decode-equal to encoding/json's rendering, not byte-equal (both parse to
// identical bits, which is what the round-trip test checks).
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendHealth renders the /healthz document.
func appendHealth(b []byte, simNow float64, n, owned int) []byte {
	b = append(b, `{"ok":true,"simNow":`...)
	b = appendFloat(b, simNow)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"owned":`...)
	b = strconv.AppendInt(b, int64(owned), 10)
	return append(b, '}')
}

// appendSnapshot renders one live.NodeSnapshot.
func appendSnapshot(b []byte, s live.NodeSnapshot) []byte {
	b = append(b, `{"node":`...)
	b = strconv.AppendInt(b, int64(s.Node), 10)
	b = append(b, `,"l":`...)
	b = appendFloat(b, s.L)
	b = append(b, `,"m":`...)
	b = appendFloat(b, s.M)
	b = append(b, `,"hw":`...)
	b = appendFloat(b, s.HW)
	b = append(b, `,"mult":`...)
	b = appendFloat(b, s.Mult)
	b = append(b, `,"fastTicks":`...)
	b = strconv.AppendUint(b, s.Fast, 10)
	b = append(b, `,"slowTicks":`...)
	b = strconv.AppendUint(b, s.Slow, 10)
	b = append(b, `,"samples":`...)
	b = strconv.AppendInt(b, int64(s.Samples), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, s.Seq, 10)
	return append(b, '}')
}

// appendClockAll renders the full /v1/clock document straight from the
// cluster's snapshot slab (one consistent tuple per node, no intermediate
// slice).
func appendClockAll(b []byte, c *live.Cluster) []byte {
	b = append(b, `{"simNow":`...)
	b = appendFloat(b, c.SimNow())
	b = append(b, `,"nodes":[`...)
	for idx, id := range c.Owned() {
		if idx > 0 {
			b = append(b, ',')
		}
		s, _ := c.Snapshot(id)
		b = appendSnapshot(b, s)
	}
	return append(b, ']', '}')
}

// appendSkew renders a live.SkewReport.
func appendSkew(b []byte, rep live.SkewReport) []byte {
	b = append(b, `{"simNow":`...)
	b = appendFloat(b, rep.SimNow)
	b = append(b, `,"globalSkew":`...)
	b = appendFloat(b, rep.GlobalSkew)
	b = append(b, `,"maxLocalSkew":`...)
	b = appendFloat(b, rep.MaxLocalSkew)
	b = append(b, `,"bound":`...)
	b = appendFloat(b, rep.Bound)
	b = append(b, `,"legal":`...)
	b = appendBool(b, rep.Legal)
	return append(b, '}')
}

// appendLegality renders a live.LegalityReport.
func appendLegality(b []byte, rep live.LegalityReport) []byte {
	b = append(b, `{"legal":`...)
	b = appendBool(b, rep.Legal)
	b = append(b, `,"bound":`...)
	b = appendFloat(b, rep.Bound)
	b = append(b, `,"maxLocalSkew":`...)
	b = appendFloat(b, rep.MaxLocalSkew)
	b = append(b, `,"simNow":`...)
	b = appendFloat(b, rep.SimNow)
	return append(b, '}')
}

// appendStats renders a live.Stats.
func appendStats(b []byte, st live.Stats) []byte {
	b = append(b, `{"simNow":`...)
	b = appendFloat(b, st.SimNow)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, st.Epoch, 10)
	b = append(b, `,"enqueued":`...)
	b = strconv.AppendUint(b, st.Enqueued, 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendUint(b, st.Dropped, 10)
	b = append(b, `,"unrouted":`...)
	b = strconv.AppendUint(b, st.Unrouted, 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendUint(b, st.Rejected, 10)
	b = append(b, `,"reconnects":`...)
	b = strconv.AppendUint(b, st.Reconnects, 10)
	b = append(b, `,"peersDown":`...)
	b = strconv.AppendInt(b, int64(st.PeersDown), 10)
	b = append(b, `,"traceRecords":`...)
	b = strconv.AppendUint(b, st.Records, 10)
	b = append(b, `,"tickNominalMs":`...)
	b = appendFloat(b, st.TickNominalMs)
	b = append(b, `,"tickP50Ms":`...)
	b = appendFloat(b, st.TickP50Ms)
	b = append(b, `,"tickP99Ms":`...)
	b = appendFloat(b, st.TickP99Ms)
	return append(b, '}')
}
