package scenario

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// PreferentialAttachment grows the estimate graph the way scale-free
// networks form (Barabási–Albert): nodes join one at a time and each
// newcomer attaches M edges to already-joined nodes drawn with probability
// proportional to their current degree. For the paper this is the
// incremental-deployment workload: every join triggers M concurrent Listing 1
// handshakes against hubs that are already carrying traffic, and the hub
// structure makes the insertion machinery's level ladder matter — a hub's
// estimate edges span very different ages.
//
// Nodes 0..Seeds-1 count as joined from the start; the declared initial
// topology over them is the seed graph. Nodes Seeds..N-1 join in id order,
// one every JoinEvery time units, so a run is "grown" rather than born
// complete. The runtime hosts all N algorithm instances throughout — a
// not-yet-joined node simply has no estimate edges, mirroring a device that
// is powered but out of contact.
type PreferentialAttachment struct {
	// Seeds is the number of initially joined nodes; it must be at least 1
	// and defaults to max(2, N/4). The joined seed graph is whatever the
	// initial topology declared over those ids.
	Seeds int
	// JoinEvery is the time between joins; it must be positive.
	JoinEvery float64
	// M is the number of attachment edges per joining node (default 2).
	M int

	// Joins counts joined nodes, Attached the edges created; Err records
	// the first failure.
	Joins    int
	Attached int
	Err      error

	rt  *runner.Runtime
	rng *sim.RNG
	// urn holds every joined node id once per unit of degree (the classic
	// urn encoding of degree-proportional sampling); draws index it
	// uniformly. Appends happen in a fixed order per join, so the urn — and
	// with it every draw — is a pure function of the seed.
	urn   []int
	next  int // next node id to join
	nbrs  []int
	timer *sim.Timer
}

var _ runner.Scenario = (*PreferentialAttachment)(nil)

// Install implements runner.Scenario.
func (p *PreferentialAttachment) Install(rt *runner.Runtime, rng *sim.RNG) {
	if p.JoinEvery <= 0 {
		p.Err = fmt.Errorf("scenario prefattach: JoinEvery must be positive, got %v", p.JoinEvery)
		return
	}
	n := rt.N()
	if p.Seeds <= 0 {
		p.Seeds = n / 4
		if p.Seeds < 2 {
			p.Seeds = 2
		}
	}
	if p.Seeds > n {
		p.Seeds = n
	}
	if p.M <= 0 {
		p.M = 2
	}
	p.rt = rt
	p.rng = rng
	p.next = p.Seeds
	// Seed the urn from the visible degrees of the seed graph, in node
	// order. A degree-0 seed node still enters once: it must stay drawable
	// or it could never acquire edges.
	for u := 0; u < p.Seeds; u++ {
		p.nbrs = rt.Dyn.Neighbors(u, p.nbrs[:0])
		deg := len(p.nbrs)
		if deg == 0 {
			deg = 1
		}
		for i := 0; i < deg; i++ {
			p.urn = append(p.urn, u)
		}
	}
	if p.next >= n {
		return // nothing to grow
	}
	p.timer = rt.Engine.NewTimer(p.fire)
	p.timer.Reset(p.JoinEvery)
}

// fire joins the next node: draw M distinct degree-weighted targets among
// the joined nodes and attach, then re-arm for the following join.
func (p *PreferentialAttachment) fire(t sim.Time) {
	u := p.next
	p.next++
	attached := 0
	// Bounded rejection sampling: duplicates of this join's picks and pairs
	// the topology already has up are redrawn. The bound keeps one join
	// O(M) in expectation without risking a pathological loop on tiny urns.
	picked := make([]int, 0, p.M)
	for tries := 0; attached < p.M && tries < 8*p.M+16; tries++ {
		v := p.urn[p.rng.Intn(len(p.urn))]
		dup := v == u
		for _, w := range picked {
			if w == v {
				dup = true
				break
			}
		}
		if dup || p.rt.Dyn.BothUp(u, v) {
			continue
		}
		if err := p.rt.AddEdge(u, v); err != nil {
			if p.Err == nil {
				p.Err = edgeErrf("prefattach", u, v, err)
			}
			return
		}
		picked = append(picked, v)
		attached++
		p.Attached++
	}
	p.Joins++
	// The newcomer enters the urn with its attachment degree (at least
	// once), and each target gains one unit — append order is fixed, so the
	// urn stays deterministic.
	deg := attached
	if deg == 0 {
		deg = 1
	}
	for i := 0; i < deg; i++ {
		p.urn = append(p.urn, u)
	}
	p.urn = append(p.urn, picked...)
	if p.next < p.rt.N() {
		p.timer.Reset(t + p.JoinEvery)
	}
}
