package sim

import (
	"testing"

	"treesched/internal/tree"
)

// greedyProbe mirrors the paper's identical-endpoint greedy rule from
// inside the package (core cannot be imported here): it evaluates
// AvailStats for every leaf (so each branch root is queried once per
// leaf of its branch) plus AvailVolume on the winner — the query mix
// of state-querying dispatch, repeats included.
type greedyProbe struct{}

func (greedyProbe) Name() string { return "greedyProbe" }

func (greedyProbe) Assign(q *Query, a *Arrival) tree.NodeID {
	t := q.Tree()
	best := tree.None
	bestCost := 0.0
	for _, v := range t.Leaves() {
		vh, cl := q.AvailStats(t.Branch(v), a.Size, a.Release, a.ID)
		cost := vh + a.Size + a.Size*float64(cl) + 0.5*float64(t.Depth(v))*a.Size
		if best == tree.None || cost < bestCost {
			best, bestCost = v, cost
		}
	}
	_ = q.AvailVolume(t.Branch(best))
	return best
}

// Warm state-querying dispatch must be allocation-free: the fstat
// snapshots (sorted window, key mirror, prefix chains), the engine-
// owned Query view and the scratch Arrival all live in reusable
// arenas, so steady state allocates nothing at all.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	tr := tree.FatTree(8, 1, 2)
	trace := shardTestTrace(t, 11, 400, 8)
	opts := Options{}
	s := New(tr, opts)
	replay := func() {
		s.Reset(opts)
		if err := ReplayOn(s, trace, greedyProbe{}); err != nil {
			t.Fatal(err)
		}
	}
	replay() // warm the arenas
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Fatalf("warm querying dispatch allocates %.1f allocs/run, want 0", allocs)
	}
}
