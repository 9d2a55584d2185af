package sim

import (
	"fmt"
	"math"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// checkBound holds AvailStatsBound to its contract on node v for the
// probe (size, release, id): each term is at most AvailStats' term,
// F formed from the bounds is at most F formed from AvailStats, and the
// bound is exact — AvailStats' terms bit for bit — on every non-PS node
// holding at most one task, and wherever it says so.
func checkBound(t *testing.T, q *Query, v tree.NodeID, size, release float64, id int) {
	t.Helper()
	vh, cl := q.AvailStats(v, size, release, id)
	bvh, bcl, exact := q.AvailStatsBound(v, size, release, id)
	f := vh + size + size*float64(cl)
	bf := bvh + size + size*float64(bcl)
	at := func() string {
		return fmt.Sprintf("t=%v node %d (%d tasks), probe (%v, %v, %d)", q.Now(), v, q.AvailCount(v), size, release, id)
	}
	switch {
	case bvh > vh || bcl > cl || bf > f:
		t.Fatalf("%s: bound (%v, %d) gives F %v, above AvailStats' (%v, %d) and F %v", at(), bvh, bcl, bf, vh, cl, f)
	case exact && (math.Float64bits(bvh) != math.Float64bits(vh) || bcl != cl):
		t.Fatalf("%s: exact bound (%v, %d) differs from AvailStats' (%v, %d)", at(), bvh, bcl, vh, cl)
	case !q.s.ps && q.AvailCount(v) <= 1 && !exact:
		t.Fatalf("%s: a node holding at most one task must be exact", at())
	}
}

// checkBounds probes every node of the tree with (size, release, id)
// and with keys at the running task's own: equal first tier with the
// tie broken either way, and a size just below it.
func checkBounds(t *testing.T, q *Query, size, release float64, id int) {
	t.Helper()
	for v := tree.NodeID(0); int(v) < q.Tree().NumNodes(); v++ {
		checkBound(t, q, v, size, release, id)
		if r := q.s.nodes[v].running; r != nil {
			checkBound(t, q, v, r.PrioOnCur, r.Release, r.ID)
			checkBound(t, q, v, r.PrioOnCur, r.Release, r.ID-1)
			checkBound(t, q, v, r.PrioOnCur, math.Nextafter(r.Release, 0), r.ID+1)
			checkBound(t, q, v, math.Nextafter(r.PrioOnCur, 0), r.Release, r.ID)
		}
	}
}

// boundChecker checks every node before each arrival, then sends the
// job to a random leaf below its origin so queues of every length form.
type boundChecker struct {
	t *testing.T
	r *rng.Rand
}

func (c *boundChecker) Name() string { return "boundChecker" }

func (c *boundChecker) Assign(q *Query, a *Arrival) tree.NodeID {
	checkBounds(c.t, q, a.Size, a.Release, a.ID)
	tr := q.Tree()
	leaves := tr.Leaves()
	if a.Origin != tr.Root() {
		leaves = []tree.NodeID{a.Origin}
		if !tr.IsLeaf(a.Origin) {
			leaves = tr.SubtreeLeaves(a.Origin)
		}
	}
	return leaves[c.r.Intn(len(leaves))]
}

// TestAvailStatsBound runs 48 random scenarios — SJF, SRPT, FIFO, LCFS,
// WSJF and PS; whole and packetized jobs; brown-outs and outages;
// interior origins; class-rounded sizes, so priority keys tie — and
// checks AvailStatsBound against AvailStats on every node, before
// every arrival and from an Observer at every event.
func TestAvailStatsBound(t *testing.T) {
	policies := []Policy{SJF{}, SRPT{}, FIFO{}, LCFS{}, WSJF{}, PS{}}
	for i := 0; i < 48; i++ {
		r := rng.New(uint64(i) + 900)
		var tr *tree.Tree
		switch r.Intn(4) {
		case 0:
			tr = tree.FatTree(2, 2, 2)
		case 1:
			tr = tree.FatTree(4, 1, 2)
		case 2:
			tr = tree.Caterpillar(3, 2)
		default:
			tr = tree.Random(r, tree.RandomConfig{Branches: 3, MaxDepth: 4, MaxChildren: 3, LeafProb: 0.5})
		}
		pol := policies[i%len(policies)]
		packetized := r.Bool(0.3)
		trace, err := workload.Poisson(r, workload.GenConfig{
			N: 120, Size: workload.ClassRounded{Base: workload.UniformSize{Lo: 0.5, Hi: 8}, Eps: 0.5},
			Load: 0.95, Capacity: float64(len(tr.RootAdjacent())),
		})
		if err != nil {
			t.Fatal(err)
		}
		var routers []tree.NodeID
		for v := tree.NodeID(1); int(v) < tr.NumNodes(); v++ {
			if !tr.IsLeaf(v) {
				routers = append(routers, v)
			}
		}
		for j := range trace.Jobs {
			trace.Jobs[j].Weight = float64(1 + r.Intn(4))
			if r.Bool(0.25) {
				trace.Jobs[j].Origin = int32(routers[r.Intn(len(routers))])
			}
		}
		opts := Options{Policy: pol}
		var evs []faults.Event
		for k := r.Intn(4); k > 0; k-- {
			e := faults.Event{Kind: faults.Outage, Node: tree.NodeID(1 + r.Intn(tr.NumNodes()-1)), Start: r.Range(0, 20)}
			e.End = e.Start + r.Range(1, 8)
			if r.Bool(0.5) {
				e.Kind, e.Factor = faults.Brownout, 0.5
			}
			evs = append(evs, e)
		}
		if len(evs) > 0 {
			opts.Faults = compile(t, tr, evs...)
		}
		name := fmt.Sprintf("case%02d/%s/packetized=%v/faults=%d", i, pol.Name(), packetized, len(evs))
		t.Run(name, func(t *testing.T) {
			opts.Observer = func(s *Sim) {
				q := s.Query()
				checkBounds(t, q, 1+float64(r.Intn(8)), q.Now(), r.Intn(200))
			}
			run := Run
			if packetized {
				run = RunPacketized
			}
			if _, err := run(tr, trace, &boundChecker{t: t, r: rng.New(uint64(i))}, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
}
