package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// straightScan is the reference form of both greedy rules: it scores
// every candidate leaf in leaf order with F (plus F' when unrelated)
// plus dw·d_v·p_j and keeps the first strict minimum — no plan, no run
// heads. A lone candidate is returned without a query, as the rules
// do.
type straightScan struct {
	unrelated bool
	dw        float64
}

func (straightScan) Name() string { return "straightScan" }

func (s straightScan) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	t := q.Tree()
	leaves := t.Leaves()
	if a.Origin != t.Root() {
		leaves = []tree.NodeID{a.Origin}
		if !t.IsLeaf(a.Origin) {
			leaves = t.SubtreeLeaves(a.Origin)
		}
	}
	if len(leaves) == 1 {
		return leaves[0]
	}
	best, bestCost := tree.None, math.Inf(1)
	for _, v := range leaves {
		cost := F(q, a, v)
		if s.unrelated {
			cost += FPrime(q, a, v)
		}
		cost += s.dw * float64(t.Depth(v)) * a.Size
		if cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best
}

// twoBranchTree has one shallow branch (root → router → leaf, depth 2)
// and one deep one (a chain of four routers with two leaves, depth 5):
// the unequal depths a depth-ordered descent would reorder.
func twoBranchTree() *tree.Tree {
	b := tree.NewBuilder()
	b.AddLeaf(b.AddRouter(b.Root()))
	v := b.Root()
	for i := 0; i < 4; i++ {
		v = b.AddRouter(v)
	}
	b.AddLeaf(v)
	b.AddLeaf(v)
	return b.MustFinalize()
}

// runOutput is everything a run makes observable: the NDJSON stats
// header and per-job lines, the summary stats and the slice log.
type runOutput struct {
	ndjson []byte
	stats  sim.Stats
	slices []sim.Slice
}

func runFor(t *testing.T, tr *tree.Tree, trace *workload.Trace, asg sim.Assigner, opts sim.Options) runOutput {
	t.Helper()
	res, err := sim.Run(tr, trace, asg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := runOutput{ndjson: buf.Bytes(), stats: res.Stats}
	if opts.RecordSlices {
		out.slices = slices.Clone(res.Sim.Slices())
	}
	return out
}

func requireSameOutput(t *testing.T, name string, got, want runOutput) {
	t.Helper()
	switch {
	case !bytes.Equal(got.ndjson, want.ndjson):
		t.Fatalf("%s: NDJSON differs from the straight scan", name)
	case got.stats != want.stats:
		t.Fatalf("%s: stats differ from the straight scan:\n  got  %+v\n  want %+v", name, got.stats, want.stats)
	case !slices.Equal(got.slices, want.slices):
		t.Fatalf("%s: slice log differs from the straight scan (%d vs %d slices)", name, len(got.slices), len(want.slices))
	}
}

// TestGreedyMatchesStraightScan pins both greedy rules to the
// straight scan bit for bit — NDJSON, stats and slice log — on trees
// with equal and unequal leaf depths, under SJF, SRPT and PS (PS
// records no slices). A rule that skipped the query of a branch root
// holding work would move that node's sync instants, and the slice log
// shows it.
func TestGreedyMatchesStraightScan(t *testing.T) {
	topos := []struct {
		name string
		tr   *tree.Tree
	}{
		{"fattree:2,2,2", tree.FatTree(2, 2, 2)},
		{"broomstick:3,3,1", tree.BroomstickTree(3, 3, 1)},
		{"caterpillar:4,2", tree.Caterpillar(4, 2)},
		{"random:3,4,3", tree.Random(rng.New(5), tree.RandomConfig{Branches: 3, MaxDepth: 4, MaxChildren: 3, LeafProb: 0.5})},
		{"twobranch", twoBranchTree()},
	}
	policies := []struct {
		name   string
		policy sim.Policy
	}{{"sjf", sim.SJF{}}, {"srpt", sim.SRPT{}}, {"ps", sim.PS{}}}
	for _, tp := range topos {
		branches := len(tp.tr.RootAdjacent())
		for _, pol := range policies {
			opts := sim.Options{Policy: pol.policy, RecordSlices: pol.name != "ps"}
			for seed := uint64(1); seed <= 3; seed++ {
				trace := classTrace(t, seed, 300, 0.9, 0.5, branches)
				name := fmt.Sprintf("%s/%s/seed%d", tp.name, pol.name, seed)
				requireSameOutput(t, name+"/identical",
					runFor(t, tp.tr, trace, NewGreedyIdentical(0.5), opts),
					runFor(t, tp.tr, trace, straightScan{dw: 24}, opts))

				r := rng.New(seed + 100)
				if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(tp.tr.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
					t.Fatal(err)
				}
				requireSameOutput(t, name+"/unrelated",
					runFor(t, tp.tr, trace, NewGreedyUnrelated(0.5), opts),
					runFor(t, tp.tr, trace, straightScan{unrelated: true, dw: 24}, opts))
			}
		}
	}
}

// interiorOriginTrace re-homes 30% of a trace to random routers, as
// experiment X1 does.
func interiorOriginTrace(t *testing.T, tr *tree.Tree, seed uint64) *workload.Trace {
	t.Helper()
	trace := classTrace(t, seed, 400, 0.9, 0.5, len(tr.RootAdjacent()))
	var routers []tree.NodeID
	for id := tree.NodeID(1); int(id) < tr.NumNodes(); id++ {
		if !tr.IsLeaf(id) {
			routers = append(routers, id)
		}
	}
	r := rng.New(seed + 200)
	for i := range trace.Jobs {
		if r.Bool(0.3) {
			trace.Jobs[i].Origin = int32(routers[r.Intn(len(routers))])
		}
	}
	return trace
}

// Arrivals released at interior routers choose among the leaves below
// their origin: the per-origin plans must reproduce the straight scan,
// and a warm replay must not allocate a candidate list per arrival.
func TestGreedyInteriorOrigins(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	opts := sim.Options{RecordSlices: true}
	for seed := uint64(1); seed <= 3; seed++ {
		trace := interiorOriginTrace(t, tr, seed)
		requireSameOutput(t, fmt.Sprintf("seed%d", seed),
			runFor(t, tr, trace, NewGreedyIdentical(0.5), opts),
			runFor(t, tr, trace, straightScan{dw: 24}, opts))
	}

	trace := interiorOriginTrace(t, tr, 1)
	s := sim.New(tr, sim.Options{})
	g := NewGreedyIdentical(0.5)
	replay := func() {
		s.Reset(sim.Options{})
		if err := sim.ReplayOn(s, trace, g); err != nil {
			t.Fatal(err)
		}
	}
	replay() // build the plans
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Fatalf("warm interior-origin replay allocates %.1f times, want 0", allocs)
	}
}
