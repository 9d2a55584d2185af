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

func runFor(t *testing.T, tr *tree.Tree, trace *workload.Trace, asg sim.Assigner, opts sim.Options, packetized bool) runOutput {
	t.Helper()
	run := sim.Run
	if packetized {
		run = sim.RunPacketized
	}
	res, err := run(tr, trace, asg, opts)
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

// scanVariant is one rule configuration the straight-scan tests run,
// optionally with packetized jobs; the straight scan takes the
// matching distance weight.
type scanVariant struct {
	name       string
	cfg        GreedyConfig
	packetized bool
	seeds      uint64
}

var scanVariants = []scanVariant{
	{name: "paper", cfg: GreedyConfig{Eps: 0.5}, seeds: 3},
	{name: "nodistance", cfg: GreedyConfig{Eps: 0.5, DropDistanceTerm: true}, seeds: 1},
	{name: "weight1.5", cfg: GreedyConfig{Eps: 0.5, DistanceWeight: 1.5}, seeds: 1},
	{name: "packetized", cfg: GreedyConfig{Eps: 0.5}, packetized: true, seeds: 1},
}

var scanPolicies = []struct {
	name   string
	policy sim.Policy
}{{"sjf", sim.SJF{}}, {"srpt", sim.SRPT{}}, {"fifo", sim.FIFO{}}, {"lcfs", sim.LCFS{}}, {"ps", sim.PS{}}}

// TestGreedyMatchesStraightScan pins both greedy rules to the
// straight scan bit for bit — NDJSON, stats and slice log — on trees
// with equal and unequal leaf depths, under SJF, SRPT, FIFO, LCFS and
// PS (PS records no slices), with the distance term dropped or
// reweighted and with packetized jobs. The identical rule's scan skips
// every run whose floor cannot beat the best cost and prices empty
// branch roots without a query; the straight scan queries every leaf.
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
	for _, tp := range topos {
		branches := len(tp.tr.RootAdjacent())
		for _, pol := range scanPolicies {
			opts := sim.Options{Policy: pol.policy, RecordSlices: pol.name != "ps"}
			for _, v := range scanVariants {
				dw := v.cfg.scanWeight()
				for seed := uint64(1); seed <= v.seeds; seed++ {
					trace := classTrace(t, seed, 300, 0.9, 0.5, branches)
					name := fmt.Sprintf("%s/%s/%s/seed%d", tp.name, pol.name, v.name, seed)
					requireSameOutput(t, name+"/identical",
						runFor(t, tp.tr, trace, &GreedyIdentical{Cfg: v.cfg}, opts, v.packetized),
						runFor(t, tp.tr, trace, straightScan{dw: dw}, opts, v.packetized))

					r := rng.New(seed + 100)
					if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(tp.tr.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
						t.Fatal(err)
					}
					requireSameOutput(t, name+"/unrelated",
						runFor(t, tp.tr, trace, &GreedyUnrelated{Cfg: v.cfg}, opts, v.packetized),
						runFor(t, tp.tr, trace, straightScan{unrelated: true, dw: dw}, opts, v.packetized))
				}
			}
		}
	}
}

// A branch root whose queued task has less than half an ulp of p_j
// left costs exactly the floor p_j + dw·d_v·p_j, like an empty root:
// the first strict minimum is the earlier, non-empty root, so a scan
// that jumped to the first empty root would pick the wrong leaf.
func TestGreedyFloorTieAheadOfEmptyRoot(t *testing.T) {
	tr := tree.FatTree(3, 1, 1)
	leaves := tr.Leaves()
	s := sim.New(tr, sim.Options{})
	if _, err := s.Inject(&sim.Arrival{ID: 0, Release: 0, Size: 1}, leaves[0]); err != nil {
		t.Fatal(err)
	}
	// Job 0 finishes on its branch root at t = 1; just before, 2^-53
	// of it is left, under half an ulp of the next job's size 4.
	at := math.Nextafter(1, 0)
	s.AdvanceTo(at)
	a := &sim.Arrival{ID: 1, Release: at, Size: 4}
	q := s.Query()
	br := tr.Branch(leaves[0])
	if vh, cl := q.AvailStats(br, a.Size, a.Release, a.ID); q.AvailCount(br) != 1 || vh <= 0 || vh+a.Size != a.Size || cl != 0 {
		t.Fatalf("setup: branch root holds %d tasks, volume %v, %d larger; want 1 task with under half an ulp of %v left", q.AvailCount(br), vh, cl, a.Size)
	}
	for _, asg := range []sim.Assigner{NewGreedyIdentical(0.5), straightScan{dw: 24}} {
		if got := asg.Assign(q, a); got != leaves[0] {
			t.Errorf("%s picked leaf %d, want the floor-cost non-empty root's leaf %d", asg.Name(), got, leaves[0])
		}
	}
}

// The benchmark's wide shape: 20,000 jobs on fattree:32,1,32 at speed
// 1.5, where most arrivals find an empty branch root, must give the
// straight scan's NDJSON byte for byte.
func TestGreedyMatchesStraightScanWide(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-job straight scan skipped in -short mode")
	}
	tr := tree.FatTree(32, 1, 32).WithUniformSpeed(1.5)
	trace := classTrace(t, 7, 20000, 0.95, 0.5, 32)
	requireSameOutput(t, "fattree:32,1,32",
		runFor(t, tr, trace, NewGreedyIdentical(0.5), sim.Options{}, false),
		runFor(t, tr, trace, straightScan{dw: 24}, sim.Options{}, false))
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
// their origin: the per-origin plans must reproduce the straight scan
// under every variant and policy, and a warm replay must not allocate
// a candidate list per arrival.
func TestGreedyInteriorOrigins(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	for _, pol := range scanPolicies {
		opts := sim.Options{Policy: pol.policy, RecordSlices: pol.name != "ps"}
		for _, v := range scanVariants {
			for seed := uint64(1); seed <= v.seeds; seed++ {
				trace := interiorOriginTrace(t, tr, seed)
				requireSameOutput(t, fmt.Sprintf("%s/%s/seed%d", pol.name, v.name, seed),
					runFor(t, tr, trace, &GreedyIdentical{Cfg: v.cfg}, opts, v.packetized),
					runFor(t, tr, trace, straightScan{dw: v.cfg.scanWeight()}, opts, v.packetized))
			}
		}
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
