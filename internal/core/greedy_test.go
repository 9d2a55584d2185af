package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"treesched/internal/faults"
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

// requireFloorTie checks that, for arrival a at q's state, want's
// branch root is busy yet costs exactly the floor p + c of a later
// empty root, and that cfg's identical rule and the straight scan both
// pick want: a scan ending at the first empty root would not.
func requireFloorTie(t *testing.T, q *sim.Query, a *sim.Arrival, cfg GreedyConfig, want tree.NodeID) {
	t.Helper()
	tr := q.Tree()
	c := cfg.scanWeight() * float64(tr.Depth(want)) * a.Size
	br := tr.Branch(want)
	if cost := F(q, a, want) + c; q.AvailCount(br) == 0 || cost != a.Size+c {
		t.Fatalf("setup: want's branch root holds %d tasks and costs %v; want a busy root at the floor %v", q.AvailCount(br), cost, a.Size+c)
	}
	if !slices.ContainsFunc(tr.RootAdjacent(), func(r tree.NodeID) bool { return r > br && q.AvailCount(r) == 0 }) {
		t.Fatal("setup: no empty branch root after want's")
	}
	for _, asg := range []sim.Assigner{&GreedyIdentical{Cfg: cfg}, straightScan{dw: cfg.scanWeight()}} {
		if got := asg.Assign(q, a); got != want {
			t.Errorf("%s picked leaf %d, want the floor-cost busy root's leaf %d", asg.Name(), got, want)
		}
	}
}

// The half-ulp floor tie of TestGreedyFloorTieAheadOfEmptyRoot at a
// clock near 2^40, where an ulp of the clock is 2^-12: the branch
// root's task has 2^-12 left, under half an ulp of the job's size 2^42.
func TestGreedyFloorTieNearClock2p40(t *testing.T) {
	tr := tree.FatTree(3, 1, 1)
	leaves := tr.Leaves()
	s := sim.New(tr, sim.Options{})
	s.AdvanceTo(0x1p40)
	if _, err := s.Inject(&sim.Arrival{ID: 0, Release: 0x1p40, Size: 1}, leaves[0]); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(math.Nextafter(0x1p40+1, 0))
	requireFloorTie(t, s.Query(), &sim.Arrival{ID: 1, Release: s.Now(), Size: 0x1p42}, GreedyConfig{Eps: 0.5}, leaves[0])
}

// A branch root's task near 2^40 units, with 2^-13 + 2^-30 of work
// done between consecutive pushes behind it (FIFO), loses almost half
// an ulp to rounding at each of 60 syncs, so its computed work runs out
// about 60·2^-13 before its finish event. Just after that, the root
// costs the floor (the pushed tasks hold 2^-60 each), while the finish
// event is further away than a sync-free slack would allow for.
func TestGreedyNearTieAfterSyncs(t *testing.T) {
	const m = 60
	tr := tree.FatTree(2, 1, 1)
	leaves := tr.Leaves()
	s := sim.New(tr, sim.Options{Policy: sim.FIFO{}})
	if _, err := s.Inject(&sim.Arrival{ID: 0, Release: 0, Size: 0x1p40 + 1}, leaves[0]); err != nil {
		t.Fatal(err)
	}
	const gap = 0x1p-13 + 0x1p-30
	for i := 1; i <= m; i++ {
		s.AdvanceTo(float64(i) * gap)
		if _, err := s.Inject(&sim.Arrival{ID: i, Release: s.Now(), Size: 0x1p-60}, leaves[0]); err != nil {
			t.Fatal(err)
		}
	}
	s.AdvanceTo(0x1p40 + 1 - 0x1p-8)
	requireFloorTie(t, s.Query(), &sim.Arrival{ID: m + 1, Release: s.Now(), Size: 0x1p40 + 1},
		GreedyConfig{Eps: 0.5, DropDistanceTerm: true}, leaves[0])
}

// At ε = 1e-9 on a fat-tree the distance term absorbs p: a branch root
// running a larger job costs fl(fl(p+p) + c) = fl(p + c), the floor,
// though its job has plenty of work left.
func TestGreedyAbsorbedDistanceTie(t *testing.T) {
	tr := tree.FatTree(3, 1, 1)
	leaves := tr.Leaves()
	s := sim.New(tr, sim.Options{})
	if _, err := s.Inject(&sim.Arrival{ID: 0, Release: 0, Size: 0x1p20}, leaves[0]); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(1)
	requireFloorTie(t, s.Query(), &sim.Arrival{ID: 1, Release: 1, Size: 1}, GreedyConfig{Eps: 1e-9}, leaves[0])
}

// A probe whose ID is below an injected task's at the same release and
// size does not follow it: the task does not outrank the probe, so its
// branch root costs the floor although the task has all its work left.
func TestGreedyOutOfOrderProbe(t *testing.T) {
	tr := tree.FatTree(3, 1, 1)
	leaves := tr.Leaves()
	s := sim.New(tr, sim.Options{})
	s.AdvanceTo(1)
	if _, err := s.Inject(&sim.Arrival{ID: 5, Release: 1, Size: 1}, leaves[0]); err != nil {
		t.Fatal(err)
	}
	requireFloorTie(t, s.Query(), &sim.Arrival{ID: 3, Release: 1, Size: 1}, GreedyConfig{Eps: 0.5}, leaves[0])
}

// Processor sharing and brown-outs get no certificate, checked where a
// bound priced from the heap top at the base speed would be positive.
// Under a brown-out to 2^-40 of the branch root's base speed, its task
// of 2^-50 has 2^-51 left halfway to its finish event at 2^-10: such a
// bound would claim 2^-11. Under PS the root's lone task would be
// claimed to have 0.5 left at t = 0.5 (it has), and just before its
// event at t = 1 it has 2^-53 left, the half-ulp tie.
func TestGreedyRefusesPSAndBrownouts(t *testing.T) {
	tr := tree.FatTree(3, 1, 1)
	leaves := tr.Leaves()
	sched, err := faults.Compile(tr, &faults.Plan{Events: []faults.Event{
		{Kind: faults.Brownout, Node: tr.Branch(leaves[0]), Start: 0, End: 1, Factor: 0x1p-40},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		opts            sim.Options
		size, check, at float64
		probeSize       float64
	}{
		{"brownout", sim.Options{Faults: sched}, 0x1p-50, 0x1p-11, 0x1p-11, 1},
		{"ps", sim.Options{Policy: sim.PS{}}, 1, 0.5, math.Nextafter(1, 0), 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(tr, c.opts)
			if _, err := s.Inject(&sim.Arrival{ID: 0, Release: 0, Size: c.size}, leaves[0]); err != nil {
				t.Fatal(err)
			}
			s.AdvanceTo(c.check)
			if w := s.Query().RootWorkBound(c.check, 1); w > 0 {
				t.Fatalf("t=%v: RootWorkBound = %v, want no bound", c.check, w)
			}
			s.AdvanceTo(c.at)
			requireFloorTie(t, s.Query(), &sim.Arrival{ID: 1, Release: c.at, Size: c.probeSize}, GreedyConfig{Eps: 0.5}, leaves[0])
		})
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

// scanInput reads a FuzzGreedyScan input one byte at a time; bytes
// past the end read as 0.
type scanInput []byte

func (in *scanInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	x := (*in)[0]
	*in = (*in)[1:]
	return int(x)
}

// scanConfigs is FuzzGreedyScan's rule palette. At ε = 1e-9 the
// distance term 6/ε²·d·p absorbs p and every small F, so whole runs of
// candidates tie at the same cost.
var scanConfigs = []GreedyConfig{
	{Eps: 0.5}, {Eps: 1}, {Eps: 1e-9}, {Eps: 0.5, DropDistanceTerm: true}, {Eps: 0.5, DistanceWeight: 1},
}

// decodeScanInput builds a FuzzGreedyScan case: a tree of 2–4 branches,
// each a chain of one to three routers ending in one or two leaves,
// optionally with a shallower leaf on the branch root and a deep leaf
// after it (so one branch can hold several runs), or, for half the
// first bytes, branches whose chains all have the first one's length
// and no extra leaves (one depth, where the scan may end at the first
// empty branch root); speed 1 or 1.5; a rule from scanConfigs; a
// policy, whole or packetized; then up to 64 jobs, three bytes each: a
// release gap, a size and an origin (a quarter of jobs start at a
// random non-root node). One gap jumps to just below the next integer
// time, where a unit job started on an idle branch root at the
// previous integer time has an ulp or so of work left: the floor tie
// of TestGreedyFloorTieAheadOfEmptyRoot. One adds 2^40 to the clock,
// where an ulp is 2^-12, and one, 2^-13 + 2^-30, rounds each sync of a
// task near 2^40 units down by almost half an ulp; with sizes of 2^-60
// queued behind such a task under FIFO, its computed work runs out
// before its finish event (TestGreedyNearTieAfterSyncs). Packetized
// jobs are capped at 16 units.
func decodeScanInput(data []byte) (*tree.Tree, GreedyConfig, sim.Options, bool, *workload.Trace) {
	in := scanInput(data)
	b := tree.NewBuilder()
	first := in.next()
	oneDepth := first/3%2 == 1
	chain := -1
	for i := 2 + first%3; i > 0; i-- {
		x := in.next()
		d := x % 3
		if oneDepth {
			if chain < 0 {
				chain = d
			}
			d = chain
		}
		top := b.AddRouter(b.Root())
		v := top
		for ; d > 0; d-- {
			v = b.AddRouter(v)
		}
		for l := 1 + x/3%2; l > 0; l-- {
			b.AddLeaf(v)
		}
		if !oneDepth && x/6%2 == 1 && v != top {
			b.AddLeaf(top)
			if x/12%2 == 1 {
				b.AddLeaf(v)
			}
		}
	}
	tr := b.MustFinalize()
	if in.next()%2 == 1 {
		tr = tr.WithUniformSpeed(1.5)
	}
	cfg := scanConfigs[in.next()%len(scanConfigs)]
	p := in.next()
	pol := scanPolicies[p%len(scanPolicies)]
	opts := sim.Options{Policy: pol.policy, RecordSlices: pol.name != "ps"}
	packetized := p/len(scanPolicies)%2 == 1

	gaps := [...]float64{0, 0, 0.25, 1, 3, 1e-9, -1, 0.5, 0x1p40, 0x1p-13 + 0x1p-30}
	sizes := [...]float64{1, 1, 2, 4, 16, 0.5, 3, 1.5, 0x1p40 + 1, 0x1p-60}
	trace := &workload.Trace{}
	rel := 0.0
	for id := 0; id < 64 && len(in) > 0; id++ {
		g, s, o := in.next(), in.next(), in.next()
		if gap := gaps[g%len(gaps)]; gap < 0 {
			rel = math.Nextafter(math.Floor(rel)+1, 0)
		} else {
			rel += gap
		}
		j := workload.Job{ID: id, Release: rel, Size: sizes[s%len(sizes)]}
		if packetized {
			j.Size = min(j.Size, 16)
		}
		if o%4 == 3 {
			j.Origin = int32(1 + o/4%(tr.NumNodes()-1))
		}
		trace.Jobs = append(trace.Jobs, j)
	}
	return tr, cfg, opts, packetized, trace
}

// FuzzGreedyScan holds GreedyIdentical's pruned, bound-priced scan to
// the straight scan of every leaf: on any decoded tree, rule, policy
// and trace both write the same NDJSON, stats and slice log. Its seeds
// run under plain go test: the floor tie of
// TestGreedyFloorTieAheadOfEmptyRoot, the ε that absorbs p, and eight
// full-length random inputs.
func FuzzGreedyScan(f *testing.F) {
	// fattree:3,1,1; job 0 (size 1) runs on branch root 0 from t = 0;
	// job 1 (size 4) arrives just before t = 1.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 3, 0, 0, 2, 0, 5, 4, 0})
	// Four one-leaf branches at ε = 1e-9.
	f.Add([]byte{2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 4, 0, 0, 3, 0, 6, 4, 0, 1, 1, 0, 5, 2, 0})
	for k := uint64(1); k <= 8; k++ {
		r := rng.New(k)
		data := make([]byte, 8+3*64)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg, opts, packetized, trace := decodeScanInput(data)
		if len(trace.Jobs) == 0 {
			return
		}
		requireSameOutput(t, "fuzz",
			runFor(t, tr, trace, &GreedyIdentical{Cfg: cfg}, opts, packetized),
			runFor(t, tr, trace, straightScan{dw: cfg.scanWeight()}, opts, packetized))
	})
}

// BenchmarkGreedyAssign times GreedyIdentical.Assign alone on warm
// engine states of the sim-wide shape (fattree:32,1,32 at speed 1.5,
// load 0.95): 16 engines of one trace, each stopped at an arrival and
// probed there with the 16 arrivals that follow. Sub-benchmark mixed
// stops every 1,000 arrivals (most probes find an empty branch root,
// where the scan ends); busy stops at the first arrival after each
// 1,000 that finds every branch root busy (no empty root: the full
// bound-priced scan). Queries are pure, so the timed loop never moves
// a state, and it allocates nothing.
func BenchmarkGreedyAssign(b *testing.B) {
	b.Run("mixed", func(b *testing.B) { benchGreedyAssign(b, false) })
	b.Run("busy", func(b *testing.B) { benchGreedyAssign(b, true) })
}

func benchGreedyAssign(b *testing.B, allBusy bool) {
	const states, probes = 16, 16
	tr := tree.FatTree(32, 1, 32).WithUniformSpeed(1.5)
	trace := classTrace(b, 7, (states+2)*1000, 0.95, 0.5, 32)
	g := NewGreedyIdentical(0.5)
	busy := func(q *sim.Query) bool {
		for _, r := range tr.RootAdjacent() {
			if q.AvailCount(r) == 0 {
				return false
			}
		}
		return true
	}
	type probe struct {
		q *sim.Query
		a sim.Arrival
	}
	var ps []probe
	for k := 1; k <= states; k++ {
		s := sim.New(tr, sim.Options{})
		for i := 0; ; i++ {
			j := &trace.Jobs[i]
			s.AdvanceTo(j.Release)
			if i >= k*1000 && (!allBusy || busy(s.Query())) {
				for _, j := range trace.Jobs[i : i+probes] {
					ps = append(ps, probe{q: s.Query(), a: sim.Arrival{ID: j.ID, Release: s.Now(), Size: j.Size}})
				}
				break
			}
			a := &sim.Arrival{ID: j.ID, Release: j.Release, Size: j.Size}
			if _, err := s.Inject(a, g.Assign(s.Query(), a)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := range ps {
		g.Assign(ps[i].q, &ps[i].a) // activate the snapshots the scan reads
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		p := &ps[i%len(ps)]
		assignSink = g.Assign(p.q, &p.a)
	}
}

// assignSink keeps BenchmarkGreedyAssign's calls live.
var assignSink tree.NodeID
