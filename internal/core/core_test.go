package core

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// classTrace builds a Poisson trace with sizes rounded to powers of
// (1+eps), as the paper's analysis assumes.
func classTrace(t testing.TB, seed uint64, n int, load, eps float64, branches int) *workload.Trace {
	t.Helper()
	r := rng.New(seed)
	tr, err := workload.Poisson(r, workload.GenConfig{
		N:        n,
		Size:     workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 16}, Eps: eps},
		Load:     load,
		Capacity: float64(branches),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGreedyAvoidsCongestedBranch(t *testing.T) {
	// Two branches; flood branch 0 with work, then check a new job is
	// routed to branch 1.
	tr := tree.BroomstickTree(2, 3, 1)
	s := sim.New(tr, sim.Options{})
	branch0Leaves := tr.SubtreeLeaves(tr.RootAdjacent()[0])
	s.AdvanceTo(0)
	for i := 0; i < 10; i++ {
		a := &sim.Arrival{ID: i, Release: 0, Size: 4}
		if _, err := s.Inject(a, branch0Leaves[0]); err != nil {
			t.Fatal(err)
		}
	}
	g := NewGreedyIdentical(0.5)
	choice := g.Assign(s.Query(), &sim.Arrival{ID: 100, Release: 0, Size: 4})
	if tr.Branch(choice) != tr.RootAdjacent()[1] {
		t.Fatalf("greedy sent the job into the congested branch (leaf %d)", choice)
	}
}

func TestGreedyPrefersShallowLeafWhenIdle(t *testing.T) {
	// One branch with leaves at depth 2 and depth 5; empty system.
	b := tree.NewBuilder()
	v0 := b.AddRouter(b.Root())
	shallow := b.AddLeaf(v0)
	v1 := b.AddRouter(v0)
	v2 := b.AddRouter(v1)
	v3 := b.AddRouter(v2)
	b.AddLeaf(v3)
	tr := b.MustFinalize()
	s := sim.New(tr, sim.Options{})
	g := NewGreedyIdentical(0.5)
	if got := g.Assign(s.Query(), &sim.Arrival{ID: 0, Size: 2}); got != shallow {
		t.Fatalf("greedy chose %d, want shallow leaf %d", got, shallow)
	}
}

func TestGreedyAblationFlags(t *testing.T) {
	tr := tree.BroomstickTree(2, 3, 1)
	s := sim.New(tr, sim.Options{})
	g := NewGreedyIdentical(0.5)
	g.Cfg.DropVolumeTerm = true
	// Pure distance: any minimal-depth leaf is acceptable.
	v := g.Assign(s.Query(), &sim.Arrival{ID: 0, Size: 1})
	if tr.Depth(v) != 3 { // minimal leaf depth in BroomstickTree(2,3,1)
		t.Fatalf("distance-only greedy picked depth %d", tr.Depth(v))
	}
	g2 := NewGreedyIdentical(0.5)
	g2.Cfg.DropDistanceTerm = true
	if v := g2.Assign(s.Query(), &sim.Arrival{ID: 0, Size: 1}); tr.LeafIndex(v) < 0 {
		t.Fatal("volume-only greedy returned non-leaf")
	}
}

func TestGreedyEpsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("eps=0 accepted")
		}
	}()
	NewGreedyIdentical(0)
}

func TestGreedyUnrelatedPrefersFastLeaf(t *testing.T) {
	tr := tree.Star(2)
	s := sim.New(tr, sim.Options{})
	g := NewGreedyUnrelated(0.5)
	a := &sim.Arrival{ID: 0, Size: 1, LeafSizes: []float64{100, 1}}
	if got := g.Assign(s.Query(), a); got != tr.Leaves()[1] {
		t.Fatalf("unrelated greedy chose slow leaf %d", got)
	}
}

func TestGreedyUnrelatedBalancesLoadVsAffinity(t *testing.T) {
	// Fast leaf is heavily loaded; a modest affinity difference should
	// no longer win.
	tr := tree.Star(2)
	s := sim.New(tr, sim.Options{})
	s.AdvanceTo(0)
	fast := tr.Leaves()[0]
	for i := 0; i < 50; i++ {
		if _, err := s.Inject(&sim.Arrival{ID: i, Release: 0, Size: 1, LeafSizes: []float64{1, 2}}, fast); err != nil {
			t.Fatal(err)
		}
	}
	g := NewGreedyUnrelated(0.5)
	a := &sim.Arrival{ID: 100, Release: 0, Size: 1, LeafSizes: []float64{1, 2}}
	if got := g.Assign(s.Query(), a); got != tr.Leaves()[1] {
		t.Fatal("unrelated greedy ignored 50 queued jobs for a 2x affinity gain")
	}
}

func TestGreedyEndToEnd(t *testing.T) {
	tr := tree.FatTree(2, 2, 2).WithSpeeds(1, 1.5, 1.5)
	trace := classTrace(t, 3, 400, 0.8, 0.5, 2)
	res, err := sim.Run(tr, trace, NewGreedyIdentical(0.5), sim.Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != 400 {
		t.Fatalf("completed %d/400", res.Stats.Completed)
	}
	if res.Stats.TotalFlow <= 0 {
		t.Fatal("no flow accumulated")
	}
}

func TestShadowAssignerEndToEnd(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := classTrace(t, 5, 300, 0.7, 0.5, 2)
	sh, err := NewShadow(tr, ShadowConfig{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr, trace, sh, sim.Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Finish(); err != nil {
		t.Fatal(err)
	}
	rep := CheckLemma8(res, sh)
	if rep.Jobs != 300 {
		t.Fatalf("Lemma8 compared %d jobs, want 300", rep.Jobs)
	}
	if rep.Violations != 0 {
		t.Fatalf("Lemma 8 violated for %d jobs (max ratio %v)", rep.Violations, rep.MaxRatio)
	}
	if rep.MaxRatio > 1+1e-9 {
		t.Fatalf("Lemma 8 max ratio %v > 1", rep.MaxRatio)
	}
}

// Shadow.Assign hands the broomstick rule and engine one reused
// Arrival, so a streamed identical shadow run allocates nothing per
// job; a fresh Arrival per job escaped through the Assigner interface.
// The count is the difference between two run lengths, so setup and
// the logarithmic growth of engine buffers cancel out.
func TestShadowStreamAllocsPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("two streamed shadow runs skipped in -short mode")
	}
	tr := tree.FatTree(2, 2, 2).WithUniformSpeed(1.5)
	mallocs := func(n int) uint64 {
		sh, err := NewShadow(tr, ShadowConfig{Eps: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.NewPoissonSource(rng.New(1), workload.GenConfig{
			N: n, Size: workload.UniformSize{Lo: 1, Hi: 16}, Load: 0.95, Capacity: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sim.RunStream(tr, src, sh, sim.Options{RetainJobs: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const lo, hi = 5_000, 25_000
	perJob := float64(mallocs(hi)-mallocs(lo)) / (hi - lo)
	t.Logf("%.4f allocations per job", perJob)
	if perJob > 0.01 {
		t.Fatalf("streamed shadow run allocates %.3f times per job, want at most 0.01", perJob)
	}
}

// Lemma 8's per-job domination must hold exactly on arbitrary random
// trees in the identical setting (the paper's induction is airtight
// there: every node on a job's path shares its priority order with the
// corresponding broomstick handle node).
func TestLemma8PropertyIdentical(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		tr := tree.Random(r, tree.RandomConfig{Branches: 1 + r.Intn(3), MaxDepth: 2 + r.Intn(3), MaxChildren: 2, LeafProb: 0.5})
		trace, err := workload.Poisson(r, workload.GenConfig{
			N:        60,
			Size:     workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 8}, Eps: 0.5},
			Load:     0.6 + r.Float64(),
			Capacity: float64(len(tr.RootAdjacent())),
		})
		if err != nil {
			return false
		}
		sh, err := NewShadow(tr, ShadowConfig{Eps: 0.5})
		if err != nil {
			return false
		}
		res, err := sim.Run(tr, trace, sh, sim.Options{})
		if err != nil {
			return false
		}
		if err := sh.Finish(); err != nil {
			return false
		}
		rep := CheckLemma8(res, sh)
		return rep.Jobs == 60 && rep.Violations == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Reproduction finding (documented in DESIGN.md and EXPERIMENTS.md):
// in the *unrelated* setting, Lemma 8's per-job domination can fail
// for a small fraction of jobs. Mechanism: leaf priorities differ from
// router priorities, and the broomstick's +2 extra depth can delay a
// high-leaf-priority job long enough in T' that a low-priority job
// slips through its T' leaf first — while in T the high-priority job
// arrives in time to preempt it. Aggregate (total-flow) domination
// still held in every instance we generated; this test pins down both
// facts so a regression in either direction is caught.
func TestLemma8UnrelatedAggregateFinding(t *testing.T) {
	perJobViolations := 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		tr := tree.Random(r, tree.RandomConfig{Branches: 1 + r.Intn(3), MaxDepth: 2 + r.Intn(3), MaxChildren: 2, LeafProb: 0.5})
		trace, err := workload.Poisson(r, workload.GenConfig{
			N:        80,
			Size:     workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 8}, Eps: 0.5},
			Load:     0.6 + r.Float64(),
			Capacity: float64(len(tr.RootAdjacent())),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(tr.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
			t.Fatal(err)
		}
		sh, err := NewShadow(tr, ShadowConfig{Eps: 0.5, Unrelated: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, trace, sh, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.Finish(); err != nil {
			t.Fatal(err)
		}
		rep := CheckLemma8(res, sh)
		perJobViolations += rep.Violations
		if rep.TotalFlowT > rep.TotalFlowT2+1e-6 {
			t.Fatalf("seed %d: aggregate domination failed: flow(T)=%v > flow(T')=%v",
				seed, rep.TotalFlowT, rep.TotalFlowT2)
		}
	}
	if perJobViolations == 0 {
		t.Log("note: no per-job violations on these seeds; the finding relies on other instances")
	}
}

// lemmaTree builds the speed configuration of Lemmas 1-3: speed 1 on
// root-adjacent nodes, 1+eps elsewhere.
func lemmaTree(base *tree.Tree, eps float64) *tree.Tree {
	return base.WithSpeeds(1, 1+eps, 1+eps)
}

func TestLemma1Bound(t *testing.T) {
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		tr := lemmaTree(tree.FatTree(2, 3, 2), eps)
		r := rng.New(11)
		trace, err := workload.Poisson(r, workload.GenConfig{
			N:        500,
			Size:     workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 16}, Eps: eps},
			Load:     1.1, // overload: the bound must hold regardless
			Capacity: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, trace, NewGreedyIdentical(eps), sim.Options{Instrument: true})
		if err != nil {
			t.Fatal(err)
		}
		rep := CheckLemma1(res, eps, false)
		if rep.Violations != 0 {
			t.Fatalf("eps=%v: %d Lemma 1 violations (max ratio %v)", eps, rep.Violations, rep.MaxRatio)
		}
		if rep.MaxRatio > 1 {
			t.Fatalf("eps=%v: max ratio %v > 1", eps, rep.MaxRatio)
		}
	}
}

func TestLemma2Invariant(t *testing.T) {
	eps := 0.5
	tr := lemmaTree(tree.FatTree(2, 3, 2), eps)
	r := rng.New(13)
	trace, err := workload.Poisson(r, workload.GenConfig{
		N:        400,
		Size:     workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 16}, Eps: eps},
		Load:     1.2,
		Capacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	chk := &Lemma2Checker{Eps: eps, SampleStride: 3}
	_, err = sim.Run(tr, trace, NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: chk.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Checks == 0 {
		t.Fatal("Lemma 2 checker never ran")
	}
	if chk.Violations != 0 {
		t.Fatalf("%d Lemma 2 violations out of %d checks (max ratio %v)", chk.Violations, chk.Checks, chk.MaxRatio)
	}
}

func TestLemma2UnrelatedInvariant(t *testing.T) {
	eps := 0.5
	tr := lemmaTree(tree.FatTree(2, 2, 2), eps)
	r := rng.New(17)
	trace, err := workload.Poisson(r, workload.GenConfig{
		N:        250,
		Size:     workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 8}, Eps: eps},
		Load:     1.0,
		Capacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(tr.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
		t.Fatal(err)
	}
	workload.RoundTraceToClasses(trace, eps)
	chk := &Lemma2Checker{Eps: eps, Unrelated: true, SampleStride: 3}
	_, err = sim.Run(tr, trace, NewGreedyUnrelated(eps), sim.Options{Instrument: true, Observer: chk.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Checks == 0 || chk.Violations != 0 {
		t.Fatalf("unrelated Lemma 2: %d violations / %d checks (max %v)", chk.Violations, chk.Checks, chk.MaxRatio)
	}
}

// Lemma 3 statement: with no further arrivals, Φ_j at any instant
// bounds the job's remaining time to clear its last identical node.
// We release a batch at (essentially) one instant and then sample.
func TestPhiUpperBoundsRemainingWait(t *testing.T) {
	eps := 0.5
	s := 1 + eps
	tr := lemmaTree(tree.BroomstickTree(2, 4, 2), eps)
	var jobs []workload.Job
	r := rng.New(19)
	for i := 0; i < 40; i++ {
		jobs = append(jobs, workload.Job{
			ID: i, Release: float64(i) * 1e-7,
			Size: workload.RoundToClass(1+r.Float64()*15, eps),
		})
	}
	trace := &workload.Trace{Jobs: jobs}

	type sample struct {
		id  int
		t   float64
		phi float64
	}
	var samples []sample
	obs := func(sm *sim.Sim) {
		if sm.Now() < 1e-6 {
			return // batch still arriving
		}
		q := sm.Query()
		for _, js := range sm.Tasks() {
			if js.Completed || js.Hop < 1 {
				continue
			}
			samples = append(samples, sample{js.ID, sm.Now(), Phi(q, js, eps, s, false)})
		}
	}
	res, err := sim.Run(tr, trace, NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no potential samples collected")
	}
	// Identical setting: the last identical node is the leaf itself,
	// so Φ bounds the remaining time to full completion.
	for _, sp := range samples {
		done := res.Jobs[sp.id].Completion
		remaining := done - sp.t
		if remaining > sp.phi+1e-6 {
			t.Fatalf("job %d at t=%v: remaining %v exceeds Φ=%v", sp.id, sp.t, remaining, sp.phi)
		}
	}
}

func TestPhiDecreaseChecker(t *testing.T) {
	eps := 0.5
	tr := lemmaTree(tree.FatTree(2, 3, 1), eps)
	trace := classTrace(t, 23, 200, 1.0, eps, 2)
	chk := &PhiDecreaseChecker{Eps: eps, Speed: 1 + eps}
	_, err := sim.Run(tr, trace, NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: chk.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Checks == 0 {
		t.Fatal("Φ dynamics checker never ran")
	}
	if chk.Violations != 0 {
		t.Fatalf("Φ increased without arrivals %d/%d times (max excess %v)", chk.Violations, chk.Checks, chk.MaxExcess)
	}
}

func TestPhiZeroForCompleted(t *testing.T) {
	tr := tree.Star(1)
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 1}}}
	res, err := sim.Run(tr, trace, NewGreedyIdentical(0.5), sim.Options{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	if phi := Phi(res.Sim.Query(), res.Sim.Tasks()[0], 0.5, 1.5, false); phi != 0 {
		t.Fatalf("Φ of a completed job = %v", phi)
	}
}

func TestBoundHelpers(t *testing.T) {
	if got := MaxQueueVolumeBound(0.5, 3); math.Abs(got-12) > 1e-12 {
		t.Fatalf("MaxQueueVolumeBound = %v, want 12", got)
	}
	if got := InteriorWaitBound(0.5, 2, 3); math.Abs(got-144) > 1e-12 {
		t.Fatalf("InteriorWaitBound = %v, want 144", got)
	}
}

func TestShadowRejectsBadConfig(t *testing.T) {
	if _, err := NewShadow(tree.Star(2), ShadowConfig{Eps: 0}); err == nil {
		t.Fatal("accepted eps=0")
	}
}

func TestShadowNamePropagates(t *testing.T) {
	sh, err := NewShadow(tree.Star(2), ShadowConfig{Eps: 0.5, Unrelated: true})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Name() != "Shadow(GreedyUnrelated)" {
		t.Fatalf("Name = %q", sh.Name())
	}
}

// The Cost method must reproduce the objective the default Assign
// minimizes: the chosen leaf's Cost is the minimum over leaves.
func TestGreedyCostConsistency(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	s := sim.New(tr, sim.Options{})
	s.AdvanceTo(0)
	r := rng.New(71)
	g := NewGreedyIdentical(0.5)
	gu := NewGreedyUnrelated(0.5)
	for i := 0; i < 40; i++ {
		ls := make([]float64, len(tr.Leaves()))
		for li := range ls {
			ls[li] = 0.5 + 3*r.Float64()
		}
		a := &sim.Arrival{ID: i, Release: 0, Size: 1 + 7*r.Float64(), LeafSizes: ls}
		for _, probe := range []struct {
			pick sim.Assigner
			cost func(*sim.Query, *sim.Arrival, tree.NodeID) float64
		}{
			{g, g.Cost}, {gu, gu.Cost},
		} {
			chosen := probe.pick.Assign(s.Query(), a)
			best := probe.cost(s.Query(), a, chosen)
			for _, v := range tr.Leaves() {
				if c := probe.cost(s.Query(), a, v); c < best-1e-9 {
					t.Fatalf("Assign chose leaf %d with cost %v but leaf %d costs %v", chosen, best, v, c)
				}
			}
		}
		// Inject to evolve the state between probes.
		if _, err := s.Inject(a, tr.Leaves()[i%len(tr.Leaves())]); err != nil {
			t.Fatal(err)
		}
	}
}

// Phi in the unrelated setting excludes the leaf: a job already on its
// leaf has zero remaining identical nodes, so Phi is 0.
func TestPhiUnrelatedExcludesLeaf(t *testing.T) {
	tr := tree.Star(1)
	s := sim.New(tr, sim.Options{Instrument: true})
	s.AdvanceTo(0)
	js, err := s.Inject(&sim.Arrival{ID: 0, Release: 0, Size: 1, LeafSizes: []float64{5}}, tr.Leaves()[0])
	if err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(1.5) // past the relay (1 unit), now on the leaf
	if js.CurrentNode() != tr.Leaves()[0] {
		t.Fatalf("job not on leaf at t=1.5 (hop node %d)", js.CurrentNode())
	}
	if phi := Phi(s.Query(), js, 0.5, 1.5, true); phi != 0 {
		t.Fatalf("unrelated Phi on leaf = %v, want 0", phi)
	}
	if phi := Phi(s.Query(), js, 0.5, 1.5, false); phi <= 0 {
		t.Fatalf("identical Phi on leaf = %v, want > 0", phi)
	}
}
