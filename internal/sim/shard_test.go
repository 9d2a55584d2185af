package sim

import (
	"reflect"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// oblRR is a round-robin assigner that never reads engine state.
type oblRR struct{ i int }

func (o *oblRR) Name() string { return "oblRR" }
func (o *oblRR) Assign(q *Query, _ *Arrival) tree.NodeID {
	ls := q.Tree().Leaves()
	l := ls[o.i%len(ls)]
	o.i++
	return l
}

func shardTestTrace(t *testing.T, seed uint64, n int, cap float64) *workload.Trace {
	t.Helper()
	trace, err := workload.Poisson(rng.New(seed), workload.GenConfig{
		N: n, Size: workload.UniformSize{Lo: 1, Hi: 16}, Load: 0.9, Capacity: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// The engine once kept per-root-child shards; the TestSharded* tests
// keep their names and now pin what replaced them: one clock, one
// event heap, one slice log and one task arena.

// An Observer is a plain callback, not an execution mode: it runs at
// every injection and node completion with the clock at that instant,
// time never runs backwards, every callback sees a consistent engine
// (CheckInvariants), and the schedule is the one a run without an
// Observer produces.
func TestShardedObserverLockstep(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 5, 200, 4)
	calls := 0
	last := 0.0
	observed, err := Run(tr, trace, &oblRR{}, Options{RecordSlices: true, Observer: func(s *Sim) {
		calls++
		if s.Now() < last {
			t.Fatalf("callback %d: time ran backwards (%v after %v)", calls, s.Now(), last)
		}
		last = s.Now()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("callback %d: %v", calls, err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One callback per injection plus one per node completion.
	if want := len(trace.Jobs) + int(observed.Stats.Events); calls != want {
		t.Fatalf("observer called %d times, want %d", calls, want)
	}
	plain, err := Run(tr, trace, &oblRR{}, Options{RecordSlices: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed.Jobs, plain.Jobs) || observed.Stats != plain.Stats {
		t.Fatal("per-job metrics or stats differ with an Observer")
	}
	if !reflect.DeepEqual(observed.Sim.Slices(), plain.Sim.Slices()) {
		t.Fatal("slice logs differ with an Observer")
	}
}

// A branch that receives no work costs the one engine nothing: a Line
// run and the same run on that Line with an idle second root branch
// beside it give identical per-job metrics, stats (FracFlow's bits
// included: the clock stops at the same instants) and slice logs.
func TestShardedSingleShard(t *testing.T) {
	line := tree.Line(3)
	b := tree.NewBuilder()
	v := b.AddRouter(b.Root())
	for i := 1; i < 3; i++ {
		v = b.AddRouter(v)
	}
	leaf := b.AddLeaf(v)
	b.AddLeaf(b.AddRouter(b.Root()))
	twoBranch := b.MustFinalize()
	if len(twoBranch.RootAdjacent()) != 2 || leaf != line.Leaves()[0] {
		t.Fatalf("built %d root branches, busy leaf %d (Line's is %d)", len(twoBranch.RootAdjacent()), leaf, line.Leaves()[0])
	}
	trace := shardTestTrace(t, 6, 100, 1)
	opts := Options{RecordSlices: true, Instrument: true, SelfCheck: true}
	one, err := Run(line, trace, fixedAssigner{leaf}, opts)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(twoBranch, trace, fixedAssigner{leaf}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.Completed != len(trace.Jobs) {
		t.Fatalf("completed %d of %d jobs", one.Stats.Completed, len(trace.Jobs))
	}
	if !reflect.DeepEqual(one.Jobs, two.Jobs) || one.Stats != two.Stats {
		t.Fatalf("an idle branch changed the run: stats %+v vs %+v", one.Stats, two.Stats)
	}
	if !reflect.DeepEqual(one.Sim.Slices(), two.Sim.Slices()) {
		t.Fatal("an idle branch changed the slice log")
	}
}

// A brown-out run on a four-branch tree audits clean, and its one
// slice log is merged per node: each node's slices appear in time
// order, and no two consecutive ones are the same task's touching
// intervals (those merge into one slice).
func TestShardedAuditClean(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 7, 200, 4)
	fs := compile(t, tr,
		faults.Event{Kind: faults.Brownout, Node: tr.Leaves()[1], Start: 3, End: 30, Factor: 0.25},
	)
	res, err := Run(tr, trace, &oblRR{}, Options{Faults: fs, RecordSlices: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Sim.Audit(); !rep.OK() {
		t.Fatalf("audit of a four-branch run: %s", rep.Summary())
	}
	last := make(map[tree.NodeID]Slice)
	for i, sl := range res.Sim.Slices() {
		if prev, ok := last[sl.Node]; ok {
			if sl.From < prev.To {
				t.Fatalf("slice %d %+v starts before node %d's previous slice %+v ends", i, sl, sl.Node, prev)
			}
			if sl.Seq == prev.Seq && sl.From == prev.To {
				t.Fatalf("slice %d %+v continues node %d's previous slice %+v unmerged", i, sl, sl.Node, prev)
			}
		}
		last[sl.Node] = sl
	}
}

// A warm ReplayOn over an eight-branch tree allocates nothing.
func TestShardedSteadyStateAllocs(t *testing.T) {
	tr := tree.FatTree(8, 1, 2)
	trace := shardTestTrace(t, 8, 300, 8)
	s := New(tr, Options{})
	asg := &oblRR{}
	replay := func() {
		s.Reset(Options{})
		asg.i = 0
		if err := ReplayOn(s, trace, asg); err != nil {
			t.Fatal(err)
		}
	}
	replay() // warm the arena
	if allocs := testing.AllocsPerRun(20, replay); allocs > 0 {
		t.Fatalf("warm eight-branch replay allocates %.1f times per run, want 0", allocs)
	}
}

// badLeaf assigns every job to a fixed node, reading engine state
// first when querying is set.
type badLeaf struct {
	node     tree.NodeID
	querying bool
}

func (badLeaf) Name() string { return "bad" }
func (b badLeaf) Assign(q *Query, _ *Arrival) tree.NodeID {
	if b.querying {
		_ = q.AvailCount(b.node)
	}
	return b.node
}

// wantDispatchError runs trace with asg through all three drivers —
// ReplayOn, the streaming loop and RunPacketized — and requires the
// exact error text want from each.
func wantDispatchError(t *testing.T, tr *tree.Tree, trace *workload.Trace, asg Assigner, want string) {
	t.Helper()
	if err := ReplayOn(New(tr, Options{}), trace, asg); err == nil || err.Error() != want {
		t.Errorf("ReplayOn: got %v, want %q", err, want)
	}
	if _, err := ReplayStreamOn(New(tr, Options{}), workload.NewTraceSource(trace), asg); err == nil || err.Error() != want {
		t.Errorf("streaming loop: got %v, want %q", err, want)
	}
	if _, err := RunPacketized(tr, trace, asg, Options{}); err == nil || err.Error() != want {
		t.Errorf("RunPacketized: got %v, want %q", err, want)
	}
}

// An oblivious assigner that picks a router of a four-branch tree
// fails with the same exact text through all three drivers.
func TestShardedAssignerError(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	wantDispatchError(t, tr, shardTestTrace(t, 9, 20, 4), badLeaf{node: tr.RootAdjacent()[0]},
		`sim: assigner "bad": sim: assignment to non-leaf node 1`)
}

// A querying assigner that picks a router of a four-branch tree fails
// with the same exact text through all three drivers.
func TestShardedQueryingAssignerError(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	wantDispatchError(t, tr, shardTestTrace(t, 9, 20, 4), badLeaf{node: tr.RootAdjacent()[0], querying: true},
		`sim: assigner "bad": sim: assignment to non-leaf node 1`)
}

// A leaf-size vector that does not match the tree fails with the same
// exact text through all three drivers.
func TestLeafSizeMismatchError(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 9, 20, 4)
	for i := range trace.Jobs {
		trace.Jobs[i].LeafSizes = []float64{1, 2, 3}
	}
	wantDispatchError(t, tr, trace, &oblRR{}, "sim: job 0 has 3 leaf sizes for a 8-leaf tree")
}
