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

// An Observer switches the engine from the shard-by-shard loop to the
// lockstep global-order loop: every callback must see all shard clocks
// at the engine time, time must never run backwards, and the schedule
// must be the one the shard-by-shard loop produces.
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
		for k := range s.shards {
			if s.shards[k].now != s.Now() {
				t.Fatalf("callback %d: shard %d clock %v, engine time %v", calls, k, s.shards[k].now, s.Now())
			}
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
	if !reflect.DeepEqual(observed.Jobs, plain.Jobs) {
		t.Fatal("per-job metrics differ between the lockstep and the shard-by-shard loop")
	}
	if !reflect.DeepEqual(observed.Sim.Slices(), plain.Sim.Slices()) {
		t.Fatal("slice logs differ between the lockstep and the shard-by-shard loop")
	}
}

// A single root-adjacent subtree (Line) degenerates to one shard.
func TestShardedSingleShard(t *testing.T) {
	tr := tree.Line(3)
	trace := shardTestTrace(t, 6, 100, 1)
	res, err := Run(tr, trace, &oblRR{}, Options{RecordSlices: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sim
	if s.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", s.NumShards())
	}
	if res.Stats.Completed != len(trace.Jobs) {
		t.Fatalf("completed %d of %d jobs", res.Stats.Completed, len(trace.Jobs))
	}
	if rep := s.AuditShard(0); !rep.OK() {
		t.Fatalf("audit of the only shard: %s", rep.Summary())
	}
	if !reflect.DeepEqual(s.ShardSlices(0), s.Slices()) {
		t.Fatal("the only shard's log differs from the full log")
	}
}

// A brown-out run audits clean as a whole and shard by shard, and the
// shard logs partition the full log.
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
		t.Fatalf("audit of sharded run: %s", rep.Summary())
	}
	s := res.Sim
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	total := 0
	for k := 0; k < s.NumShards(); k++ {
		total += len(s.ShardSlices(k))
		if rep := s.AuditShard(k); !rep.OK() {
			t.Fatalf("audit of shard %d: %s", k, rep.Summary())
		}
	}
	if total != len(s.Slices()) {
		t.Fatalf("shard slices sum to %d, full log has %d", total, len(s.Slices()))
	}
}

// A warm ReplayOn over eight shards allocates nothing.
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
	replay() // warm the arenas
	if allocs := testing.AllocsPerRun(20, replay); allocs > 0 {
		t.Fatalf("warm eight-shard replay allocates %.1f times per run, want 0", allocs)
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

// An oblivious assigner that picks a router of a four-shard tree fails
// with the same exact text through all three drivers.
func TestShardedAssignerError(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	wantDispatchError(t, tr, shardTestTrace(t, 9, 20, 4), badLeaf{node: tr.RootAdjacent()[0]},
		`sim: assigner "bad": sim: assignment to non-leaf node 1`)
}

// A querying assigner that picks a router of a four-shard tree fails
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
