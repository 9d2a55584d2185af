package sim

import (
	"errors"
	"strings"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// compile is a test helper: a compiled fault schedule or t.Fatal.
func compile(t *testing.T, tr *tree.Tree, events ...faults.Event) *faults.Schedule {
	t.Helper()
	fs, err := faults.Compile(tr, &faults.Plan{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// Star(1) is root → relay → leaf, so a size-4 job occupies the relay
// over [0,4] and the leaf over [4,8].
func TestOutageDelaysCompletion(t *testing.T) {
	tr := tree.Star(1)
	leaf := tr.Leaves()[0]
	relay := tr.RootAdjacent()[0]
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}

	// Leaf outage [5,7): the leaf works [4,5), stalls two units, then
	// finishes the remaining 3 — completion 8+2 = 10.
	res, err := Run(tr, trace, fixedAssigner{leaf}, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults: compile(t, tr, faults.Event{Kind: faults.Outage, Node: leaf, Start: 5, End: 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Jobs[0].Completion, 10, 1e-9, "completion under leaf outage")

	// Relay outage [1,2): every downstream time shifts by one.
	res, err = Run(tr, trace, fixedAssigner{leaf}, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults: compile(t, tr, faults.Event{Kind: faults.Outage, Node: relay, Start: 1, End: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Jobs[0].Completion, 9, 1e-9, "completion under relay outage")
}

func TestBrownoutRemainingWork(t *testing.T) {
	tr := tree.Star(1)
	leaf := tr.Leaves()[0]
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}
	// The leaf starts at t=4; brownout ×0.25 over [4.5,6.5) delivers
	// 0.5+0.5 of the 4 units by 6.5, so completion is 6.5+3 = 9.5.
	res, err := Run(tr, trace, fixedAssigner{leaf}, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults: compile(t, tr, faults.Event{Kind: faults.Brownout, Node: leaf, Start: 4.5, End: 6.5, Factor: 0.25}),
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Jobs[0].Completion, 9.5, 1e-9, "completion under brownout")
}

// A task finishing exactly when an outage starts completes: finish
// events win boundary ties.
func TestFinishWinsBoundaryTie(t *testing.T) {
	tr := tree.Star(1)
	leaf := tr.Leaves()[0]
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}
	res, err := Run(tr, trace, fixedAssigner{leaf}, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults: compile(t, tr, faults.Event{Kind: faults.Outage, Node: leaf, Start: 8, End: 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Jobs[0].Completion, 8, 1e-9, "completion at boundary tie")
}

func TestHoldReportsStuckTasks(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}
	// The leaf dies at t=2 while the task is still on the relay; under
	// RecoverHold it arrives at a dead leaf and stalls forever. Bounded
	// retention must report it exactly as full retention does.
	var msgs []string
	for _, retain := range []int{0, 1} {
		_, err := Run(tr, trace, fixedAssigner{leaf}, Options{
			SelfCheck:  true,
			RetainJobs: retain,
			Faults:     compile(t, tr, faults.Event{Kind: faults.LeafLoss, Node: leaf, Start: 2}),
		})
		var stuck *StuckError
		if !errors.As(err, &stuck) {
			t.Fatalf("retain=%d: Run error = %v, want *StuckError", retain, err)
		}
		if stuck.Active != 1 || len(stuck.Tasks) != 1 {
			t.Fatalf("retain=%d: StuckError = %+v, want exactly one stuck task", retain, stuck)
		}
		d := stuck.Tasks[0]
		if d.Job != 0 || d.Leaf != leaf {
			t.Fatalf("retain=%d: stuck dump = %+v, want job 0 on leaf %d", retain, d, leaf)
		}
		if !strings.Contains(stuck.Error(), "task 0") {
			t.Fatalf("retain=%d: StuckError message %q does not name the task", retain, stuck.Error())
		}
		msgs = append(msgs, stuck.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("bounded retention reports %q, full retention %q", msgs[1], msgs[0])
	}
}

func TestRedispatchCompletesWithMigration(t *testing.T) {
	tr := tree.Star(2)
	leaf0, leaf1 := tr.Leaves()[0], tr.Leaves()[1]
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}
	res, err := Run(tr, trace, fixedAssigner{leaf0}, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults:   compile(t, tr, faults.Event{Kind: faults.LeafLoss, Node: leaf0, Start: 2}),
		Recovery: RecoverRedispatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The task restarts its path at the relay: 2 units of relay work
	// are lost, so relay [2,6], leaf1 [6,10].
	approx(t, res.Jobs[0].Completion, 10, 1e-9, "completion after re-dispatch")
	ms := res.Sim.Migrations()
	if len(ms) != 1 {
		t.Fatalf("migrations = %v, want exactly one", ms)
	}
	m := ms[0]
	if m.Job != 0 || m.From != leaf0 || m.To != leaf1 || m.At != 2 {
		t.Fatalf("migration = %+v, want job 0 leaf %d -> %d at t=2", m, leaf0, leaf1)
	}
	// Drain's auto-audit already verified the two-journey slice log;
	// double-check explicitly.
	if rep := res.Sim.Audit(); !rep.OK() {
		t.Fatalf("audit after re-dispatch: %s", rep.Summary())
	}
}

// Re-dispatch picks the surviving leaf with the least assigned volume.
func TestRedispatchPicksLeastLoadedSurvivor(t *testing.T) {
	tr := tree.Star(3)
	leaves := tr.Leaves()
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 3},  // → leaf1: still busy there at t=5
		{ID: 1, Release: 0, Size: 10}, // → leaf0: dies mid-flight
	}}
	asg := &listAssigner{leaves: []tree.NodeID{leaves[1], leaves[0]}}
	res, err := Run(tr, trace, asg, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults:   compile(t, tr, faults.Event{Kind: faults.LeafLoss, Node: leaves[0], Start: 5}),
		Recovery: RecoverRedispatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Sim.Migrations()
	if len(ms) != 1 || ms[0].To != leaves[2] {
		t.Fatalf("migrations = %+v, want job 1 re-dispatched to idle leaf %d", ms, leaves[2])
	}
	if res.Stats.Completed != 2 {
		t.Fatalf("completed %d/2", res.Stats.Completed)
	}
}

// listAssigner hands out a fixed per-job leaf sequence.
type listAssigner struct {
	leaves []tree.NodeID
	i      int
}

func (l *listAssigner) Name() string { return "list" }
func (l *listAssigner) Assign(*Query, *Arrival) tree.NodeID {
	leaf := l.leaves[l.i%len(l.leaves)]
	l.i++
	return leaf
}

// faultedStressOpts is a moderately nasty shared configuration: a
// fat-tree, an overloaded Poisson trace, and a plan mixing all three
// fault kinds.
func faultedStressSetup(t *testing.T, seed uint64) (*tree.Tree, *workload.Trace, *faults.Schedule) {
	t.Helper()
	r := rng.New(seed)
	tr := tree.FatTree(2, 2, 2)
	trace, err := workload.Poisson(r, workload.GenConfig{
		N:        120,
		Size:     workload.UniformSize{Lo: 0.2, Hi: 4},
		Load:     0.8,
		Capacity: float64(len(tr.RootAdjacent())),
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	fs := compile(t, tr,
		faults.Event{Kind: faults.Outage, Node: leaves[1], Start: 3, End: 9},
		faults.Event{Kind: faults.Outage, Node: tr.RootAdjacent()[0], Start: 20, End: 24},
		faults.Event{Kind: faults.Brownout, Node: leaves[4], Start: 0, End: 40, Factor: 0.5},
		faults.Event{Kind: faults.LeafLoss, Node: leaves[6], Start: 15},
	)
	return tr, trace, fs
}

// The same faulty scenario must be bit-for-bit reproducible: identical
// slices, migrations and statistics across two fresh engines.
func TestFaultDeterminism(t *testing.T) {
	run := func() *Result {
		tr, trace, fs := faultedStressSetup(t, 99)
		res, err := Run(tr, trace, &rrAssigner{}, Options{
			SelfCheck: true, Instrument: true, RecordSlices: true,
			Faults: fs, Recovery: RecoverRedispatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
	sa, sb := a.Sim.Slices(), b.Sim.Slices()
	if len(sa) != len(sb) {
		t.Fatalf("slice counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("slice %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	ma, mb := a.Sim.Migrations(), b.Sim.Migrations()
	if len(ma) != len(mb) {
		t.Fatalf("migration counts differ: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i].Seq != mb[i].Seq || ma[i].At != mb[i].At || ma[i].To != mb[i].To {
			t.Fatalf("migration %d differs: %+v vs %+v", i, ma[i], mb[i])
		}
	}
}

// Reset must clear all fault state: boundary cursor, migrations, and
// the fault-scaled node speeds.
func TestResetClearsFaultState(t *testing.T) {
	tr, trace, fs := faultedStressSetup(t, 7)
	s := New(tr, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults: fs, Recovery: RecoverRedispatch,
	})
	if _, err := RunOn(s, trace, &rrAssigner{}); err != nil {
		t.Fatal(err)
	}
	faulted := s.Stats()

	// A fault-free run on the Reset engine must match a fresh engine.
	s.Reset(Options{SelfCheck: true})
	res, err := RunOn(s, trace, &rrAssigner{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Migrations()) != 0 {
		t.Fatal("Reset kept migration records")
	}
	fresh, err := Run(tr, trace, &rrAssigner{}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != fresh.Stats {
		t.Fatalf("reset engine diverged from fresh engine:\n%+v\n%+v", res.Stats, fresh.Stats)
	}
	if res.Stats == faulted {
		t.Fatal("fault-free rerun matched the faulted run; faults leaked through Reset")
	}

	// And re-running the faulted configuration reproduces it exactly.
	s.Reset(Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Faults: fs, Recovery: RecoverRedispatch,
	})
	if _, err := RunOn(s, trace, &rrAssigner{}); err != nil {
		t.Fatal(err)
	}
	if s.Stats() != faulted {
		t.Fatalf("faulted rerun diverged:\n%+v\n%+v", s.Stats(), faulted)
	}
}

// Injection at exactly a boundary instant sees post-fault speeds.
func TestInjectAppliesDueBoundaries(t *testing.T) {
	tr := tree.Star(1)
	leaf := tr.Leaves()[0]
	s := New(tr, Options{
		SelfCheck: true,
		Faults:    compile(t, tr, faults.Event{Kind: faults.Outage, Node: leaf, Start: 0, End: 2}),
	})
	s.AdvanceTo(0)
	if _, err := s.Inject(&Arrival{ID: 0, Release: 0, Size: 1}, leaf); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Relay [0,1]; leaf blocked until 2, then one unit: completion 3.
	approx(t, s.Records()[0].Completion, 3, 1e-9, "completion with t=0 outage")
}

// Regression (satellite 1): CheckInvariants must return an error for a
// queue-membership inconsistency instead of panicking.
func TestCheckInvariantsQueueMembershipReturnsError(t *testing.T) {
	tr := tree.Star(2)
	leaf0, leaf1 := tr.Leaves()[0], tr.Leaves()[1]
	s := New(tr, Options{})
	if _, err := s.Inject(&Arrival{ID: 0, Release: 0, Size: 2}, leaf0); err != nil {
		t.Fatal(err)
	}
	js1, err := s.Inject(&Arrival{ID: 1, Release: 0, Size: 2}, leaf1)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the bookkeeping: task 1 sits on the relay (hop 0) but we
	// force it into leaf0's queue as well.
	s.nodes[leaf0].avail.push(js1)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("CheckInvariants panicked: %v", r)
		}
	}()
	invErr := s.CheckInvariants()
	if invErr == nil || !strings.Contains(invErr.Error(), "queued on node") {
		t.Fatalf("CheckInvariants = %v, want queue-membership error", invErr)
	}
}
