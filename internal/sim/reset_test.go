package sim

import (
	"fmt"
	"io"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func resetTestTrace(t *testing.T, n int) *workload.Trace {
	t.Helper()
	trace, err := workload.Poisson(rng.New(7), workload.GenConfig{
		N: n, Size: workload.UniformSize{Lo: 1, Hi: 8}, Load: 0.9, Capacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestResetReplayIdentical is the core Reset contract: a recycled
// engine must reproduce a fresh engine's run bit for bit — same
// statistics, same per-job completions — and every Result it returned
// must outlive the Resets after it. A Result's Jobs is the engine's
// own record buffer, so each round keeps its Results while the engine
// goes on to a different trace and to a streamed full-retention run
// with a sink; a Reset that wrote to a buffer it had handed over would
// overwrite the kept records with a later run's.
func TestResetReplayIdentical(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 400)
	other := shardTestTrace(t, 11, 250, 2)

	type kept struct {
		leg   string
		trace *workload.Trace
		res   *Result
	}
	var all []kept
	s := New(tr, Options{})
	for round := 0; round < 3; round++ {
		if round > 0 {
			s.Reset(Options{})
		}
		warm, err := RunOn(s, trace, &rrAssigner{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		all = append(all, kept{fmt.Sprintf("round %d", round), trace, warm})
		s.Reset(Options{})
		res, err := RunOn(s, other, &rrAssigner{})
		if err != nil {
			t.Fatalf("round %d, other trace: %v", round, err)
		}
		all = append(all, kept{fmt.Sprintf("round %d, other trace", round), other, res})
		s.Reset(Options{Sink: NewNDJSONSink(io.Discard)})
		if res, err = RunStreamOn(s, workload.NewTraceSource(other), &rrAssigner{}); err != nil {
			t.Fatalf("round %d, streamed: %v", round, err)
		}
		all = append(all, kept{fmt.Sprintf("round %d, streamed", round), other, res})
	}
	for _, k := range all {
		fresh, err := Run(tr, k.trace, &rrAssigner{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if k.res.Stats != fresh.Stats {
			t.Fatalf("%s: stats diverged: fresh %+v, warm %+v", k.leg, fresh.Stats, k.res.Stats)
		}
		if len(k.res.Jobs) != len(fresh.Jobs) {
			t.Fatalf("%s: %d job records, fresh run has %d", k.leg, len(k.res.Jobs), len(fresh.Jobs))
		}
		for i := range fresh.Jobs {
			if k.res.Jobs[i] != fresh.Jobs[i] {
				t.Fatalf("%s: job %d diverged: fresh %+v, warm %+v", k.leg, i, fresh.Jobs[i], k.res.Jobs[i])
			}
		}
	}
}

// TestResetChangesOptions recycles one engine across option sets that
// change the queue implementation (SJF heap → PS scan → SJF heap) and
// checks each leg against a fresh engine with the same options.
func TestResetChangesOptions(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 300)
	optSets := []Options{
		{},
		{Policy: PS{}},
		{},
		{Instrument: true},
		{},
	}

	s := New(tr, optSets[0])
	for i, opts := range optSets {
		if i > 0 {
			s.Reset(opts)
		}
		warm, err := RunOn(s, trace, &rrAssigner{})
		if err != nil {
			t.Fatalf("leg %d: %v", i, err)
		}
		fresh, err := Run(tr, trace, &rrAssigner{}, opts)
		if err != nil {
			t.Fatalf("leg %d fresh: %v", i, err)
		}
		if warm.Stats != fresh.Stats {
			t.Fatalf("leg %d (%+v): stats diverged: fresh %+v, warm %+v", i, opts, fresh.Stats, warm.Stats)
		}
	}
}

// TestResetInstrumentationBuffers checks the nil-vs-empty contract the
// trace renderer relies on: after an instrumented leg, a plain Reset
// must hand out tasks with nil hop records again, and an instrumented
// Reset must keep recording. The plain leg recycles each task at
// completion, so it checks the live tasks Inject returns.
func TestResetInstrumentationBuffers(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 50)

	s := New(tr, Options{Instrument: true})
	if _, err := RunOn(s, trace, &rrAssigner{}); err != nil {
		t.Fatal(err)
	}
	for _, js := range s.Tasks() {
		if js.HopArrive == nil {
			t.Fatal("instrumented run produced a task with nil HopArrive")
		}
	}

	s.Reset(Options{})
	asg := &rrAssigner{}
	for i := range trace.Jobs {
		j := &trace.Jobs[i]
		s.AdvanceTo(j.Release)
		a := Arrival{ID: j.ID, Release: j.Release, Size: j.Size, Weight: j.Weight}
		js, err := s.Inject(&a, asg.Assign(s.Query(), &a))
		if err != nil {
			t.Fatal(err)
		}
		if js.HopArrive != nil {
			t.Fatal("uninstrumented run after Reset produced a task with non-nil HopArrive")
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	s.Reset(Options{Instrument: true})
	if _, err := RunOn(s, trace, &rrAssigner{}); err != nil {
		t.Fatal(err)
	}
	for _, js := range s.Tasks() {
		if len(js.HopArrive) == 0 {
			t.Fatal("re-instrumented run produced a task with no hop records")
		}
	}
}

// TestSteadyStateAllocs guards the zero-allocation hot path: once an
// engine has warmed up (event heap, queues, freelist and result
// buffers all at capacity), a full Reset → inject → Drain cycle must
// not allocate.
func TestSteadyStateAllocs(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 500)
	s := New(tr, Options{})
	asg := &rrAssigner{}

	cycle := func() {
		s.Reset(Options{})
		var a Arrival
		for i := range trace.Jobs {
			j := &trace.Jobs[i]
			s.AdvanceTo(j.Release)
			a = Arrival{ID: j.ID, Release: j.Release, Size: j.Size, Weight: j.Weight}
			leaf := asg.Assign(s.Query(), &a)
			if _, err := s.Inject(&a, leaf); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if s.Active() != 0 {
			t.Fatal("drain left active tasks")
		}
	}
	cycle() // warm up all internal capacity

	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("steady-state Reset+inject+Drain cycle allocates %.1f times per run, want 0", allocs)
	}
}
