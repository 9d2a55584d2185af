package metrics

import (
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sched"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func run(t *testing.T) (*sim.Result, *workload.Trace) {
	t.Helper()
	tr := tree.Star(2)
	r := rng.New(1)
	trace, err := workload.Poisson(r, workload.GenConfig{
		N:    100,
		Size: workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 8}, Eps: 0.5},
		Load: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr, trace, &sched.RoundRobin{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

func TestFlowsAndSummary(t *testing.T) {
	res, _ := run(t)
	fs := Flows(res)
	if len(fs) != 100 {
		t.Fatalf("flows = %d", len(fs))
	}
	s := FlowSummary(res)
	if s.N != 100 || s.Mean <= 0 || s.Max < s.P99 {
		t.Fatalf("bad summary %+v", s)
	}
}

func TestUtilizations(t *testing.T) {
	res, _ := run(t)
	us := Utilizations(res)
	if len(us) != 3 { // relay + 2 leaves
		t.Fatalf("utilizations = %d", len(us))
	}
	var totalWork float64
	for _, u := range us {
		if u.Busy < 0 || u.Busy > 1+1e-9 {
			t.Fatalf("node %d busy fraction %v", u.Node, u.Busy)
		}
		totalWork += u.Work
	}
	if totalWork <= 0 {
		t.Fatal("no work recorded")
	}
	b := Bottleneck(res)
	// The relay carries every job; it must be the bottleneck.
	if b.Node != res.Sim.Tree().RootAdjacent()[0] {
		t.Fatalf("bottleneck = node %d, want the relay", b.Node)
	}
}

func TestQueueSampler(t *testing.T) {
	tr := tree.Star(1)
	qs := NewQueueSampler()
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0, Size: 2},
		{ID: 2, Release: 0, Size: 2},
	}}
	res, err := sim.Run(tr, trace, &sched.RoundRobin{}, sim.Options{Observer: qs.Observe})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	stats := qs.Stats()
	if len(stats) != 2 { // relay + leaf
		t.Fatalf("queue stats for %d nodes, want 2", len(stats))
	}
	relay := stats[0]
	if relay.Max != 3 {
		t.Fatalf("relay max queue %d, want 3", relay.Max)
	}
	if relay.Avg <= 0 || relay.Avg > 3 {
		t.Fatalf("relay avg queue %v out of (0,3]", relay.Avg)
	}
	hot := qs.Hottest()
	if hot.Avg < stats[1].Avg {
		t.Fatal("Hottest returned a cooler node")
	}
}
