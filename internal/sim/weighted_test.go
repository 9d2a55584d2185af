package sim

import (
	"math"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// WSJF runs the heavier of two equal-size jobs first.
func TestWSJFPrefersHeavy(t *testing.T) {
	tr := tree.Star(2)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2, Weight: 1},
		{ID: 1, Release: 1e-9, Size: 2, Weight: 5},
	}}
	res, err := Run(tr, trace, byLeafAssigner{idx: []int{0, 1}}, Options{Policy: WSJF{}, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	// Density: job1 = 2/5 < job0 = 2/1, so job1 preempts at the relay:
	// relay serves job1 first (0..2+eps), then job0 (2..4).
	if res.Jobs[1].Completion > res.Jobs[0].Completion {
		t.Fatalf("WSJF ran the light job first: C0=%v C1=%v", res.Jobs[0].Completion, res.Jobs[1].Completion)
	}
}

func TestWSJFDegradesToSJFWithoutWeights(t *testing.T) {
	tr := tree.FatTree(2, 1, 2)
	r := rng.New(5)
	trace, err := workload.Poisson(r, workload.GenConfig{N: 200, Size: workload.UniformSize{Lo: 1, Hi: 8}, Load: 0.9, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(tr, trace, &rrAssigner{}, Options{Policy: SJF{}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, trace, &rrAssigner{}, Options{Policy: WSJF{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Stats.TotalFlow-b.Stats.TotalFlow) > 1e-9 {
		t.Fatalf("WSJF with unit weights diverged from SJF: %v vs %v", a.Stats.TotalFlow, b.Stats.TotalFlow)
	}
}

func TestWeightedFlowAccounting(t *testing.T) {
	tr := tree.Star(1)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2, Weight: 3},
	}}
	res, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Flow = 4 (2 on relay + 2 on leaf), weighted = 12.
	if math.Abs(res.Stats.WeightedFlow-12) > 1e-9 {
		t.Fatalf("weighted flow = %v, want 12", res.Stats.WeightedFlow)
	}
	if res.Jobs[0].Weight != 3 {
		t.Fatalf("job weight = %v", res.Jobs[0].Weight)
	}
}

// A packetized job keeps its weight: every packet carries it, so the
// folded record and WeightedFlow match a whole-job run's.
func TestPacketizedKeepsWeights(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2, Weight: 5},
		{ID: 1, Release: 0.5, Size: 1.5, Weight: 5},
	}}
	for _, run := range []struct {
		name string
		f    func(*tree.Tree, *workload.Trace, Assigner, Options) (*Result, error)
	}{{"Run", Run}, {"RunPacketized", RunPacketized}} {
		res, err := run.f(tr, trace, &rrAssigner{}, Options{SelfCheck: true})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		for _, m := range res.Jobs {
			if m.Weight != 5 {
				t.Errorf("%s: job %d weight %v, want 5", run.name, m.ID, m.Weight)
			}
		}
		if st := res.Stats; st.WeightedFlow != 5*st.TotalFlow {
			t.Errorf("%s: WeightedFlow %v, want 5 × TotalFlow %v", run.name, st.WeightedFlow, st.TotalFlow)
		}
	}
}

func TestWeightedFlowDefaultsToTotal(t *testing.T) {
	tr := tree.Star(2)
	r := rng.New(7)
	trace, err := workload.Poisson(r, workload.GenConfig{N: 100, Size: workload.UniformSize{Lo: 1, Hi: 4}, Load: 0.8, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, trace, &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Stats.WeightedFlow-res.Stats.TotalFlow) > 1e-6 {
		t.Fatalf("unit-weight weighted flow %v != total flow %v", res.Stats.WeightedFlow, res.Stats.TotalFlow)
	}
}

// WSJF should reduce weighted flow vs SJF on a weighted workload.
func TestWSJFImprovesWeightedObjective(t *testing.T) {
	tr := tree.FatTree(2, 1, 2)
	r := rng.New(9)
	trace, err := workload.Poisson(r, workload.GenConfig{N: 500, Size: workload.UniformSize{Lo: 1, Hi: 16}, Load: 0.95, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	workload.AssignWeights(r, trace, 10)
	sjf, err := Run(tr, trace, &rrAssigner{}, Options{Policy: SJF{}})
	if err != nil {
		t.Fatal(err)
	}
	wsjf, err := Run(tr, trace, &rrAssigner{}, Options{Policy: WSJF{}})
	if err != nil {
		t.Fatal(err)
	}
	if wsjf.Stats.WeightedFlow >= sjf.Stats.WeightedFlow {
		t.Fatalf("WSJF weighted flow %v did not beat SJF %v", wsjf.Stats.WeightedFlow, sjf.Stats.WeightedFlow)
	}
}
