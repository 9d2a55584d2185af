package experiments

import (
	"math"

	"treesched/internal/core"
	"treesched/internal/lowerbound"
	"treesched/internal/lp"
	"treesched/internal/sched"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func init() {
	register(&Experiment{ID: "LP1", Title: "LP relaxation lower bound vs combinatorial bounds vs achieved flow", Paper: "LP-Primal (Section 2)", Run: runLP1})
	register(&Experiment{ID: "X1", Title: "Arbitrary-origin arrivals extension", Paper: "Conclusion (open problem)", Run: runX1})
	register(&Experiment{ID: "X2", Title: "Alternative objectives: max flow and l2 norm", Paper: "Conclusion (open problem)", Run: runX2})
}

// runLP1 solves the paper's time-indexed LP exactly on tiny instances
// and compares the resulting lower bound with the combinatorial bounds
// and the best schedule the portfolio finds.
func runLP1(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("LP1 — lower bound quality on tiny instances",
		"instance", "jobs", "LP*", "LP*/3 bound", "combinatorial LB", "OPT<= (exhaustive)", "pivots", "fitted dual (eps 0.5)")
	instances := []struct {
		name  string
		t     *tree.Tree
		trace *workload.Trace
	}{
		{
			name: "star(2), 3 jobs",
			t:    tree.Star(2),
			trace: &workload.Trace{Jobs: []workload.Job{
				{ID: 0, Release: 0, Size: 2},
				{ID: 1, Release: 1, Size: 1},
				{ID: 2, Release: 2, Size: 2},
			}},
		},
		{
			name: "broomstick(1,2,2), 4 jobs",
			t:    tree.BroomstickTree(1, 2, 2),
			trace: &workload.Trace{Jobs: []workload.Job{
				{ID: 0, Release: 0, Size: 1},
				{ID: 1, Release: 0.5, Size: 2},
				{ID: 2, Release: 1, Size: 1},
				{ID: 3, Release: 3, Size: 2},
			}},
		},
		{
			name: "line(2), 3 jobs",
			t:    tree.Line(2),
			trace: &workload.Trace{Jobs: []workload.Job{
				{ID: 0, Release: 0, Size: 2},
				{ID: 1, Release: 1, Size: 2},
				{ID: 2, Release: 4, Size: 1},
			}},
		},
		{
			name: "star(2) unrelated, 3 jobs",
			t:    tree.Star(2),
			trace: &workload.Trace{Jobs: []workload.Job{
				{ID: 0, Release: 0, Size: 2, LeafSizes: []float64{1, 4}},
				{ID: 1, Release: 1, Size: 1, LeafSizes: []float64{3, 1}},
				{ID: 2, Release: 2, Size: 2, LeafSizes: []float64{2, 2}},
			}},
		},
	}
	boundsValid, closed, duals, dualsBelow := true, 0, 0, 0
	for _, inst := range instances {
		in, err := lp.Build(inst.t, inst.trace, 0)
		if err != nil {
			return nil, err
		}
		sol, err := in.Solve()
		if err != nil {
			return nil, err
		}
		comb := lowerbound.Best(inst.t, inst.trace)
		// Exhaustive assignment search: an upper bound on OPT, so the
		// truth is bracketed between the bounds and this value.
		best, err := lowerbound.BestAssignmentUpperBound(inst.t, inst.trace, 200000)
		if err != nil {
			return nil, err
		}
		// Weak duality, checked across independent solvers: the dual
		// the Section 3.5 fit builds (identical endpoints only) may not
		// exceed the simplex optimum.
		dual := "-"
		if inst.trace.Jobs[0].LeafSizes == nil {
			rep, err := core.RunDualFit(inst.t, inst.trace, 0.5)
			if err != nil {
				return nil, err
			}
			dual = table.Cell(rep.DualObjective)
			duals++
			if rep.DualObjective <= sol.Objective+1e-6 {
				dualsBelow++
			}
		}
		lb := lp.OPTLowerBound(sol.Objective)
		tb.AddRow(inst.name, len(inst.trace.Jobs), sol.Objective, lb, comb, best, sol.Iterations, dual)
		boundsValid = boundsValid && lb <= best+1e-6 && comb <= best+1e-6
		if max(lb, comb) >= best-1e-6 {
			closed++
		}
	}
	tb.AddNote("LP* is the optimum of the paper's time-indexed relaxation with unit slots; OPT<= exhaustively enumerates every leaf assignment under three preemptive policies, so the true OPT lies between the strongest lower bound and that column. The fitted dual is Section 3.5's, built by a live greedy run at the Theorem 5 speeds")
	out.claim(tb, boundsValid, "every lower bound, LP*/3 and combinatorial, is at most OPT<= on every instance",
		"%d instances", len(instances))
	out.claim(tb, dualsBelow == duals && duals > 0, "weak duality across independent solvers: the fitted dual objective is at most LP* on every identical-endpoint instance",
		"%d of %d instances", dualsBelow, duals)
	out.claim(tb, closed == 3, "the strongest lower bound meets OPT<= on three of the four instances",
		"closed on %d of %d", closed, len(instances))
	out.add(tb)
	return out, nil
}

// runX1 exercises the arbitrary-origin extension the conclusion poses
// as an open problem: jobs released at interior routers only need the
// sub-path below their origin.
func runX1(cfg Config) (*Output, error) {
	out := &Output{}
	base := tree.FatTree(2, 2, 2)
	n := cfg.scaled(1200)
	tb := table.New("X1 — arbitrary-origin arrivals (greedy+SJF)",
		"origin mix", "avg flow", "max flow")
	var avg []float64
	for _, frac := range []float64{0, 0.3, 0.7} {
		r := cfg.rng(1600 + uint64(frac*10))
		trace := poisson(r, n, classSizes(0.5), 0.9, float64(len(base.RootAdjacent())))
		// Re-home a fraction of jobs to random routers.
		routers := []tree.NodeID{}
		for id := tree.NodeID(1); int(id) < base.NumNodes(); id++ {
			if !base.IsLeaf(id) {
				routers = append(routers, id)
			}
		}
		for i := range trace.Jobs {
			if r.Bool(frac) {
				trace.Jobs[i].Origin = int32(routers[r.Intn(len(routers))])
			}
		}
		res, err := sim.Run(base, trace, core.NewGreedyIdentical(0.5), sim.Options{})
		if err != nil {
			return nil, err
		}
		tb.AddRow(cell1(frac), res.AvgFlow(), res.Stats.MaxFlow)
		avg = append(avg, res.AvgFlow())
	}
	tb.AddNote("jobs with interior origins skip upstream hops; the open problem is whether the paper's guarantees survive this generalization")
	out.claim(tb, falling(avg...), "average flow drops as the interior fraction rises",
		"%.4g, %.4g, %.4g at 0%%, 30%%, 70%% interior", avg[0], avg[1], avg[2])
	out.add(tb)
	return out, nil
}

func cell1(frac float64) string {
	if frac == 0 {
		return "all at root"
	}
	return table.Cell(frac*100) + "% interior"
}

// runX2 reports the alternative objectives the conclusion raises.
func runX2(cfg Config) (*Output, error) {
	out := &Output{}
	base := tree.FatTree(2, 2, 2)
	n := cfg.scaled(2000)
	tb := table.New("X2 — alternative objectives (load 0.9)",
		"assigner/policy", "total flow", "l2 norm", "max flow")
	trace := poisson(cfg.rng(1700), n, classSizes(0.5), 0.9, float64(len(base.RootAdjacent())))
	configs := []struct {
		name string
		asg  sim.Assigner
		pol  sim.Policy
	}{
		{"greedy + SJF", core.NewGreedyIdentical(0.5), sim.SJF{}},
		{"greedy + FIFO", core.NewGreedyIdentical(0.5), sim.FIFO{}},
		{"LeastVolume + SJF", sched.LeastVolume{}, sim.SJF{}},
	}
	total := make([]float64, len(configs))
	maxFlow := make([]float64, len(configs))
	for i, c := range configs {
		res, err := sim.Run(base, trace, c.asg, sim.Options{Policy: c.pol})
		if err != nil {
			return nil, err
		}
		total[i], maxFlow[i] = res.Stats.TotalFlow, res.LkNormFlow(math.Inf(1))
		tb.AddRow(c.name, total[i], res.LkNormFlow(2), maxFlow[i])
	}
	tb.AddNote("the trade between average and tail is why max-flow on trees is posed as a separate open problem (and shown hard by Antoniadis et al. for lines)")
	out.claim(tb, total[0] < total[1], "greedy + SJF has a lower total flow than greedy + FIFO",
		"%.4g against %.4g", total[0], total[1])
	out.claim(tb, maxFlow[1] < maxFlow[0], "greedy + FIFO flips the trade: a lower max flow than greedy + SJF",
		"%.4g against %.4g", maxFlow[1], maxFlow[0])
	out.add(tb)
	return out, nil
}
