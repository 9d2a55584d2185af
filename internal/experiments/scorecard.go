package experiments

import (
	"fmt"

	"treesched/internal/core"
	"treesched/internal/lowerbound"
	"treesched/internal/lp"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "A0",
		Title: "Validation scorecard: every machine-checked claim at a glance",
		Paper: "whole paper",
		Run:   runA0,
	})
}

// runA0 runs a compact version of every proof-as-check in one pass and
// reports PASS/FAIL with the decisive number. It fronts EXPERIMENTS.md
// (IDs sort alphabetically) so a reader sees the reproduction status
// before any individual study.
func runA0(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("A0 — reproduction scorecard",
		"claim", "check", "decisive number", "status")
	n := cfg.scaled(500)
	eps := 0.5
	pass := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}

	// Lemma 1: interior waiting bound.
	{
		t := tree.FatTree(2, 3, 2).WithSpeeds(1, 1+eps, 1+eps)
		trace := poisson(cfg.rng(3000), n, classSizes(eps), 1.1, 2)
		res, err := sim.Run(t, trace, core.NewGreedyIdentical(eps), sim.Options{Instrument: true})
		if err != nil {
			return nil, err
		}
		rep := core.CheckLemma1(res, eps, false)
		tb.AddRow("Lemma 1 (interior wait <= (6/eps^2) p_j d_v)",
			fmt.Sprintf("%d jobs, overload", rep.Jobs),
			fmt.Sprintf("max ratio %.4f", rep.MaxRatio),
			pass(rep.Violations == 0))
	}

	// Lemma 2: available-volume bound, event granular.
	{
		t := tree.FatTree(2, 3, 2).WithSpeeds(1, 1+eps, 1+eps)
		trace := poisson(cfg.rng(3001), n, classSizes(eps), 1.2, 2)
		chk := &core.Lemma2Checker{Eps: eps, SampleStride: 4}
		if _, err := sim.Run(t, trace, core.NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: chk.Observe}); err != nil {
			return nil, err
		}
		tb.AddRow("Lemma 2 (avail volume <= (2/eps) p_j)",
			fmt.Sprintf("%d event checks", chk.Checks),
			fmt.Sprintf("max ratio %.4f", chk.MaxRatio),
			pass(chk.Violations == 0))
	}

	// Lemma 3: potential dynamics.
	{
		t := tree.FatTree(2, 3, 1).WithSpeeds(1, 1+eps, 1+eps)
		trace := poisson(cfg.rng(3002), n, classSizes(eps), 1.0, 2)
		chk := &core.PhiDecreaseChecker{Eps: eps, Speed: 1 + eps}
		if _, err := sim.Run(t, trace, core.NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: chk.Observe}); err != nil {
			return nil, err
		}
		tb.AddRow("Lemma 3 (Phi decreases at unit rate)",
			fmt.Sprintf("%d interval checks", chk.Checks),
			fmt.Sprintf("max excess %.2g", chk.MaxExcess),
			pass(chk.Violations == 0))
	}

	// Lemma 8: per-job domination, identical setting.
	{
		r := cfg.rng(3003)
		base := tree.Random(r, tree.RandomConfig{Branches: 2, MaxDepth: 4, MaxChildren: 2, LeafProb: 0.45})
		trace := poisson(r, n, classSizes(eps), 0.9, float64(len(base.RootAdjacent())))
		sh, err := core.NewShadow(base, core.ShadowConfig{Eps: eps})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(base, trace, sh, sim.Options{})
		if err != nil {
			return nil, err
		}
		if err := sh.Finish(); err != nil {
			return nil, err
		}
		rep := core.CheckLemma8(res, sh)
		tb.AddRow("Lemma 8 (flow(T) <= flow(T'), identical)",
			fmt.Sprintf("%d jobs, random tree", rep.Jobs),
			fmt.Sprintf("worst per-job ratio %.4f", rep.MaxRatio),
			pass(rep.Violations == 0))
	}

	// Lemmas 5-7: dual feasibility (Theorem 5's analysis).
	var dualObj float64
	{
		t := tree.BroomstickTree(2, 3, 2)
		trace := poisson(cfg.rng(3004), n, classSizes(eps), 0.9, 2)
		rep, err := core.RunDualFit(t, trace, eps)
		if err != nil {
			return nil, err
		}
		dualObj = rep.DualObjective
		tb.AddRow("Lemmas 5-7 (LP-Dual feasibility)",
			fmt.Sprintf("%d constraint checks", rep.C4Checks+rep.C5Checks),
			fmt.Sprintf("certified OPT >= %.4g", rep.CertifiedOPTLowerBound),
			pass(rep.C4Violations == 0 && rep.C5Violations == 0 && rep.CertifiedOPTLowerBound > 0))
	}

	// Weak duality: dual objective below the simplex LP optimum.
	{
		t := tree.BroomstickTree(1, 2, 2)
		trace := &workload.Trace{Jobs: []workload.Job{
			{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 0.5, Size: 2},
			{ID: 2, Release: 1, Size: 1}, {ID: 3, Release: 3, Size: 2},
		}}
		rep, err := core.RunDualFit(t, trace, eps)
		if err != nil {
			return nil, err
		}
		in, err := lp.Build(t, trace, 0)
		if err != nil {
			return nil, err
		}
		sol, err := in.Solve()
		if err != nil {
			return nil, err
		}
		tb.AddRow("Weak duality (dual <= LP*, independent solvers)",
			"tiny instance, exact simplex",
			fmt.Sprintf("dual %.4g <= LP* %.4g", rep.DualObjective, sol.Objective),
			pass(rep.DualObjective <= sol.Objective+1e-6))
	}

	// Lower-bound validity: every bound below an achieved schedule.
	{
		t := tree.FatTree(2, 2, 2)
		trace := poisson(cfg.rng(3005), n, classSizes(eps), 0.9, 2)
		res, err := sim.Run(t, trace, core.NewGreedyIdentical(eps), sim.Options{})
		if err != nil {
			return nil, err
		}
		lb := lowerbound.Best(t, trace)
		tb.AddRow("Lower-bound validity (LB <= any schedule at speed 1)",
			"greedy at speed 1",
			fmt.Sprintf("LB %.4g vs flow %.4g", lb, res.Stats.TotalFlow),
			pass(lb <= res.Stats.TotalFlow+1e-6))
	}

	_ = dualObj
	tb.AddNote("each row compresses a full experiment (L1, L2, L3, L8, D1, LP1, T1); see the corresponding sections for the complete sweeps")
	out.add(tb)
	return out, nil
}
