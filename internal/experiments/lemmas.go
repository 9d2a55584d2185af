package experiments

import (
	"treesched/internal/core"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "L1",
		Title: "Interior waiting bound (6/eps^2)*p_j*d_v",
		Paper: "Lemma 1",
		Run:   runL1,
	})
	register(&Experiment{
		ID:    "L2",
		Title: "Higher-priority available volume bound (2/eps)*p_j",
		Paper: "Lemma 2",
		Run:   runL2,
	})
	register(&Experiment{
		ID:    "L8",
		Title: "Per-job flow domination of T over the broomstick T'",
		Paper: "Lemma 8 (Section 3.7)",
		Run:   runL8,
	})
}

// lemmaSpeeds applies the Lemma 1-3 speed assumptions: speed 1 on
// root-adjacent nodes, (1+eps) everywhere else.
func lemmaSpeeds(t *tree.Tree, eps float64) *tree.Tree {
	return t.WithSpeeds(1, 1+eps, 1+eps)
}

// runL1 measures, per eps, how close the observed interior waiting
// time comes to the Lemma 1 bound; the lemma predicts max ratio <= 1.
func runL1(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("L1 — interior waiting vs (6/eps^2)*p_j*d_v",
		"eps", "jobs", "max ratio", "mean ratio", "violations")
	n := cfg.scaled(1500)
	jobs, viol, worst := 0, 0, 0.0
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		t := lemmaSpeeds(tree.FatTree(2, 3, 2), eps)
		trace := poisson(cfg.rng(500+uint64(eps*100)), n, classSizes(eps), 1.1, 2)
		res, err := sim.Run(t, trace, core.NewGreedyIdentical(eps), sim.Options{Instrument: true})
		if err != nil {
			return nil, err
		}
		rep := core.CheckLemma1(res, eps, false)
		tb.AddRow(eps, rep.Jobs, rep.MaxRatio, rep.MeanRatio, rep.Violations)
		jobs, viol, worst = jobs+rep.Jobs, viol+rep.Violations, max(worst, rep.MaxRatio)
	}
	tb.AddNote("run deliberately overloaded (load 1.1): Lemma 1 is a structural property of SJF and must hold regardless")
	out.claim(tb, viol == 0, "Lemma 1: no job's interior wait exceeds (6/eps^2) p_j d_v, at any eps",
		"%d violations in %d jobs, max ratio %.4g", viol, jobs, worst)
	out.add(tb)
	return out, nil
}

// runL2 checks the queue-volume invariant at event granularity.
func runL2(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("L2 — available higher-priority volume vs (2/eps)*p_j",
		"eps", "setting", "checks", "max ratio", "violations")
	n := cfg.scaled(800)
	var checks, viol int64
	worst := 0.0
	tally := func(chk *core.Lemma2Checker) {
		checks, viol, worst = checks+chk.Checks, viol+chk.Violations, max(worst, chk.MaxRatio)
	}
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		t := lemmaSpeeds(tree.FatTree(2, 3, 2), eps)
		trace := poisson(cfg.rng(600+uint64(eps*100)), n, classSizes(eps), 1.2, 2)
		chk := &core.Lemma2Checker{Eps: eps, SampleStride: 5}
		if _, err := sim.Run(t, trace, core.NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: chk.Observe}); err != nil {
			return nil, err
		}
		tb.AddRow(eps, "identical", chk.Checks, chk.MaxRatio, chk.Violations)
		tally(chk)
	}
	// Unrelated variant.
	eps := 0.5
	t := lemmaSpeeds(tree.FatTree(2, 2, 2), eps)
	r := cfg.rng(650)
	trace := poisson(r, n, classSizes(eps), 1.0, 2)
	if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(t.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
		return nil, err
	}
	workload.RoundTraceToClasses(trace, eps)
	chk := &core.Lemma2Checker{Eps: eps, Unrelated: true, SampleStride: 5}
	if _, err := sim.Run(t, trace, core.NewGreedyUnrelated(eps), sim.Options{Instrument: true, Observer: chk.Observe}); err != nil {
		return nil, err
	}
	tb.AddRow(eps, "unrelated", chk.Checks, chk.MaxRatio, chk.Violations)
	tally(chk)
	tb.AddNote("checked at every 5th engine event on overloaded runs; this volume bound drives the whole analysis")
	out.claim(tb, viol == 0, "Lemma 2: available higher-priority volume <= (2/eps) p_j at every checked event, identical and unrelated",
		"%d violations in %d event checks, max ratio %.4g", viol, checks, worst)
	out.add(tb)
	return out, nil
}

// runL8 reports the domination check in both settings, including the
// reproduction finding that per-job domination fails (rarely) for
// unrelated endpoints while aggregate domination persists.
func runL8(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("L8 — flow(T) vs flow(T') under the shadow algorithm",
		"setting", "instances", "jobs", "per-job violations", "worst per-job ratio", "aggregate violations")
	witness := table.New("L8 — violation witnesses (unrelated setting)",
		"instance", "job", "leaf depth d_v", "flow(T)", "flow(T')", "ratio")
	n := cfg.scaled(150)
	// settings holds the identical and the unrelated row.
	var settings [2]struct {
		jobs, viol, agg int
		worst           float64
	}
	for _, unrel := range []bool{false, true} {
		const instances = 12
		totJobs, totViol, aggViol := 0, 0, 0
		worst := 0.0
		for k := 0; k < instances; k++ {
			r := cfg.rng(700 + uint64(k) + 50*boolU(unrel))
			base := tree.Random(r, tree.RandomConfig{Branches: 1 + r.Intn(3), MaxDepth: 2 + r.Intn(3), MaxChildren: 2, LeafProb: 0.5})
			trace := poisson(r, n, classSizes(0.5), 0.6+r.Float64(), float64(len(base.RootAdjacent())))
			if unrel {
				if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(base.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
					return nil, err
				}
			}
			sh, err := core.NewShadow(base, core.ShadowConfig{Eps: 0.5, Unrelated: unrel})
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
			totJobs += rep.Jobs
			totViol += rep.Violations
			if rep.MaxRatio > worst {
				worst = rep.MaxRatio
			}
			if rep.TotalFlowT > rep.TotalFlowT2+1e-6 {
				aggViol++
			}
			if unrel && len(witness.Rows) < 8 {
				inner := make(map[int]float64)
				for _, m := range sh.InnerRecords() {
					inner[m.ID] = m.Completion
				}
				for i := range res.Jobs {
					m := &res.Jobs[i]
					fT := m.Flow
					fT2 := inner[m.ID] - m.Release
					if fT > fT2+1e-6 && len(witness.Rows) < 8 {
						witness.AddRow(k, m.ID, base.Depth(m.Leaf), fT, fT2, fT/fT2)
					}
				}
			}
		}
		setting := "identical"
		if unrel {
			setting = "unrelated"
		}
		tb.AddRow(setting, instances, totJobs, totViol, worst, aggViol)
		st := &settings[boolU(unrel)]
		st.jobs, st.viol, st.agg, st.worst = totJobs, totViol, aggViol, worst
	}
	tb.AddNote("REPRODUCTION FINDING (DESIGN §7): with unrelated endpoints the broomstick's +2 depth can delay a high-leaf-priority job past the moment a low-priority job slips through its T' leaf, so the per-job claim can fail there; the theorem-level conclusions rest on aggregate domination")
	ident, unrel := settings[0], settings[1]
	out.claim(tb, ident.viol == 0, "Lemma 8: every job's flow on T is at most its flow on T' in the identical setting",
		"%d of %d jobs violate, worst per-job ratio %.4g", ident.viol, ident.jobs, ident.worst)
	out.claim(tb, unrel.viol > 0 && unrel.viol*20 <= unrel.jobs, "finding: per-job domination fails for a few unrelated-setting jobs, at most 5%",
		"%d of %d jobs violate, worst per-job ratio %.4g", unrel.viol, unrel.jobs, unrel.worst)
	out.claim(tb, ident.agg+unrel.agg == 0, "aggregate domination, total flow on T <= on T', holds in every instance of both settings",
		"%d of %d instances violate", ident.agg+unrel.agg, 2*12)
	out.add(tb)
	if len(witness.Rows) > 0 {
		witness.AddNote("concrete counterexamples to the per-job claim, the first 8 the simulator witnessed")
		out.add(witness)
	}
	return out, nil
}

func boolU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
