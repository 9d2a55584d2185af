package experiments

import (
	"math"

	"treesched/internal/core"
	"treesched/internal/lowerbound"
	"treesched/internal/lp"
	"treesched/internal/scenario"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "T1",
		Title: "Identical endpoints: greedy+SJF with (1+eps) speed vs OPT lower bound",
		Paper: "Theorem 1",
		Run:   runT1,
	})
	register(&Experiment{
		ID:    "T2",
		Title: "Unrelated endpoints: greedy+SJF with (2+eps) speed vs OPT lower bound",
		Paper: "Theorem 2",
		Run:   runT2,
	})
	register(&Experiment{
		ID:    "T3",
		Title: "Fractional vs integral flow time of the same SJF schedule",
		Paper: "Theorem 3",
		Run:   runT3,
	})
	register(&Experiment{
		ID:    "T5",
		Title: "Broomstick fractional flow: greedy at (1+eps) root / (1+eps)^2 off-root vs LB",
		Paper: "Theorem 5",
		Run:   runT5,
	})
	register(&Experiment{
		ID:    "T6",
		Title: "Broomstick fractional flow, unrelated endpoints, 2(1+eps)/2(1+eps)^2 speeds",
		Paper: "Theorem 6",
		Run:   runT6,
	})
	register(&Experiment{
		ID:    "T4",
		Title: "Best-found schedule cost on broomstick T' (augmented) vs on T",
		Paper: "Theorem 4",
		Run:   runT4,
	})
}

// runWithLB builds and runs sc and returns, with its result, the
// speed-1 OPT lower bound of its trace on its unaugmented tree.
func runWithLB(sc *scenario.Scenario) (*scenario.Instance, *sim.Result, float64, error) {
	in, err := sc.Build()
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := in.Run()
	if err != nil {
		return nil, nil, 0, err
	}
	return in, res, lowerbound.Best(in.Base, in.Trace), nil
}

// runT1 validates Theorem 1's shape: with (1+eps)-speed augmentation
// the greedy algorithm's total flow stays within a modest constant of
// the speed-1 OPT lower bound, and the constant shrinks as eps grows.
func runT1(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("T1 — identical endpoints, competitive ratio upper bound vs eps",
		"eps", "speed", "load", "jobs", "flow(greedy)", "LB(OPT,1x)", "ratio<=", "flow(greedy,1x)")
	n := cfg.scaled(2000)
	var cells []struct{ eps, load float64 }
	for _, eps := range []float64{0.1, 0.25, 0.5, 1.0} {
		for _, load := range []float64{0.8, 0.95} {
			cells = append(cells, struct{ eps, load float64 }{eps, load})
		}
	}
	rows, err := Sweep(cfg, len(cells), func(i int) ([]interface{}, error) {
		eps, load := cells[i].eps, cells[i].load
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: eps, Load: load},
			Assigner: "greedy-identical",
			Eps:      eps,
			Seed:     cfg.seed(uint64(eps * 1000)),
			Speed:    scenario.Speed{Uniform: 1 + eps},
		}
		in, res, lb, err := runWithLB(sc)
		if err != nil {
			return nil, err
		}
		// Any speed-1 schedule costs at least OPT, so the same greedy
		// without augmentation checks that the bound is one.
		res1, err := sim.Run(in.Base, in.Trace, core.NewGreedyIdentical(eps), sim.Options{})
		if err != nil {
			return nil, err
		}
		return []interface{}{eps, 1 + eps, load, n, res.Stats.TotalFlow, lb, res.Stats.TotalFlow / lb, res1.Stats.TotalFlow}, nil
	})
	if err != nil {
		return nil, err
	}
	lbValid, worstLB := true, 0.0
	var ratios [2][]float64 // by load, in eps order
	for i, row := range rows {
		tb.AddRow(row...)
		lb, flow1 := row[5].(float64), row[7].(float64)
		lbValid = lbValid && lb <= flow1+1e-6
		worstLB = max(worstLB, lb/flow1)
		ratios[i%2] = append(ratios[i%2], row[6].(float64))
	}
	tb.AddNote("ratios are upper bounds on the true competitive ratio (denominator is a lower bound on OPT); Theorem 1 predicts a constant depending only on eps")
	out.claim(tb, lbValid, "lower-bound validity: LB(OPT,1x) is at most the speed-1 greedy flow in every row",
		"largest LB/flow(1x) %.4g", worstLB)
	out.claim(tb, falling(ratios[0]...) && falling(ratios[1]...), "the ratio falls as eps grows, at both loads",
		"%.4g to %.4g at load 0.8, %.4g to %.4g at load 0.95", ratios[0][0], ratios[0][3], ratios[1][0], ratios[1][3])
	out.add(tb)
	return out, nil
}

// runT2 validates Theorem 2: the unrelated-endpoint greedy at speed
// (2+eps), plus a contrast row at speed (1+eps) showing the regime the
// theorem does not cover.
func runT2(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("T2 — unrelated endpoints, competitive ratio upper bound vs eps",
		"eps", "speed", "jobs", "flow(greedy)", "LB(OPT,1x)", "ratio<=")
	n := cfg.scaled(1500)
	cells := []struct {
		eps   float64
		speed float64
	}{
		{0.25, 2.25}, {0.5, 2.5}, {1.0, 3.0},
		// Below the theorem's speed requirement, for contrast:
		{0.5, 1.5}, {0.5, 1.0},
	}
	rows, err := Sweep(cfg, len(cells), func(i int) ([]interface{}, error) {
		c := cells[i]
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{
				N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: c.eps, Load: 0.9,
				Unrelated: &scenario.Unrelated{Lo: 0.5, Hi: 2, PInfeasible: 0.2, Penalty: 8},
				RoundEps:  c.eps,
			},
			Assigner: "greedy-unrelated",
			Eps:      c.eps,
			Seed:     cfg.seed(uint64(c.eps*1000) + uint64(c.speed*10)),
			Speed:    scenario.Speed{Uniform: c.speed},
		}
		_, res, lb, err := runWithLB(sc)
		if err != nil {
			return nil, err
		}
		return []interface{}{c.eps, c.speed, n, res.Stats.TotalFlow, lb, res.Stats.TotalFlow / lb}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tb.AddRow(row...)
	}
	// Rows 1, 3 and 4 share eps 0.5 at speeds 2.5, 1.5 and 1.
	r25, r15, r1 := rows[1][5].(float64), rows[3][5].(float64), rows[4][5].(float64)
	tb.AddNote("Theorem 2 requires speed 2+eps; the 1.5x and 1.0x rows probe the regime it does not cover")
	out.claim(tb, r25 < r15 && r15 < r1, "below the required 2+eps speed the ratio rises: at eps 0.5, 2.5x < 1.5x < 1.0x",
		"%.4g < %.4g < %.4g", r25, r15, r1)
	out.add(tb)
	return out, nil
}

// runT3 validates Theorem 3's conversion: the integral flow of an SJF
// schedule exceeds its fractional flow by a factor that behaves like
// O(1/eps) once the schedule gets (1+eps) extra speed.
func runT3(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("T3 — integral vs fractional flow time under SJF",
		"eps", "speed", "fractional", "integral", "integral/fractional", "1/eps")
	n := cfg.scaled(2000)
	epsList := []float64{0.1, 0.25, 0.5, 1.0}
	rows, err := Sweep(cfg, len(epsList), func(i int) ([]interface{}, error) {
		eps := epsList[i]
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: eps, Load: 0.95},
			Assigner: "greedy-identical",
			Eps:      eps,
			Seed:     cfg.seed(300 + uint64(eps*100)),
			Speed:    scenario.Speed{Uniform: 1 + eps},
		}
		res, err := scenario.Run(sc)
		if err != nil {
			return nil, err
		}
		return []interface{}{eps, 1 + eps, res.Stats.FracFlow, res.Stats.TotalFlow,
			res.Stats.TotalFlow / res.Stats.FracFlow, 1 / eps}, nil
	})
	if err != nil {
		return nil, err
	}
	lo, hi, envelope := math.Inf(1), 0.0, true
	for i, row := range rows {
		tb.AddRow(row...)
		ratio := row[4].(float64)
		lo, hi = min(lo, ratio), max(hi, ratio)
		envelope = envelope && ratio <= 1+4/epsList[i]
	}
	tb.AddNote("Theorem 3: an s-speed c-competitive fractional algorithm yields a (1+eps)s-speed O(c/eps)-competitive integral one; 1+4/eps gives the O(1/eps) envelope a generous constant")
	out.claim(tb, lo >= 1-1e-9, "integral flow is at least fractional flow, at every eps",
		"smallest integral/fractional %.4g", lo)
	out.claim(tb, envelope, "Theorem 3: integral/fractional stays within 1+4/eps, at every eps",
		"largest integral/fractional %.4g", hi)
	out.add(tb)
	return out, nil
}

// runT5 exercises Theorem 5 verbatim: the identical greedy on a
// broomstick with (1+eps) speed on root-adjacent nodes and (1+eps)^2
// elsewhere; the *fractional* flow (the theorem's objective) is
// compared to the speed-1 OPT lower bound.
func runT5(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("T5 — fractional flow on broomsticks (Theorem 5 speed profile)",
		"eps", "jobs", "fractional flow", "LB(OPT,1x)", "ratio<=", "paper bound O(1/eps^3)")
	n := cfg.scaled(1500)
	epsList := []float64{0.25, 0.5, 1.0}
	rows, err := Sweep(cfg, len(epsList), func(i int) ([]interface{}, error) {
		eps := epsList[i]
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("broomstick", 2, 4, 2),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: eps, Load: 0.9},
			Assigner: "greedy-identical",
			Eps:      eps,
			Seed:     cfg.seed(2100 + uint64(eps*100)),
			Speed:    scenario.Speed{RootAdjacent: 1 + eps, Router: (1 + eps) * (1 + eps), Leaf: (1 + eps) * (1 + eps)},
		}
		_, res, lb, err := runWithLB(sc)
		if err != nil {
			return nil, err
		}
		return []interface{}{eps, n, res.Stats.FracFlow, lb, res.Stats.FracFlow / lb, 1 / (eps * eps * eps)}, nil
	})
	if err != nil {
		return nil, err
	}
	worst, worstEps := 0.0, 0.0
	for i, row := range rows {
		tb.AddRow(row...)
		if r := row[4].(float64) / row[5].(float64); r > worst {
			worst, worstEps = r, epsList[i]
		}
	}
	tb.AddNote("the broomstick is the structure the dual fitting actually analyzes")
	out.claim(tb, worst <= 0.1, "the ratio sits at least 10x below the 1/eps^3 worst case, at every eps",
		"largest ratio over 1/eps^3 %.4g, at eps %g", worst, worstEps)
	out.add(tb)
	return out, nil
}

// runT6 is the unrelated-endpoint counterpart (Theorem 6): speeds
// 2(1+eps) on root-adjacent nodes and 2(1+eps)^2 elsewhere.
func runT6(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("T6 — fractional flow on broomsticks, unrelated endpoints (Theorem 6 speeds)",
		"eps", "jobs", "fractional flow", "LB(OPT,1x)", "ratio<=")
	n := cfg.scaled(1200)
	epsList := []float64{0.25, 0.5, 1.0}
	rows, err := Sweep(cfg, len(epsList), func(i int) ([]interface{}, error) {
		eps := epsList[i]
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("broomstick", 2, 3, 2),
			Workload: scenario.Workload{
				N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: eps, Load: 0.9,
				Unrelated: &scenario.Unrelated{Lo: 0.5, Hi: 2},
				RoundEps:  eps,
			},
			Assigner: "greedy-unrelated",
			Eps:      eps,
			Seed:     cfg.seed(2200 + uint64(eps*100)),
			Speed:    scenario.Speed{RootAdjacent: 2 * (1 + eps), Router: 2 * (1 + eps) * (1 + eps), Leaf: 2 * (1 + eps) * (1 + eps)},
		}
		_, res, lb, err := runWithLB(sc)
		if err != nil {
			return nil, err
		}
		return []interface{}{eps, n, res.Stats.FracFlow, lb, res.Stats.FracFlow / lb}, nil
	})
	if err != nil {
		return nil, err
	}
	worst := 0.0
	for _, row := range rows {
		tb.AddRow(row...)
		worst = max(worst, row[4].(float64))
	}
	tb.AddNote("Theorem 6 doubles every speed relative to Theorem 5 to absorb the leaf-size mismatch")
	out.claim(tb, worst < 1, "the ratio stays below 1 at every eps: the augmented fractional flow beats the speed-1 lower bound",
		"largest ratio %.4g", worst)
	out.add(tb)
	return out, nil
}

// optProxy returns the best total flow found by a portfolio of
// assigner/policy combinations — a (non-certified) stand-in for OPT.
func optProxy(t *tree.Tree, trace *workload.Trace) (float64, error) {
	best := math.Inf(1)
	assigners := []sim.Assigner{
		core.NewGreedyIdentical(0.5),
		core.NewGreedyUnrelated(0.5),
	}
	for _, asg := range assigners {
		for _, pol := range []sim.Policy{sim.SJF{}, sim.SRPT{}} {
			res, err := sim.Run(t, trace, asg, sim.Options{Policy: pol})
			if err != nil {
				return 0, err
			}
			if res.Stats.TotalFlow < best {
				best = res.Stats.TotalFlow
			}
		}
	}
	return best, nil
}

// runT4 probes Theorem 4: OPT on the broomstick T' (with the theorem's
// asymmetric augmentation) is at most O(1/eps^3) times OPT on T. True
// OPT being intractable, both sides use the same best-of-portfolio
// proxy, so the reported ratio estimates OPT_{T'}/OPT_T.
func runT4(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("T4 — broomstick cost inflation, portfolio proxy for OPT",
		"eps", "instances", "mean ratio", "max ratio", "paper bound O(1/eps^3)")
	n := cfg.scaled(200)
	epsList := []float64{0.25, 0.5, 1.0}
	const instances = 6
	ratios, err := Sweep(cfg, len(epsList)*instances, func(i int) (float64, error) {
		eps, k := epsList[i/instances], i%instances
		r := cfg.rng(400 + uint64(eps*100) + uint64(k))
		base := tree.Random(r, tree.RandomConfig{Branches: 2, MaxDepth: 4, MaxChildren: 2, LeafProb: 0.45})
		trace := poisson(r, n, classSizes(eps), 0.85, float64(len(base.RootAdjacent())))
		costT, err := optProxy(base, trace)
		if err != nil {
			return 0, err
		}
		bs, err := tree.Reduce(base)
		if err != nil {
			return 0, err
		}
		aug := bs.Reduced.WithSpeeds(1+eps, (1+eps)*(1+eps), (1+eps)*(1+eps))
		costT2, err := optProxy(aug, trace)
		if err != nil {
			return 0, err
		}
		return costT2 / costT, nil
	})
	if err != nil {
		return nil, err
	}
	worstScaled, worstEps := 0.0, 0.0
	for ei, eps := range epsList {
		var sum, worst float64
		for _, ratio := range ratios[ei*instances : (ei+1)*instances] {
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
		}
		tb.AddRow(eps, instances, sum/instances, worst, 1/(eps*eps*eps))
		if r := worst * eps * eps * eps; r > worstScaled {
			worstScaled, worstEps = r, eps
		}
	}
	tb.AddNote("both numerator and denominator are best-of-portfolio proxies, not certified optima; Theorem 4 predicts the ratio stays below a constant times 1/eps^3")
	out.claim(tb, worstScaled <= 1, "the proxy ratio stays below 1/eps^3 itself, constant 1, at every eps",
		"largest max ratio over 1/eps^3 %.4g, at eps %g", worstScaled, worstEps)
	out.add(tb)

	// Exact companion: on tiny instances the time-indexed LP is solved
	// to optimality on both T (speed 1) and the augmented broomstick
	// T', so the reported ratio needs no proxy at all.
	tb2 := table.New("T4 (exact) — LP optima on tiny instances",
		"eps", "instance", "LP*(T)", "LP*(T' augmented)", "ratio", "paper bound O(1/eps^3)")
	tiny := []*workload.Trace{
		{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 1, Size: 1}, {ID: 2, Release: 2, Size: 2}}},
		{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 0, Size: 1}, {ID: 2, Release: 1, Size: 3}}},
	}
	tinyTree := func() *tree.Tree {
		b := tree.NewBuilder()
		v0 := b.AddRouter(b.Root())
		b.AddLeaf(v0)
		v1 := b.AddRouter(v0)
		b.AddLeaf(v1)
		return b.MustFinalize()
	}
	worstExact := 0.0
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		for ti, trc := range tiny {
			base := tinyTree()
			inT, err := lp.Build(base, trc, 0)
			if err != nil {
				return nil, err
			}
			solT, err := inT.Solve()
			if err != nil {
				return nil, err
			}
			bs, err := tree.Reduce(base)
			if err != nil {
				return nil, err
			}
			aug := bs.Reduced.WithSpeeds(1+eps, (1+eps)*(1+eps), (1+eps)*(1+eps))
			inT2, err := lp.Build(aug, trc, 0)
			if err != nil {
				return nil, err
			}
			solT2, err := inT2.Solve()
			if err != nil {
				return nil, err
			}
			tb2.AddRow(eps, ti, solT.Objective, solT2.Objective, solT2.Objective/solT.Objective, 1/(eps*eps*eps))
			worstExact = max(worstExact, solT2.Objective/solT.Objective)
		}
	}
	tb2.AddNote("exact on both sides (simplex-solved LP optima), so the ratio needs no proxy")
	out.claim(tb2, worstExact <= 2, "the broomstick's extra depth costs at most a factor 2 on every tiny instance",
		"largest LP ratio %.4g", worstExact)
	out.add(tb2)
	return out, nil
}
