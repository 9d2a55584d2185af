package experiments

import (
	"fmt"

	"treesched/internal/core"
	"treesched/internal/sched"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "W1",
		Title: "Workload sensitivity: arrival processes and size laws",
		Paper: "Online model (Section 1-2 robustness)",
		Run:   runW1,
	})
}

// runW1 probes robustness of the online guarantee's spirit: the paper
// promises worst-case behavior independent of the arrival pattern, so
// the greedy rule's advantage over oblivious baselines should never
// invert catastrophically as the workload shifts from smooth Poisson
// to bursty to heavy-tailed to adversarial.
func runW1(cfg Config) (*Output, error) {
	out := &Output{}
	base := tree.FatTree(2, 2, 2)
	n := cfg.scaled(2000)
	cap := float64(len(base.RootAdjacent()))

	gen := func(kind string, salt uint64) (*workload.Trace, error) {
		r := cfg.rng(2400 + salt)
		switch kind {
		case "poisson/uniform":
			return workload.Poisson(r, workload.GenConfig{N: n, Size: classSizes(0.5), Load: 0.9, Capacity: cap})
		case "bursty(12)/uniform":
			return workload.Bursty(r, workload.GenConfig{N: n, Size: classSizes(0.5), Load: 0.9, Capacity: cap}, 12)
		case "poisson/pareto":
			return workload.Poisson(r, workload.GenConfig{N: n, Size: workload.ParetoSize{Min: 1, Alpha: 1.4, Cap: 300}, Load: 0.9, Capacity: cap})
		case "poisson/bimodal":
			return workload.Poisson(r, workload.GenConfig{N: n, Size: workload.BimodalSize{Small: 1, Big: 64, PBig: 0.08}, Load: 0.9, Capacity: cap})
		case "adversarial":
			return workload.Adversarial(r, n/2, 32), nil
		}
		return nil, fmt.Errorf("unknown workload kind %q", kind)
	}

	kinds := []string{"poisson/uniform", "bursty(12)/uniform", "poisson/pareto", "poisson/bimodal", "adversarial"}
	tb := table.New("W1 — avg flow by workload (greedy vs oblivious baselines, SJF nodes)",
		"workload", "greedy", "round robin", "random", "greedy/best-oblivious")
	worst, worstKind := 0.0, ""
	for si, kind := range kinds {
		tG, err := gen(kind, uint64(si))
		if err != nil {
			return nil, err
		}
		g, err := sim.Run(base, tG, core.NewGreedyIdentical(0.5), sim.Options{})
		if err != nil {
			return nil, err
		}
		rr, err := sim.Run(base, tG, &sched.RoundRobin{}, sim.Options{})
		if err != nil {
			return nil, err
		}
		rl, err := sim.Run(base, tG, &sched.RandomLeaf{R: cfg.rng(2450 + uint64(si))}, sim.Options{})
		if err != nil {
			return nil, err
		}
		bestObl := rr.AvgFlow()
		if rl.AvgFlow() < bestObl {
			bestObl = rl.AvgFlow()
		}
		tb.AddRow(kind, g.AvgFlow(), rr.AvgFlow(), rl.AvgFlow(), g.AvgFlow()/bestObl)
		if r := g.AvgFlow() / bestObl; r > worst {
			worst, worstKind = r, kind
		}
	}
	tb.AddNote("the greedy rule's congestion-awareness is about never collapsing, which proximity-based assignment does on the same kind of input (see B1)")
	out.claim(tb, worst <= 1.5, "the greedy rule stays within 1.5x of the best oblivious balancer on every workload shape",
		"largest greedy/best-oblivious %.4g, on %s", worst, worstKind)
	out.add(tb)
	return out, nil
}
