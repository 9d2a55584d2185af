package experiments

import (
	"treesched/internal/scenario"
	"treesched/internal/table"
	"treesched/internal/tree"
)

func init() {
	register(&Experiment{
		ID:    "M1",
		Title: "Machine model spectrum: identical vs related vs unrelated endpoints",
		Paper: "Introduction (machine models)",
		Run:   runM1,
	})
}

// runM1 walks the machine-model ladder the paper's introduction
// climbs: identical machines, related machines (fixed speeds), and
// fully unrelated machines — and asks how much each assignment rule's
// machine-awareness matters at each level.
func runM1(cfg Config) (*Output, error) {
	out := &Output{}
	base := tree.FatTree(2, 1, 4) // 2 racks x 4 machines
	n := cfg.scaled(2000)

	// Related machines: a mix of fast and slow boxes per rack.
	speeds := make([]float64, len(base.Leaves()))
	for i := range speeds {
		switch i % 4 {
		case 0:
			speeds[i] = 4
		case 1:
			speeds[i] = 2
		default:
			speeds[i] = 1
		}
	}

	tb := table.New("M1 — avg flow by machine model and assignment rule (load 0.85)",
		"model", "greedy identical", "greedy unrelated", "least volume", "round robin")
	models := []string{"identical", "related", "unrelated"}
	// Registry names; each cell builds its own assigner through the
	// scenario layer, so the stateful RoundRobin is never shared
	// between concurrently running cells.
	assignerNames := []string{"greedy-identical", "greedy-unrelated", "leastvolume", "roundrobin"}
	assigners := len(assignerNames)
	vals, err := Sweep(cfg, len(models)*assigners, func(i int) (float64, error) {
		mi, ai := i/assigners, i%assigners
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 1, 4),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.85},
			Assigner: assignerNames[ai],
			Seed:     cfg.seed(2500 + uint64(mi)),
		}
		switch models[mi] {
		case "related":
			sc.Workload.RelatedSpeeds = speeds
		case "unrelated":
			sc.Workload.Unrelated = &scenario.Unrelated{Lo: 0.25, Hi: 4, PInfeasible: 0.25, Penalty: 8}
		}
		res, err := scenario.Run(sc)
		if err != nil {
			return 0, err
		}
		return res.AvgFlow(), nil
	})
	if err != nil {
		return nil, err
	}
	for mi, model := range models {
		row := []interface{}{model}
		for ai := 0; ai < assigners; ai++ {
			row = append(row, vals[mi*assigners+ai])
		}
		tb.AddRow(row...)
	}
	// flow(m, a) is assigner a's average flow under machine model m.
	flow := func(m, a int) float64 { return vals[m*assigners+a] }
	const identical, related, unrelated = 0, 1, 2
	const leafBlind, leafAware, leastVol, roundRobin = 0, 1, 2, 3
	best := func(m int) float64 { return min(flow(m, 0), flow(m, 1), flow(m, 2), flow(m, 3)) }
	worstIdent := max(flow(identical, 0), flow(identical, 1), flow(identical, 2), flow(identical, 3)) / best(identical)
	relRatio := flow(related, leafAware) / flow(related, leafBlind)
	tb.AddNote("the ladder of generality the introduction motivates; greedy unrelated is the leaf-aware rule, Theorem 2's algorithm")
	out.claim(tb, worstIdent <= 1.15, "on identical machines every rule is within 15% of the best",
		"worst over best %.4g", worstIdent)
	out.claim(tb, relRatio >= 0.95 && relRatio <= 1.05, "finding: on related machines the leaf-aware greedy does not pull ahead; it stays within 5% of the leaf-blind greedy",
		"leaf-aware over leaf-blind %.4g", relRatio)
	out.claim(tb, flow(unrelated, leafAware) == best(unrelated), "on unrelated machines the leaf-aware greedy has the lowest average flow",
		"%.4g; least volume %.4g, round robin %.4g, leaf-blind greedy %.4g",
		flow(unrelated, leafAware), flow(unrelated, leastVol), flow(unrelated, roundRobin), flow(unrelated, leafBlind))
	out.add(tb)
	return out, nil
}
