package experiments

import (
	"treesched/internal/core"
	"treesched/internal/sched"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func init() {
	register(&Experiment{ID: "X3", Title: "Weighted flow time: WSJF vs SJF under job weights", Paper: "Related work / conclusion (weighted flow)", Run: runX3})
	register(&Experiment{ID: "X4", Title: "Line-network max flow time with speed augmentation", Paper: "Related work (Antoniadis et al., LATIN 2014)", Run: runX4})
}

// runX3 exercises the weighted flow-time extension: jobs carry
// integer weights and the objective becomes Σ w_j (C_j − r_j). WSJF
// (highest density first) should beat weight-blind SJF on the
// weighted objective while conceding a little on the unweighted one.
func runX3(cfg Config) (*Output, error) {
	out := &Output{}
	base := tree.FatTree(2, 2, 2)
	n := cfg.scaled(2500)
	tb := table.New("X3 — weighted flow time (weights 1..10, load 0.9)",
		"policy", "weighted flow", "unweighted flow")
	r := cfg.rng(1900)
	trace := poisson(r, n, classSizes(0.5), 0.9, float64(len(base.RootAdjacent())))
	workload.AssignWeights(r, trace, 10)
	policies := []sim.Policy{sim.WSJF{}, sim.SJF{}, sim.FIFO{}}
	rows, err := Sweep(cfg, len(policies), func(i int) ([2]float64, error) {
		// trace is shared read-only: Run copies job fields into its own
		// JobState and never writes back.
		res, err := sim.Run(base, trace, sched.LeastVolume{}, sim.Options{Policy: policies[i]})
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{res.Stats.WeightedFlow, res.Stats.TotalFlow}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pol := range policies {
		tb.AddRow(pol.Name(), rows[i][0], rows[i][1])
	}
	// Rows 0, 1 and 2 are WSJF, SJF and FIFO.
	tb.AddNote("the paper's machinery is unweighted; WSJF (highest density first) is the standard weighted generalization, the extension slot the model leaves open")
	out.claim(tb, rows[0][0] < min(rows[1][0], rows[2][0]), "WSJF has the lowest weighted flow",
		"WSJF %.4g; SJF %.4g, FIFO %.4g", rows[0][0], rows[1][0], rows[2][0])
	out.add(tb)
	return out, nil
}

// runX4 reproduces the shape of the related-work result on line
// networks (Antoniadis et al.): for MAX flow time on a line, FIFO
// with modest speed augmentation tames the objective, while SJF
// starves large jobs; total flow prefers SJF. This frames why the
// paper's conclusion poses max flow on trees as open.
func runX4(cfg Config) (*Output, error) {
	out := &Output{}
	line := tree.Line(4)
	n := cfg.scaled(1500)
	tb := table.New("X4 — line network, unit-ish packets: max vs total flow",
		"policy", "speed", "max flow", "total flow")
	x4policies := []sim.Policy{sim.FIFO{}, sim.SJF{}}
	x4speeds := []float64{1.0, 1.25}
	rows, err := Sweep(cfg, len(x4policies)*len(x4speeds), func(i int) ([2]float64, error) {
		pol, s := x4policies[i/len(x4speeds)], x4speeds[i%len(x4speeds)]
		t := line.WithUniformSpeed(s)
		trace := poisson(cfg.rng(2000), n, workload.UniformSize{Lo: 1, Hi: 2}, 0.95, 1)
		res, err := sim.Run(t, trace, core.NewGreedyIdentical(0.5), sim.Options{Policy: pol})
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{res.Stats.MaxFlow, res.Stats.TotalFlow}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range x4policies {
		for si, s := range x4speeds {
			r := rows[pi*len(x4speeds)+si]
			tb.AddRow(pol.Name(), s, r[0], r[1])
		}
	}
	// Policy 0 is FIFO and policy 1 SJF; compare them speed by speed.
	fifoMax, fifoTotal := true, true
	for si := range x4speeds {
		fifo, sjf := rows[si], rows[len(x4speeds)+si]
		fifoMax = fifoMax && fifo[0] < sjf[0]
		fifoTotal = fifoTotal && fifo[1] <= sjf[1]
	}
	tb.AddNote("near-unit packets on a line, the regime of the LATIN 2014 (1+eps)-speed O(1) max-flow result; max-flow on trees is posed as an open problem")
	out.claim(tb, fifoMax, "FIFO bounds the maximum flow: below SJF's at both speeds",
		"FIFO %.4g and %.4g; SJF %.4g and %.4g", rows[0][0], rows[1][0], rows[2][0], rows[3][0])
	out.claim(tb, fifoTotal, "finding: with near-unit sizes SJF does not win the total either; FIFO's total flow is at or below SJF's at both speeds",
		"FIFO %.4g and %.4g; SJF %.4g and %.4g", rows[0][1], rows[1][1], rows[2][1], rows[3][1])
	out.add(tb)
	return out, nil
}
