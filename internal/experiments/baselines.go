package experiments

import (
	"fmt"

	"treesched/internal/core"
	"treesched/internal/plot"
	"treesched/internal/scenario"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func init() {
	register(&Experiment{ID: "B1", Title: "Leaf-assignment policy comparison across loads", Paper: "Introduction / Section 3.1 motivation", Run: runB1})
	register(&Experiment{ID: "B2", Title: "Node scheduling policy comparison (SJF vs FIFO/SRPT/LCFS)", Paper: "SJF choice (Section 2)", Run: runB2})
	register(&Experiment{ID: "B3", Title: "Resource augmentation sweep", Paper: "Theorems 1-2 (speed requirement)", Run: runB3})
	register(&Experiment{ID: "B4", Title: "Warm engine reuse (cold vs warm replay)", Paper: "(engineering)", Run: runB4})
	register(&Experiment{ID: "B5", Title: "Greedy assignment term ablation", Paper: "Section 3.4 assignment rule", Run: runB5})
	register(&Experiment{ID: "B6", Title: "Store-and-forward vs packetized forwarding", Paper: "Section 2 remark", Run: runB6})
	register(&Experiment{ID: "B7", Title: "Shadow-on-broomstick vs greedy directly on T", Paper: "Section 3.7", Run: runB7})
	register(&Experiment{ID: "B8", Title: "Queue implementation ablation (heap vs scan)", Paper: "(engineering)", Run: runB8})
}

// runB1 is the headline baseline study: congestion-aware assignment
// (the paper's greedy) against proximity, random, round-robin and
// volume-based baselines, across load levels and an adversarial trace.
func runB1(cfg Config) (*Output, error) {
	out := &Output{}
	n := cfg.scaled(2500)
	// Registry names; each cell builds its own assigner through the
	// scenario layer so stateful baselines (round robin, random) start
	// fresh, exactly as the serial loop did. The randomized baseline
	// keeps its historical rng seed via AssignerSeed.
	assignerNames := []string{"greedy-identical", "closest", "random", "roundrobin", "leastvolume", "minpath", "jsq"}
	tb := table.New("B1 — avg flow time by assigner and load (identical endpoints, SJF nodes)",
		"assigner", "load 0.5", "load 0.8", "load 0.95", "adversarial")
	loads := []float64{0.5, 0.8, 0.95}
	cols := len(loads) + 1 // the last column is the adversarial trace
	type cell struct {
		label string
		flow  float64
	}
	vals, err := Sweep(cfg, len(assignerNames)*cols, func(i int) (cell, error) {
		ai, ci := i/cols, i%cols
		sc := &scenario.Scenario{
			Topology:     scenario.NewSpec("fattree", 2, 2, 2),
			Assigner:     assignerNames[ai],
			AssignerSeed: cfg.Seed + 99,
		}
		if ci < len(loads) {
			sc.Workload = scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: loads[ci]}
			sc.Seed = cfg.seed(800 + uint64(loads[ci]*100))
		} else {
			sc.Workload = scenario.Workload{Process: scenario.NewSpec("adversarial", 32), N: cfg.scaled(600)}
			sc.Seed = cfg.seed(870)
		}
		in, err := sc.Build()
		if err != nil {
			return cell{}, err
		}
		res, err := in.Run()
		if err != nil {
			return cell{}, err
		}
		return cell{in.Assigner.Name(), res.AvgFlow()}, nil
	})
	if err != nil {
		return nil, err
	}
	for ai := range assignerNames {
		v := vals[ai*cols : (ai+1)*cols]
		tb.AddRow(v[0].label, v[0].flow, v[1].flow, v[2].flow, v[3].flow)
	}
	tb.AddNote("ClosestLeaf funnels every job into one branch (all leaves tie on depth, ties break by ID) — the failure mode Section 3.1 warns about; congestion-aware rules stay flat as load rises")
	out.add(tb)
	return out, nil
}

// runB2 compares node policies under a fixed assigner on a
// heavy-tailed workload, where size-aware policies matter most.
func runB2(cfg Config) (*Output, error) {
	out := &Output{}
	n := cfg.scaled(2500)
	tb := table.New("B2 — node policy comparison (LeastVolume assigner, Pareto sizes, load 0.9)",
		"policy", "avg flow", "p99 flow", "max flow")
	for _, pol := range []string{"sjf", "srpt", "fifo", "lcfs", "ps"} {
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("pareto", 1, 1.5, 200), Load: 0.9},
			Policy:   pol,
			Assigner: "leastvolume",
			Seed:     cfg.seed(900),
		}
		in, err := sc.Build()
		if err != nil {
			return nil, err
		}
		res, err := in.Run()
		if err != nil {
			return nil, err
		}
		tb.AddRow(in.Opts.Policy.Name(), res.AvgFlow(), quantileFlow(res, 0.99), res.Stats.MaxFlow)
	}
	tb.AddNote("SJF/SRPT dominate on average flow, exactly why the paper builds on SJF; FIFO trades average for tail; PS (fair-queueing routers, the deployed default) sits in between — the cost of not using size information")
	out.add(tb)
	return out, nil
}

func quantileFlow(res *sim.Result, q float64) float64 {
	flows := make([]float64, len(res.Jobs))
	for i := range res.Jobs {
		flows[i] = res.Jobs[i].Flow
	}
	// inline to avoid a metrics import cycle risk; small helper
	return quantile(flows, q)
}

func quantile(data []float64, q float64) float64 {
	cp := append([]float64(nil), data...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp) == 0 {
		return 0
	}
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}

// runB3 sweeps node speed: how much augmentation the greedy algorithm
// needs before its flow approaches the lower bound.
func runB3(cfg Config) (*Output, error) {
	out := &Output{}
	n := cfg.scaled(2000)
	tb := table.New("B3 — total flow vs uniform node speed (load 0.95 at speed 1)",
		"speed", "identical avg flow", "unrelated avg flow")
	var xs, yi, yu []float64
	speeds := []float64{1.0, 1.1, 1.25, 1.5, 2.0, 2.5, 3.0}
	flows, err := Sweep(cfg, len(speeds), func(i int) ([2]float64, error) {
		scI := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.95},
			Assigner: "greedy-identical",
			Seed:     cfg.seed(1000),
			Speed:    scenario.Speed{Uniform: speeds[i]},
		}
		res, err := scenario.Run(scI)
		if err != nil {
			return [2]float64{}, err
		}
		scU := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{
				N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.95,
				Unrelated: &scenario.Unrelated{Lo: 0.5, Hi: 2},
			},
			Assigner: "greedy-unrelated",
			Seed:     cfg.seed(1001),
			Speed:    scenario.Speed{Uniform: speeds[i]},
		}
		resU, err := scenario.Run(scU)
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{res.AvgFlow(), resU.AvgFlow()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range speeds {
		tb.AddRow(s, flows[i][0], flows[i][1])
		xs = append(xs, s)
		yi = append(yi, flows[i][0])
		yu = append(yu, flows[i][1])
	}
	tb.AddNote("the identical curve flattens quickly past (1+eps); the unrelated curve needs roughly twice the speed before flattening — the Theorem 1 vs Theorem 2 gap")
	out.add(tb)
	chart := &plot.Chart{
		Title:  "avg flow vs node speed (log scale)",
		XLabel: "uniform node speed",
		YLabel: "avg flow",
		LogY:   true,
		Series: []plot.Series{
			{Name: "identical", X: xs, Y: yi},
			{Name: "unrelated", X: xs, Y: yu},
		},
	}
	out.addText("B3 curve", chart.Render())
	return out, nil
}

// runB4 replays each trace cold (fresh engine) and warm (the same
// engine recycled through Sim.Reset, the steady-state path a parameter
// sweep or service uses) and requires identical events and statistics.
// The suite reports no wall time, so its output is byte-reproducible;
// the engine's speed is measured by BenchmarkB4EngineThroughput and the
// benchmark/ workloads.
func runB4(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("B4 — cold vs warm replay (Sim.Reset)", "jobs", "tree nodes", "events", "total flow")
	for _, sz := range []struct{ n, arity, depth, lpr int }{
		{cfg.scaled(5000), 2, 2, 2},
		{cfg.scaled(20000), 2, 3, 2},
		{cfg.scaled(20000), 3, 3, 3},
	} {
		t := tree.FatTree(sz.arity, sz.depth, sz.lpr)
		trace := poisson(cfg.rng(1100), sz.n, classSizes(0.5), 0.9, float64(len(t.RootAdjacent())))

		s := sim.New(t, sim.Options{})
		res, err := sim.RunOn(s, trace, core.NewGreedyIdentical(0.5))
		if err != nil {
			return nil, err
		}
		s.Reset(sim.Options{})
		warm, err := sim.RunOn(s, trace, core.NewGreedyIdentical(0.5))
		if err != nil {
			return nil, err
		}
		if warm.Stats != res.Stats {
			return nil, fmt.Errorf("B4: warm Reset replay diverged from cold run")
		}
		tb.AddRow(sz.n, t.NumNodes(), res.Stats.Events, res.Stats.TotalFlow)
	}
	tb.AddNote("each row replays the trace on a fresh engine and again on the same engine after Sim.Reset; identical event counts and flow statistics are asserted")
	out.add(tb)
	return out, nil
}

// runB5 ablates the two terms of the greedy assignment objective.
// The topology must make both terms matter *across branches* (within
// one branch F(j,v) is constant, so a single-branch tree makes the
// ablation vacuous): branch A offers two cheap depth-2 machines
// behind one contested link, branch B offers six roomy machines at
// depth 5. Volume-blind assignment congests branch A; distance-blind
// assignment overpays branch B's long path.
func runB5(cfg Config) (*Output, error) {
	out := &Output{}
	b := tree.NewBuilder()
	a0 := b.AddRouter(b.Root())
	b.AddLeaf(a0)
	b.AddLeaf(a0)
	w := b.AddRouter(b.Root())
	for i := 0; i < 3; i++ {
		w = b.AddRouter(w)
	}
	for i := 0; i < 6; i++ {
		b.AddLeaf(w)
	}
	base := b.MustFinalize()
	n := cfg.scaled(2000)
	tb := table.New("B5 — greedy term ablation (shallow contested branch vs deep roomy branch)",
		"variant", "load 0.7 avg flow", "load 1.0 avg flow")
	variants := []struct {
		name       string
		dropDist   bool
		dropVolume bool
		weight     float64
	}{
		{"full greedy (weight 6/eps^2 = 24)", false, false, 0},
		{"distance weight 1 (plain P_{j,v})", false, false, 1},
		{"no distance term", true, false, 0},
		{"no volume term (distance only)", false, true, 0},
	}
	loads := []float64{0.7, 1.0}
	vals, err := Sweep(cfg, len(variants)*len(loads), func(i int) (float64, error) {
		v, load := variants[i/len(loads)], loads[i%len(loads)]
		g := core.NewGreedyIdentical(0.5)
		g.Cfg.DropDistanceTerm = v.dropDist
		g.Cfg.DropVolumeTerm = v.dropVolume
		g.Cfg.DistanceWeight = v.weight
		trace := poisson(cfg.rng(1200+uint64(load*10)), n, classSizes(0.5), load, float64(len(base.RootAdjacent())))
		res, err := sim.Run(base, trace, g, sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.AvgFlow(), nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		tb.AddRow(v.name, vals[vi*len(loads)], vals[vi*len(loads)+1])
	}
	tb.AddNote("REPRODUCTION FINDING: the volume term is load-bearing (dropping it is catastrophic), but the paper's 6/eps^2 distance coefficient — an artifact of the analysis — overweights proximity in practice: weight 1 (plain path work) beats the full constant, and even dropping the distance term entirely wins at moderate load")
	out.add(tb)
	return out, nil
}

// runB6 quantifies the store-and-forward penalty against the
// packetized relaxation the paper sketches in Section 2.
func runB6(cfg Config) (*Output, error) {
	out := &Output{}
	n := cfg.scaled(400)
	tb := table.New("B6 — store-and-forward vs packetized forwarding",
		"topology", "store-and-forward avg flow", "packetized avg flow", "ratio")
	for _, tc := range []struct {
		name string
		t    *tree.Tree
	}{
		{"line(4)", tree.Line(4)},
		{"fat tree 2x2x2", tree.FatTree(2, 2, 2)},
	} {
		trace := poisson(cfg.rng(1300), n, workload.UniformSize{Lo: 2, Hi: 10}, 0.7, float64(len(tc.t.RootAdjacent())))
		sf, err := sim.Run(tc.t, trace, core.NewGreedyIdentical(0.5), sim.Options{})
		if err != nil {
			return nil, err
		}
		pk, err := sim.RunPacketized(tc.t, trace, core.NewGreedyIdentical(0.5), sim.Options{})
		if err != nil {
			return nil, err
		}
		tb.AddRow(tc.name, sf.AvgFlow(), pk.AvgFlow(), sf.AvgFlow()/pk.AvgFlow())
	}
	tb.AddNote("packetized pipelining removes the per-hop serialization; the gap grows with path depth, matching the paper's remark that splitting jobs negates interior congestion")
	out.add(tb)
	return out, nil
}

// runB7 asks whether the broomstick simulation costs anything in
// practice versus running the greedy rule directly on T.
func runB7(cfg Config) (*Output, error) {
	out := &Output{}
	n := cfg.scaled(800)
	tb := table.New("B7 — shadow-on-broomstick vs direct greedy on T",
		"setting", "instance", "direct avg flow", "shadow avg flow", "shadow/direct")
	for _, unrel := range []bool{false, true} {
		setting := "identical"
		if unrel {
			setting = "unrelated"
		}
		for k := 0; k < 4; k++ {
			r := cfg.rng(1400 + uint64(k) + 40*boolU(unrel))
			base := tree.Random(r, tree.RandomConfig{Branches: 2, MaxDepth: 4, MaxChildren: 2, LeafProb: 0.45})
			trace := poisson(r, n, classSizes(0.5), 0.85, float64(len(base.RootAdjacent())))
			var direct, shadow *sim.Result
			var err error
			if unrel {
				if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(base.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
					return nil, err
				}
				direct, err = sim.Run(base, trace, core.NewGreedyUnrelated(0.5), sim.Options{})
			} else {
				direct, err = sim.Run(base, trace, core.NewGreedyIdentical(0.5), sim.Options{})
			}
			if err != nil {
				return nil, err
			}
			sh, err := core.NewShadow(base, core.ShadowConfig{Eps: 0.5, Unrelated: unrel})
			if err != nil {
				return nil, err
			}
			shadow, err = sim.Run(base, trace, sh, sim.Options{})
			if err != nil {
				return nil, err
			}
			tb.AddRow(setting, k, direct.AvgFlow(), shadow.AvgFlow(), shadow.AvgFlow()/direct.AvgFlow())
		}
	}
	tb.AddNote("identical setting: the ratio is exactly 1 — the reduction adds a constant 2 to every leaf depth and leaves F per branch unchanged, so the broomstick argmin coincides with the direct argmin decision-for-decision. Unrelated setting: leaf queues evolve differently on T', so decisions (and flows) can diverge.")
	out.add(tb)
	return out, nil
}

// runB8 compares the two node-queue implementations.
func runB8(cfg Config) (*Output, error) {
	out := &Output{}
	t := tree.FatTree(2, 2, 2)
	n := cfg.scaled(15000)
	trace := poisson(cfg.rng(1500), n, classSizes(0.5), 1.05, float64(len(t.RootAdjacent())))
	tb := table.New("B8 — queue implementation ablation (overloaded, long queues)",
		"queue", "total flow")
	var flows []float64
	for _, scan := range []bool{false, true} {
		res, err := sim.Run(t, trace, core.NewGreedyIdentical(0.5), sim.Options{UseScanQueue: scan})
		if err != nil {
			return nil, err
		}
		name := "binary heap"
		if scan {
			name = "linear scan"
		}
		tb.AddRow(name, res.Stats.TotalFlow)
		flows = append(flows, res.Stats.TotalFlow)
	}
	tb.AddNote("both implementations must produce identical schedules; the flow columns agree to float precision")
	if len(flows) == 2 && (flows[0]-flows[1] > 1e-3 || flows[1]-flows[0] > 1e-3) {
		tb.AddNote("WARNING: queue implementations diverged!")
	}
	out.add(tb)
	return out, nil
}
