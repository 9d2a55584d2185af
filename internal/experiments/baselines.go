package experiments

import (
	"math"
	"sort"

	"treesched/internal/core"
	"treesched/internal/metrics"
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
	// Rows 0 and 1 are the greedy rule and ClosestLeaf.
	collapse := math.Inf(1)
	for ci := 0; ci < cols; ci++ {
		collapse = min(collapse, vals[cols+ci].flow/vals[ci].flow)
	}
	tb.AddNote("ClosestLeaf funnels every job into one branch (all leaves tie on depth, ties break by ID) — the failure mode Section 3.1 warns about")
	out.claim(tb, collapse >= 2, "ClosestLeaf's average flow is at least twice the greedy rule's at every load and on the adversarial trace",
		"smallest ClosestLeaf/greedy %.4g", collapse)
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
	policies := []string{"sjf", "srpt", "fifo", "lcfs", "ps"}
	avg := make([]float64, len(policies))
	maxFlow := make([]float64, len(policies))
	for i, pol := range policies {
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
		avg[i], maxFlow[i] = res.AvgFlow(), res.Stats.MaxFlow
		tb.AddRow(in.Opts.Policy.Name(), avg[i], quantileFlow(res, 0.99), maxFlow[i])
	}
	const sjf, srpt, fifo, lcfs, ps = 0, 1, 2, 3, 4
	sizeAware := max(avg[sjf], avg[srpt])
	tb.AddNote("SJF's average is why the paper builds on it; PS models fair-queueing routers, the deployed default, and its gap to SJF is the cost of not using size information")
	out.claim(tb, sizeAware < min(avg[fifo], avg[lcfs], avg[ps]), "SJF and SRPT have the lowest average flow",
		"SJF %.4g, SRPT %.4g; FIFO %.4g, LCFS %.4g, PS %.4g", avg[sjf], avg[srpt], avg[fifo], avg[lcfs], avg[ps])
	out.claim(tb, maxFlow[fifo] < min(maxFlow[sjf], maxFlow[srpt], maxFlow[lcfs], maxFlow[ps]), "FIFO trades average for tail: it has the lowest max flow",
		"FIFO %.4g; next %.4g", maxFlow[fifo], min(maxFlow[sjf], maxFlow[srpt], maxFlow[lcfs], maxFlow[ps]))
	out.claim(tb, sizeAware < avg[ps] && avg[ps] < avg[fifo], "PS's average flow lies between SJF/SRPT's and FIFO's",
		"%.4g < %.4g < %.4g", sizeAware, avg[ps], avg[fifo])
	out.add(tb)
	return out, nil
}

// quantileFlow is the flow at rank q*(n-1) of the sorted flows, with
// no interpolation.
func quantileFlow(res *sim.Result, q float64) float64 {
	flows := metrics.Flows(res)
	sort.Float64s(flows)
	return flows[int(q*float64(len(flows)-1))]
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
	// Different speeds shift assignment decisions, so a step up of
	// at most 2% still counts as flat.
	riseI, riseU, above := 0.0, 0.0, 0.0
	for i := 1; i < len(speeds); i++ {
		riseI, riseU = max(riseI, yi[i]/yi[i-1]-1), max(riseU, yu[i]/yu[i-1]-1)
		if speeds[i] >= 1.5 {
			above = max(above, yu[i]/yi[i])
		}
	}
	tb.AddNote("Theorem 1 asks for speed 1+eps and Theorem 2 for 2+eps; the unrelated curve does not show that gap (DESIGN §7)")
	out.claim(tb, riseI <= 0.02 && riseU <= 0.02, "average flow does not rise with speed, within 2%, on both curves",
		"largest step up %.2g%% identical, %.2g%% unrelated", 100*riseI, 100*riseU)
	out.claim(tb, above <= 1, "finding: from speed 1.5 up the unrelated curve sits at or below the identical one",
		"largest unrelated/identical %.4g", above)
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
	same := 0
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
		if warm.Stats == res.Stats {
			same++
		}
		tb.AddRow(sz.n, t.NumNodes(), res.Stats.Events, res.Stats.TotalFlow)
	}
	tb.AddNote("each row replays the trace on a fresh engine and again on the same engine after Sim.Reset")
	out.claim(tb, same == len(tb.Rows), "the warm replay reproduces the cold run's events and statistics in every row",
		"%d of %d rows identical", same, len(tb.Rows))
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
	// flow(v, l) is variant v's average flow at load index l.
	flow := func(v, l int) float64 { return vals[v*len(loads)+l] }
	const full, weight1, noDist, noVol = 0, 1, 2, 3
	tb.AddNote("REPRODUCTION FINDING (DESIGN §7): the paper's 6/eps^2 distance coefficient, an artifact of the analysis, overweights proximity in practice")
	out.claim(tb, flow(noVol, 0) >= 2*flow(full, 0) && flow(noVol, 1) >= 2*flow(full, 1), "the volume term is load-bearing: dropping it at least doubles the full greedy's average flow, at both loads",
		"%.4gx at load 0.7, %.4gx at load 1.0", flow(noVol, 0)/flow(full, 0), flow(noVol, 1)/flow(full, 1))
	out.claim(tb, flow(weight1, 0) < flow(full, 0) && flow(weight1, 1) < flow(full, 1), "distance weight 1 (plain path work) beats the full 6/eps^2 constant, at both loads",
		"%.4g against %.4g at load 0.7, %.4g against %.4g at load 1.0", flow(weight1, 0), flow(full, 0), flow(weight1, 1), flow(full, 1))
	out.claim(tb, flow(noDist, 0) < min(flow(full, 0), flow(weight1, 0), flow(noVol, 0)), "dropping the distance term entirely wins at moderate load, 0.7",
		"%.4g; next %.4g", flow(noDist, 0), min(flow(full, 0), flow(weight1, 0), flow(noVol, 0)))
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
	var ratio [2]float64
	var depth [2]int
	for i, tc := range []struct {
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
		ratio[i], depth[i] = sf.AvgFlow()/pk.AvgFlow(), tc.t.Depth(tc.t.Leaves()[0])
		tb.AddRow(tc.name, sf.AvgFlow(), pk.AvgFlow(), ratio[i])
	}
	tb.AddNote("packetized pipelining removes the per-hop serialization, the paper's remark that splitting jobs negates interior congestion")
	out.claim(tb, min(ratio[0], ratio[1]) >= 1-1e-9, "packetized forwarding is never slower than store-and-forward",
		"smallest ratio %.4g", min(ratio[0], ratio[1]))
	out.claim(tb, ratio[0] > ratio[1], "the gap grows with path depth",
		"%.4g at leaf depth %d, %.4g at leaf depth %d", ratio[0], depth[0], ratio[1], depth[1])
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
	var exact [2]int // instances whose ratio is exactly 1, by setting
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
			if shadow.AvgFlow() == direct.AvgFlow() {
				exact[boolU(unrel)]++
			}
		}
	}
	tb.AddNote("the reduction adds a constant 2 to every leaf depth and leaves F per branch unchanged, so in the identical setting the broomstick argmin coincides with the direct argmin decision for decision; with unrelated endpoints leaf queues evolve differently on T'")
	out.claim(tb, exact[0] == 4, "identical setting: shadow/direct is exactly 1 on every instance",
		"%d of 4 instances", exact[0])
	out.claim(tb, exact[1] < 4, "unrelated setting: decisions, and flows, diverge",
		"%d of 4 instances off 1", 4-exact[1])
	out.add(tb)
	return out, nil
}
