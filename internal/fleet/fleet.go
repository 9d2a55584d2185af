// Package fleet runs a fleet-of-trees co-simulation: N independently
// built tree instances behind a front door that routes one shared
// workload stream across them (scenario.FleetSpec is the data, this
// package is the interpreter).
//
// Determinism is layered so that every source of randomness is
// partitioned and every partition is consumed before anything runs in
// parallel:
//
//   - The front-door workload draws from the scenario partition's
//     "workload"/"sizes"/"weights" streams — fleets always run keyed
//     (there is no legacy fleet history to preserve), so the stream a
//     subsystem sees depends only on (Seed, stream name).
//   - Routing is a pure function of the arrival sequence: the router
//     tracks a fluid backlog estimate per tree (offered work draining
//     at the tree's root capacity) and never observes execution, so a
//     fault slowing one tree cannot bend the routing of another.
//   - Tree i's fault plan draws from the "tree/<i>/faults" stream.
//     Changing tree i's plan — or giving it a different one via
//     Options.TreeFaults — cannot move a sibling's draws, which is
//     what makes sibling per-job output byte-identical under per-tree
//     fault edits (pinned by TestFaultIsolation).
//   - Per-tree execution is deterministic given its inputs, so trees
//     run on any number of workers with results slotted by index:
//     Options.Workers is purely a speed knob (pinned by
//     TestWorkersInvariance).
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/scenario"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// UnsupportedError reports a scenario feature the fleet layer
// deliberately refuses to run — typed, like the engine's
// StuckError/InternalError family, so callers can branch on the
// rejection with errors.As instead of matching message strings.
type UnsupportedError struct {
	// Feature names the rejected capability (e.g. "packetized runs").
	Feature string
	// Reason says why the fleet cannot honor it.
	Reason string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("fleet: %s not supported: %s", e.Feature, e.Reason)
}

// Options tunes a fleet run beyond what the scenario describes.
type Options struct {
	// Workers is the number of trees simulated concurrently (0 or 1 =
	// sequential). Results are bit-identical at any setting.
	Workers int
	// TreeFaults overrides the scenario-level fault spec for specific
	// trees (index → spec, nil spec = no faults for that tree). Trees
	// not in the map keep the scenario's spec. Overriding one tree
	// never changes what its siblings draw or run.
	TreeFaults map[int]*scenario.FaultSpec
}

// TreeResult is one tree's slice of the fleet run.
type TreeResult struct {
	// Index is the tree's position in the fleet.
	Index int
	// Topology is the tree's topology spec.
	Topology scenario.Spec
	// GlobalIDs maps the tree's dense local job IDs back to front-door
	// IDs: local job j is front-door job GlobalIDs[j].
	GlobalIDs []int
	// FaultPlan is the tree's resolved fault plan (nil without faults).
	FaultPlan *faults.Plan
	// Result is the tree's simulation result (empty, with a nil Sim,
	// for a tree that was routed no jobs).
	Result *sim.Result
}

// WriteNDJSON writes the tree's per-job results in the engine's
// NDJSON form (stats header then one JobMetrics object per line).
// Job IDs are the tree's local dense IDs; use GlobalIDs to translate.
func (t *TreeResult) WriteNDJSON(w io.Writer) error { return t.Result.WriteNDJSON(w) }

// TreeCard is the serializable per-tree scorecard row.
type TreeCard struct {
	Tree         int     `json:"tree"`
	Topology     string  `json:"topology"`
	Jobs         int     `json:"jobs"`
	Work         float64 `json:"work"`
	TotalFlow    float64 `json:"total_flow"`
	WeightedFlow float64 `json:"weighted_flow"`
	MaxFlow      float64 `json:"max_flow"`
	Makespan     float64 `json:"makespan"`
	Faults       int     `json:"faults"`
}

// Scorecard is the fleet-level summary: per-tree rows plus fleet
// aggregates. It is pure data and marshals deterministically, so two
// runs with the same key produce byte-identical JSON
// (TestWorkersInvariance pins this across worker counts).
type Scorecard struct {
	Trees        int        `json:"trees"`
	Policy       string     `json:"policy"`
	Seed         uint64     `json:"seed"`
	Jobs         int        `json:"jobs"`
	TotalFlow    float64    `json:"total_flow"`
	WeightedFlow float64    `json:"weighted_flow"`
	MaxFlow      float64    `json:"max_flow"`
	Makespan     float64    `json:"makespan"`
	PerTree      []TreeCard `json:"per_tree"`
}

// WriteJSON writes the scorecard as indented JSON.
func (s *Scorecard) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Result is a completed fleet run.
type Result struct {
	Scenario  *scenario.Scenario
	Trees     []TreeResult
	Scorecard Scorecard
}

// Run executes a fleet scenario: build every tree, generate the
// front-door workload, route it, run each tree, and aggregate.
func Run(sc *scenario.Scenario, opts Options) (*Result, error) {
	fl := sc.Fleet
	if fl == nil {
		return nil, fmt.Errorf("fleet: scenario has no fleet spec (single-tree scenarios run through scenario.Build)")
	}
	if sc.RNG == "legacy" {
		return nil, &UnsupportedError{Feature: "rng legacy", Reason: "fleets require rng keyed (there is no legacy fleet draw order to preserve)"}
	}
	if sc.Engine.Packetized {
		return nil, &UnsupportedError{Feature: "packetized runs", Reason: "per-packet completions would need fleet-level job accounting the router does not model"}
	}
	if sc.Workload.Unrelated != nil || len(sc.Workload.RelatedSpeeds) > 0 {
		return nil, &UnsupportedError{Feature: "per-leaf workloads (unrelated/related)", Reason: "trees may have different leaf counts"}
	}
	if len(sc.Workload.Jobs) > 0 && sc.Workload.MaxWeight > 0 {
		return nil, &UnsupportedError{Feature: "inline jobs with max_weight", Reason: "weight assignment would redraw the inline jobs"}
	}
	n, err := fl.NumTrees()
	if err != nil {
		return nil, err
	}
	pol, err := fl.EffPolicy()
	if err != nil {
		return nil, err
	}

	// Resolve and build every topology up front: routing needs the
	// root capacities before a single job is drawn.
	topos := make([]scenario.Spec, n)
	bases := make([]*tree.Tree, n)
	caps := make([]float64, n)
	capSum := 0.0
	for i := range topos {
		if len(fl.Topos) > 0 {
			topos[i] = fl.Topos[i]
		} else {
			if sc.Topology.Name == "" {
				return nil, fmt.Errorf("fleet: no topology: set the scenario topology or fleet.topos")
			}
			topos[i] = sc.Topology
		}
		if bases[i], err = scenario.BuildTopo(topos[i]); err != nil {
			return nil, fmt.Errorf("fleet: tree %d: %w", i, err)
		}
		caps[i] = float64(len(bases[i].RootAdjacent()))
		capSum += caps[i]
	}

	// Front-door workload: one keyed partition per run, seeded by the
	// scenario. The default capacity the load is calibrated against is
	// the whole fleet's root capacity.
	p := rng.NewPartitioned(rng.SimulationKey(sc.Seed))
	w := sc.Workload
	if w.Capacity == 0 {
		w.Capacity = capSum
	}
	trace, err := w.GenerateRNG(p)
	if err != nil {
		return nil, fmt.Errorf("fleet: workload: %w", err)
	}
	span := trace.Span()

	// Route. Each tree's slice keeps front-door release times and gets
	// fresh dense local IDs (the engine requires ID == position).
	ro := newRouter(pol, caps)
	perTree := make([][]workload.Job, n)
	globals := make([][]int, n)
	for _, j := range trace.Jobs {
		k := ro.route(j)
		local := j
		local.ID = len(perTree[k])
		perTree[k] = append(perTree[k], local)
		globals[k] = append(globals[k], j.ID)
	}

	// Per-tree fault plans, drawn sequentially in tree order from
	// tree-scoped streams so plans are independent of each other and
	// of routing. The span offered to plan generators is the fleet
	// span: a tree's fault window must not depend on which jobs
	// happened to be routed to it.
	res := &Result{Scenario: sc, Trees: make([]TreeResult, n)}
	children := make([]*scenario.Scenario, n)
	for i := 0; i < n; i++ {
		fs := sc.Faults
		if over, ok := opts.TreeFaults[i]; ok {
			fs = over
		}
		var childFaults *scenario.FaultSpec
		var treePlan *faults.Plan
		if fs != nil {
			stream := p.Scoped(fmt.Sprintf("tree/%d", i)).Stream("faults")
			treePlan, err = resolveFaults(fs, stream, bases[i], span)
			if err != nil {
				return nil, fmt.Errorf("fleet: tree %d: %w", i, err)
			}
			childFaults = &scenario.FaultSpec{Events: treePlan.Events, Recovery: fs.Recovery}
		}
		children[i] = &scenario.Scenario{
			Topology: topos[i],
			Workload: scenario.Workload{Jobs: perTree[i]},
			Policy:   sc.Policy,
			Assigner: sc.Assigner,
			Eps:      sc.Eps,
			Seed:     sc.Seed,
			RNG:      "keyed",
			// Offset per tree so randomized assigners do not mirror
			// each other's choices across the fleet.
			AssignerSeed: sc.EffAssignerSeed() + uint64(i),
			Speed:        sc.Speed,
			Faults:       childFaults,
			Engine: scenario.Engine{
				Instrument:   sc.Engine.Instrument,
				ScanQueue:    sc.Engine.ScanQueue,
				RecordSlices: sc.Engine.RecordSlices,
				RetainJobs:   sc.Engine.RetainJobs,
			},
		}
		res.Trees[i] = TreeResult{Index: i, Topology: topos[i], GlobalIDs: globals[i], FaultPlan: treePlan}
	}

	// Run the trees. All randomness is already drawn; each tree is
	// deterministic in isolation, results land in their own slot, so
	// the worker count cannot change a byte of output.
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	idx := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = runTree(children[i], &res.Trees[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("fleet: tree %d: %w", i, e)
		}
	}

	res.Scorecard = scorecard(sc, pol, res.Trees)
	return res, nil
}

// runTree executes one tree's child scenario into its result slot.
// A tree that was routed no jobs gets an empty result without
// touching the engine (the scenario layer cannot express an empty
// generated trace).
func runTree(child *scenario.Scenario, out *TreeResult) error {
	if len(child.Workload.Jobs) == 0 {
		out.Result = &sim.Result{}
		return nil
	}
	in, err := child.Build()
	if err != nil {
		return err
	}
	out.Result, err = in.Run()
	return err
}

// scorecard aggregates per-tree results in index order (fixed
// summation order keeps the floats identical across worker counts).
func scorecard(sc *scenario.Scenario, pol string, trees []TreeResult) Scorecard {
	card := Scorecard{Trees: len(trees), Policy: pol, Seed: sc.Seed}
	for i := range trees {
		t := &trees[i]
		row := TreeCard{
			Tree:         i,
			Topology:     t.Topology.String(),
			Jobs:         len(t.GlobalIDs),
			TotalFlow:    t.Result.Stats.TotalFlow,
			WeightedFlow: t.Result.Stats.WeightedFlow,
			MaxFlow:      t.Result.Stats.MaxFlow,
			Makespan:     t.Result.Stats.Makespan,
		}
		if t.FaultPlan != nil {
			row.Faults = len(t.FaultPlan.Events)
		}
		for _, j := range t.Result.Jobs {
			row.Work += j.PathWork
		}
		card.Jobs += row.Jobs
		card.TotalFlow += row.TotalFlow
		card.WeightedFlow += row.WeightedFlow
		if row.MaxFlow > card.MaxFlow {
			card.MaxFlow = row.MaxFlow
		}
		if row.Makespan > card.Makespan {
			card.Makespan = row.Makespan
		}
		card.PerTree = append(card.PerTree, row)
	}
	return card
}
