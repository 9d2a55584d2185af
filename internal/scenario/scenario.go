package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/workload"
)

// Unrelated configures the per-leaf size transform applied after
// generation (workload.MakeUnrelated). Leaves is normally 0 and
// derived from the scenario's topology; trace-only callers (tracegen)
// set it explicitly.
type Unrelated struct {
	Lo          float64 `json:"lo"`
	Hi          float64 `json:"hi"`
	PInfeasible float64 `json:"p_infeasible,omitempty"`
	Penalty     float64 `json:"penalty,omitempty"`
	Leaves      int     `json:"leaves,omitempty"`
}

// Workload describes how a trace is produced. Exactly one rng stream
// (seeded by the owning Scenario) drives generation, in a fixed
// order: arrival process first, then related speeds, then the
// unrelated transform, then class rounding, then weights — the same
// order every hand-wired construction in this repo used, so a
// Workload with the same seed reproduces those traces bit for bit.
type Workload struct {
	// Process names the arrival process ("poisson" when empty;
	// "bursty:len", "adversarial:bigsize").
	Process Spec `json:"process,omitempty"`
	// N is the job count.
	N int `json:"n"`
	// Size names the size law (ignored by adversarial).
	Size Spec `json:"size,omitempty"`
	// ClassEps > 0 wraps Size in workload.ClassRounded (sizes drawn
	// pre-rounded to powers of 1+eps).
	ClassEps float64 `json:"class_eps,omitempty"`
	// Load is the offered load against Capacity.
	Load float64 `json:"load,omitempty"`
	// Capacity the load is calibrated against; 0 means "derive from
	// the topology's root-adjacent degree" (trace-only callers get 1).
	Capacity float64 `json:"capacity,omitempty"`
	// RelatedSpeeds, when set, applies workload.MakeRelated with these
	// per-leaf speeds.
	RelatedSpeeds []float64 `json:"related_speeds,omitempty"`
	// Unrelated, when set, applies workload.MakeUnrelated.
	Unrelated *Unrelated `json:"unrelated,omitempty"`
	// RoundEps > 0 rounds all sizes (including per-leaf ones) to
	// powers of 1+eps after the transforms above.
	RoundEps float64 `json:"round_eps,omitempty"`
	// MaxWeight > 0 draws integer job weights in [1, MaxWeight].
	MaxWeight int `json:"max_weight,omitempty"`
	// Jobs, when non-empty, bypasses generation entirely: the trace is
	// exactly these jobs, shared rather than copied, so they must not
	// change while a trace built from them is in use (JSON form only;
	// the compact form cannot express inline jobs).
	Jobs []workload.Job `json:"jobs,omitempty"`
}

// Generate produces the trace under the legacy single-stream
// discipline seeded by seed. Leaves-dependent transforms require
// Unrelated.Leaves / len(RelatedSpeeds) to be resolved; Scenario.Build
// fills them from the topology before calling GenerateRNG.
func (w *Workload) Generate(seed uint64) (*workload.Trace, error) {
	return w.GenerateRNG(rng.NewLegacy(seed))
}

// GenerateRNG produces the trace drawing from a partitioned rng: the
// arrival process draws from the "workload" stream, size samples and
// the unrelated transform from "sizes", weight assignment from
// "weights". With a keyed partition the subsystems are isolated —
// changing the size law cannot move an arrival, adding weights cannot
// move a size. With a legacy partition every stream name aliases the
// one shared generator, so the draws interleave in exactly the
// historical single-stream order and pre-refactor traces reproduce
// bit for bit (pinned by TestLegacyDrawOrder and the equivalence
// suites).
//
// The trace is the arrival source SourceRNG streams (the process with
// related speeds applied per job), collected, followed by the
// whole-trace passes in order: the unrelated transform, class
// rounding, weights. Inline Jobs are validated and returned as the
// trace itself, not a copy: no pass applies to them, and no reader
// of a built trace writes to it.
func (w *Workload) GenerateRNG(p *rng.PartitionedRNG) (*workload.Trace, error) {
	if len(w.Jobs) > 0 {
		tr := &workload.Trace{Jobs: w.Jobs}
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		return tr, nil
	}
	src, err := w.processSource(p)
	if err != nil {
		return nil, err
	}
	tr, err := workload.Collect(src)
	if err != nil {
		return nil, err
	}
	if u := w.Unrelated; u != nil {
		if u.Leaves <= 0 {
			return nil, fmt.Errorf("unrelated transform needs a leaf count (no topology to derive it from)")
		}
		if err := workload.MakeUnrelated(p.Stream("sizes"), tr, workload.UnrelatedConfig{
			Leaves: u.Leaves, Lo: u.Lo, Hi: u.Hi, PInfeasible: u.PInfeasible, Penalty: u.Penalty,
		}); err != nil {
			return nil, err
		}
	}
	if w.RoundEps > 0 {
		workload.RoundTraceToClasses(tr, w.RoundEps)
	}
	if w.MaxWeight > 0 {
		workload.AssignWeights(p.Stream("weights"), tr, w.MaxWeight)
	}
	return tr, nil
}

// Heterogeneous reports whether the workload carries per-leaf sizes
// (unrelated or related machines) — what the old cli -unrelated flag
// signaled. The auto "greedy" assigner and the lemma checkers key off
// it.
func (w *Workload) Heterogeneous() bool { return w.unrelated() }

// unrelated reports whether the workload carries per-leaf sizes —
// the signal the auto "greedy" assigner and the shadow rule key off,
// exactly as the old cli -unrelated flag did.
func (w *Workload) unrelated() bool {
	if w.Unrelated != nil || len(w.RelatedSpeeds) > 0 {
		return true
	}
	for i := range w.Jobs {
		if w.Jobs[i].LeafSizes != nil {
			return true
		}
	}
	return false
}

// Speed selects the tree speed profile. Zero value = speed 1
// everywhere. Uniform and the per-level triple are mutually
// exclusive.
type Speed struct {
	// Uniform applies tree.WithUniformSpeed.
	Uniform float64 `json:"uniform,omitempty"`
	// RootAdjacent/Router/Leaf apply tree.WithSpeeds (all three must
	// be set together).
	RootAdjacent float64 `json:"root_adjacent,omitempty"`
	Router       float64 `json:"router,omitempty"`
	Leaf         float64 `json:"leaf,omitempty"`
}

func (s Speed) zero() bool { return s == Speed{} }

// FaultSpec describes deterministic fault injection. Plan names a
// registered fault-plan generator whose events are drawn from the
// scenario's rng stream (after workload generation); Events lists the
// faults explicitly instead (JSON only, like inline Jobs). The two are
// mutually exclusive.
type FaultSpec struct {
	// Plan is the registered generator spec ("outages:3,10").
	Plan Spec `json:"plan,omitempty"`
	// Events is the explicit fault list (JSON form only).
	Events []faults.Event `json:"events,omitempty"`
	// Recovery selects the permanent-leaf-loss policy: "hold" (default)
	// or "redispatch".
	Recovery string `json:"recovery,omitempty"`
}

// FleetSpec asks for a fleet-of-trees co-simulation: N independently
// seeded tree instances behind a front-door router that dispatches
// the scenario's (single) workload stream across them. The scenario
// package only carries the data; building and running a fleet is the
// fleet package's job (scenario.Build rejects fleet scenarios so they
// cannot be silently run as a single tree).
type FleetSpec struct {
	// Trees is the tree count. Zero with Topos set means len(Topos).
	Trees int `json:"trees,omitempty"`
	// Policy names the cross-tree routing policy: "rr" (round-robin,
	// the default), "jsq" (join the tree with the shortest estimated
	// backlog) or "local" (affinity-hashed with overload spill).
	Policy string `json:"policy,omitempty"`
	// Topos, when set, gives each tree its own topology instead of
	// copies of the scenario's Topology. Length must match Trees when
	// both are set.
	Topos []Spec `json:"topos,omitempty"`
}

// EffPolicy returns the effective cross-tree routing policy name
// (default "rr") or an error for an unknown one.
func (f *FleetSpec) EffPolicy() (string, error) {
	switch f.Policy {
	case "", "rr":
		return "rr", nil
	case "jsq":
		return "jsq", nil
	case "local":
		return "local", nil
	default:
		return "", fmt.Errorf("scenario: unknown fleet policy %q (want rr|jsq|local)", f.Policy)
	}
}

// NumTrees resolves the fleet's tree count from Trees and Topos,
// rejecting inconsistent combinations.
func (f *FleetSpec) NumTrees() (int, error) {
	switch {
	case f.Trees < 0:
		return 0, fmt.Errorf("scenario: fleet.trees must be >= 1, got %d", f.Trees)
	case f.Trees == 0 && len(f.Topos) == 0:
		return 0, fmt.Errorf("scenario: fleet needs trees or topos")
	case f.Trees == 0:
		return len(f.Topos), nil
	case len(f.Topos) > 0 && len(f.Topos) != f.Trees:
		return 0, fmt.Errorf("scenario: fleet.trees is %d but fleet.topos lists %d topologies", f.Trees, len(f.Topos))
	default:
		return f.Trees, nil
	}
}

// Engine selects run-mode options that change the schedule or its
// instrumentation. Function-valued sim.Options (Observer, SelfCheck)
// are deliberately excluded: they are code, not data, and callers
// attach them to Instance.Opts after Build.
type Engine struct {
	// Packetized runs the Section 2 unit-packet variant.
	Packetized bool `json:"packetized,omitempty"`
	// Instrument records per-hop timings.
	Instrument bool `json:"instrument,omitempty"`
	// RecordSlices records the execution slices (Gantt input).
	RecordSlices bool `json:"record_slices,omitempty"`
	// Stream runs the scenario through the streaming pipeline
	// (sim.RunStream): when the workload admits it, arrivals are
	// drawn from an ArrivalSource one job at a time and the trace is
	// never materialized. Results are bit-identical to the
	// materialized run.
	Stream bool `json:"stream,omitempty"`
	// RetainJobs sets sim.Options.RetainJobs: 0 keeps every
	// JobMetrics (backwards compatible); N > 0 keeps only the last N
	// and recycles engine task state at completion, so a streamed
	// run's memory is independent of N jobs.
	RetainJobs int `json:"retain_jobs,omitempty"`
	// Serve declares the scenario for online dispatch: the workload
	// arrives from outside (the treeschedd daemon's admission queue),
	// so the scenario carries no trace of its own. Build resolves the
	// tree, policy and assigner but generates nothing; Run and Runner
	// reject serve scenarios — they are run through internal/server.
	Serve bool `json:"serve,omitempty"`
}

// Scenario is one complete, serializable simulation setup: every
// experiment cell, CLI invocation and example in this repo is
// expressible as (and reproducible from) one of these.
//
// Zero values mean defaults: Policy "" = sjf, Assigner "" = greedy,
// Eps 0 = 0.5, Speed zero = speed 1, AssignerSeed 0 = Seed+1 (the
// historical cli behavior for the randomized baseline).
type Scenario struct {
	// Name is an optional label (no whitespace in compact form).
	Name string `json:"name,omitempty"`
	// Topology is the tree spec ("fattree:2,2,2"). Required to Build;
	// trace-only users (tracegen) may leave it empty.
	Topology Spec `json:"topology"`
	// Workload describes the trace.
	Workload Workload `json:"workload"`
	// Policy names the node scheduling policy (default sjf).
	Policy string `json:"policy,omitempty"`
	// Assigner names the leaf-assignment rule (default greedy).
	Assigner string `json:"assigner,omitempty"`
	// Eps is the greedy/class epsilon (default 0.5).
	Eps float64 `json:"eps,omitempty"`
	// Seed drives workload generation. Under RNG "keyed" it is the
	// SimulationKey every subsystem stream derives from.
	Seed uint64 `json:"seed,omitempty"`
	// RNG selects the random-stream discipline: "legacy" (default,
	// also "") runs every subsystem off one shared stream in the
	// historical draw order, reproducing pre-partition traces bit for
	// bit; "keyed" gives each subsystem (workload, sizes, weights,
	// faults, per-tree) its own stream derived from Seed alone, so
	// adding a draw in one subsystem cannot perturb another.
	RNG string `json:"rng,omitempty"`
	// AssignerSeed seeds randomized assigners (0 = Seed+1).
	AssignerSeed uint64 `json:"assigner_seed,omitempty"`
	// Speed is the tree speed profile.
	Speed Speed `json:"speed,omitempty"`
	// Horizon is the LP horizon in unit slots for bound tooling
	// (cmd/lpbound); the event engine does not use it.
	Horizon int `json:"horizon,omitempty"`
	// Faults, when set, injects deterministic node faults.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Fleet, when set, turns the scenario into a fleet-of-trees
	// co-simulation (run through the fleet package, not Build).
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Engine selects run-mode options.
	Engine Engine `json:"engine,omitempty"`
}

// EffRNGMode returns the effective rng discipline ("legacy" or
// "keyed") or an error for an unknown mode.
func (sc *Scenario) EffRNGMode() (string, error) {
	switch sc.RNG {
	case "", "legacy":
		return "legacy", nil
	case "keyed":
		return "keyed", nil
	default:
		return "", fmt.Errorf("scenario: unknown rng mode %q (want legacy|keyed)", sc.RNG)
	}
}

// NewPartition returns a fresh rng partition in the scenario's mode,
// seeded by the scenario: the root of every random draw Build and
// NewSource make.
func (sc *Scenario) NewPartition() (*rng.PartitionedRNG, error) {
	mode, err := sc.EffRNGMode()
	if err != nil {
		return nil, err
	}
	if mode == "keyed" {
		return rng.NewPartitioned(rng.SimulationKey(sc.Seed)), nil
	}
	return rng.NewLegacy(sc.Seed), nil
}

// EffEps returns the effective epsilon (default 0.5).
func (sc *Scenario) EffEps() float64 {
	if sc.Eps == 0 {
		return 0.5
	}
	return sc.Eps
}

// EffPolicy returns the effective policy name (default "sjf").
func (sc *Scenario) EffPolicy() string {
	if sc.Policy == "" {
		return "sjf"
	}
	return sc.Policy
}

// EffAssigner returns the effective assigner name (default "greedy").
func (sc *Scenario) EffAssigner() string {
	if sc.Assigner == "" {
		return "greedy"
	}
	return sc.Assigner
}

// EffAssignerSeed returns the rng seed for randomized assigners.
func (sc *Scenario) EffAssignerSeed() uint64 {
	if sc.AssignerSeed == 0 {
		return sc.Seed + 1
	}
	return sc.AssignerSeed
}

// WriteJSON writes the scenario as indented JSON. The JSON form
// round-trips losslessly (pinned by tests and a fuzz target).
func (sc *Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// ReadJSON decodes a Scenario from JSON, rejecting unknown fields so
// typos in hand-written files fail loudly.
func ReadJSON(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		// DisallowUnknownFields would call a removed key unknown.
		for _, key := range []string{"shards", "split", "scan_queue"} {
			if err.Error() == `json: unknown field "`+key+`"` {
				return nil, errRemovedKey(key)
			}
		}
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// errRemovedKey rejects an engine setting that no longer exists (the
// former worker count, sub-shard split and scan-queue switch), naming
// the removal rather than reporting an unknown key.
func errRemovedKey(key string) error {
	why := "the engine runs one sequential event loop"
	if key == "scanqueue" || key == "scan_queue" {
		why = "a node queue is a heap, or a linear scan under processor sharing"
	}
	return fmt.Errorf("scenario: key %q was removed: %s", key, why)
}

// Load parses either a JSON document (first non-space byte '{') or a
// compact one-line form.
func Load(data []byte) (*Scenario, error) {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return ReadJSON(bytes.NewReader(data))
		default:
			return ParseCompact(string(data))
		}
	}
	return nil, fmt.Errorf("scenario: empty input")
}
