package scenario

import (
	"fmt"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// Instance is a built scenario: the concrete objects a Scenario's
// specs resolve to. Base is the generated topology at speed 1 (lower
// bounds are computed against it); Tree carries the speed profile the
// engine runs with.
type Instance struct {
	Scenario *Scenario
	Base     *tree.Tree
	Tree     *tree.Tree
	// Trace is the materialized workload (nil for lazily streamed and
	// serve scenarios). Read-only: for a scenario with inline jobs it
	// shares their backing array with Scenario.Workload.Jobs.
	Trace    *workload.Trace
	Assigner sim.Assigner
	// FaultPlan is the resolved fault plan (nil without faults). Its
	// compiled form is already installed in Opts.Faults.
	FaultPlan *faults.Plan
	// Opts is ready for sim.Run/New. Callers may attach the
	// non-serializable options (Observer, SelfCheck, Sink) before
	// running.
	Opts sim.Options

	// workload is the resolved workload copy (topology-derived
	// defaults filled in), kept so NewSource can stream lazily
	// generated scenarios: those leave Trace nil and draw jobs on
	// demand.
	workload Workload
}

// Build resolves every spec in the scenario against the registries
// and generates the trace. It does not run anything.
func (sc *Scenario) Build() (*Instance, error) {
	if sc.Fleet != nil {
		return nil, fmt.Errorf("scenario: fleet scenarios are run through the fleet layer (fleet.Run or treesched -fleet)")
	}
	if sc.Topology.Name == "" {
		return nil, fmt.Errorf("scenario: topology is required")
	}
	base, err := BuildTopo(sc.Topology)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	t := base
	sp := sc.Speed
	uniform := sp.Uniform != 0
	triple := sp.RootAdjacent != 0 || sp.Router != 0 || sp.Leaf != 0
	switch {
	case uniform && triple:
		return nil, fmt.Errorf("scenario: speed.uniform and the per-level speed triple are mutually exclusive")
	case uniform:
		if !(sp.Uniform > 0) {
			return nil, fmt.Errorf("scenario: speed.uniform is %v, want > 0", sp.Uniform)
		}
		t = base.WithUniformSpeed(sp.Uniform)
	case triple:
		for _, f := range []struct {
			name string
			v    float64
		}{{"root_adjacent", sp.RootAdjacent}, {"router", sp.Router}, {"leaf", sp.Leaf}} {
			if !(f.v > 0) {
				return nil, fmt.Errorf("scenario: speed.%s is %v, want > 0 (the per-level triple sets all three)", f.name, f.v)
			}
		}
		t = base.WithSpeeds(sp.RootAdjacent, sp.Router, sp.Leaf)
	}

	// Resolve topology-derived workload defaults on a copy so the
	// scenario value itself stays as written.
	w := sc.Workload
	if w.Capacity == 0 {
		w.Capacity = float64(len(base.RootAdjacent()))
	}
	if w.Unrelated != nil && w.Unrelated.Leaves == 0 {
		u := *w.Unrelated
		u.Leaves = len(base.Leaves())
		w.Unrelated = &u
	}
	if sc.Engine.RetainJobs < 0 {
		return nil, fmt.Errorf("scenario: engine.retain_jobs must be >= 0, got %d", sc.Engine.RetainJobs)
	}
	if sc.Engine.Packetized && (sc.Engine.Stream || sc.Engine.RetainJobs > 0 || sc.Engine.Serve) {
		return nil, fmt.Errorf("scenario: packetized runs do not support streaming")
	}
	if sc.Engine.Serve {
		// A serve scenario carries no workload of its own: jobs arrive
		// online through the daemon's admission queue, so any inline
		// workload here would be silently ignored — reject it instead.
		if w.N != 0 || len(w.Jobs) > 0 {
			return nil, fmt.Errorf("scenario: serve scenarios take their workload from the daemon, not the scenario (drop n/jobs)")
		}
		if sc.Faults != nil && sc.Faults.Plan.Name != "" {
			return nil, fmt.Errorf("scenario: serve scenarios cannot use plan-based faults (plans are scaled to a trace span that does not exist online; list faults.events explicitly)")
		}
	}
	// One rng partition per scenario. In the default legacy mode the
	// partition is a single shared stream: workload generation draws
	// first, fault-plan generation after, so fault-free scenarios keep
	// their historical traces bit for bit (the exact order is pinned by
	// TestLegacyDrawOrder; see DESIGN.md). In keyed mode each
	// subsystem draws from its own Seed-derived stream, so e.g. adding
	// a fault plan cannot move a single workload draw. Lazily
	// streamable scenarios skip materialization entirely — NewSource
	// rebuilds an identical fresh partition at run time (fault plans
	// need the trace's span and force materialization; explicit fault
	// events do not).
	p, err := sc.NewPartition()
	if err != nil {
		return nil, err
	}
	var tr *workload.Trace
	if !sc.Engine.Serve && !sc.lazyStreamable(&w) {
		tr, err = w.GenerateRNG(p)
		if err != nil {
			return nil, fmt.Errorf("scenario: workload: %w", err)
		}
	}

	pol, err := ParsePolicy(sc.EffPolicy())
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	in := &Instance{
		Scenario: sc,
		Base:     base,
		Tree:     t,
		Trace:    tr,
		Opts: sim.Options{
			Policy:       pol,
			Instrument:   sc.Engine.Instrument,
			RecordSlices: sc.Engine.RecordSlices,
			RetainJobs:   sc.Engine.RetainJobs,
		},
		workload: w,
	}
	if sc.Faults != nil {
		if err := applyFaults(in, p.Stream("faults")); err != nil {
			return nil, err
		}
	}
	if in.Assigner, err = in.NewAssigner(); err != nil {
		return nil, err
	}
	return in, nil
}

// applyFaults resolves the scenario's fault spec into a compiled
// schedule on in.Opts. The plan generator draws from r — in legacy
// mode the shared scenario stream, positioned right after workload
// generation; in keyed mode the dedicated "faults" stream.
func applyFaults(in *Instance, r *rng.Rand) error {
	fs := in.Scenario.Faults
	switch {
	case fs.Plan.Name != "" && len(fs.Events) > 0:
		return fmt.Errorf("scenario: faults.plan and faults.events are mutually exclusive")
	case fs.Plan.Name != "":
		p, err := BuildFaultPlan(fs.Plan, r, in.Tree, in.Trace.Span())
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		in.FaultPlan = p
	case len(fs.Events) > 0:
		in.FaultPlan = &faults.Plan{Events: append([]faults.Event(nil), fs.Events...)}
	default:
		return fmt.Errorf("scenario: faults needs a plan or events")
	}
	switch fs.Recovery {
	case "", "hold":
		in.Opts.Recovery = sim.RecoverHold
	case "redispatch":
		in.Opts.Recovery = sim.RecoverRedispatch
	default:
		return fmt.Errorf("scenario: unknown faults.recovery %q (want hold|redispatch)", fs.Recovery)
	}
	sched, err := faults.Compile(in.Tree, in.FaultPlan)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	in.Opts.Faults = sched
	return nil
}

// NewAssigner builds a fresh copy of the scenario's assigner (useful
// because several baselines are stateful: random, roundrobin, shadow).
func (in *Instance) NewAssigner() (sim.Assigner, error) {
	sc := in.Scenario
	asg, err := ParseAssigner(sc.EffAssigner(), AssignerContext{
		Tree:      in.Tree,
		Eps:       sc.EffEps(),
		Unrelated: sc.Workload.unrelated(),
		Seed:      sc.EffAssignerSeed(),
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return asg, nil
}

// Run executes the built instance (packetized, streaming, or
// store-and-forward per the scenario's engine options) on a fresh
// engine.
func (in *Instance) Run() (*sim.Result, error) {
	if in.Scenario.Engine.Serve {
		return nil, fmt.Errorf("scenario: serve scenarios are run through the serving layer (server.New or treeschedd)")
	}
	if in.Scenario.Engine.Packetized {
		return sim.RunPacketized(in.Tree, in.Trace, in.Assigner, in.Opts)
	}
	if in.Scenario.Engine.Stream {
		return in.runStream(nil, in.Assigner)
	}
	return sim.Run(in.Tree, in.Trace, in.Assigner, in.Opts)
}

// Run builds and executes a scenario: the one-call entry point.
func Run(sc *Scenario) (*sim.Result, error) {
	in, err := sc.Build()
	if err != nil {
		return nil, err
	}
	return in.Run()
}

// Runner executes one scenario repeatedly on a single warm engine
// (sim.New once, then Reset + RunOn per call): the steady-state path
// for sweeps, benchmarks and services.
type Runner struct {
	Instance *Instance
	s        *sim.Sim
	ran      bool
}

// NewRunner builds the scenario and its engine. Packetized scenarios
// have no warm path (RunPacketized constructs its own engine); use
// Run for those.
func NewRunner(sc *Scenario) (*Runner, error) {
	if sc.Engine.Packetized {
		return nil, fmt.Errorf("scenario: packetized runs have no warm path (use scenario.Run)")
	}
	if sc.Engine.Serve {
		return nil, fmt.Errorf("scenario: serve scenarios are run through the serving layer (server.New or treeschedd)")
	}
	in, err := sc.Build()
	if err != nil {
		return nil, err
	}
	return &Runner{Instance: in, s: sim.New(in.Tree, in.Opts)}, nil
}

// Sim exposes the warm engine (instrumentation readers).
func (r *Runner) Sim() *sim.Sim { return r.s }

func (r *Runner) reset() {
	if r.ran {
		r.s.Reset(r.Instance.Opts)
	}
	r.ran = true
}

// Run replays the scenario on the warm engine and collects results.
// The assigner is rebuilt each call, so stateful rules (random,
// roundrobin, shadow) start fresh and every call reproduces a cold
// sim.Run bit for bit.
func (r *Runner) Run() (*sim.Result, error) {
	asg, err := r.Instance.NewAssigner()
	if err != nil {
		return nil, err
	}
	r.reset()
	if r.Instance.Scenario.Engine.Stream {
		return r.Instance.runStream(r.s, asg)
	}
	return sim.RunOn(r.s, r.Instance.Trace, asg)
}

// Replay drives the warm inject→drain cycle without collecting
// per-job metrics. With a stateless assigner the steady-state cycle
// performs zero allocations (pinned by TestScenarioSteadyStateAllocs);
// it reuses Instance.Assigner, so stateful assigners carry their state
// across calls.
func (r *Runner) Replay() error {
	r.reset()
	if r.Instance.Scenario.Engine.Stream {
		src, err := r.Instance.NewSource()
		if err != nil {
			return err
		}
		_, err = sim.ReplayStreamOn(r.s, src, r.Instance.Assigner)
		return err
	}
	return sim.ReplayOn(r.s, r.Instance.Trace, r.Instance.Assigner)
}
