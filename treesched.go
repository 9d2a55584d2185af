package treesched

import (
	"io"

	"treesched/internal/core"
	"treesched/internal/faults"
	"treesched/internal/fleet"
	"treesched/internal/lowerbound"
	"treesched/internal/rng"
	"treesched/internal/scenario"
	"treesched/internal/sched"
	"treesched/internal/server"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// Scenario layer: declarative, serializable simulation setups. A
// Scenario bundles topology spec, workload spec, scheduler names,
// speeds and seed; it round-trips through JSON and a compact one-line
// string, and one value reproduces any experiment cell, CLI
// invocation or example in this repo.
type (
	// Scenario is one complete simulation setup in data form.
	Scenario = scenario.Scenario
	// ScenarioWorkload, ScenarioSpeed, ScenarioEngine and
	// ScenarioUnrelated are its component specs.
	ScenarioWorkload  = scenario.Workload
	ScenarioSpeed     = scenario.Speed
	ScenarioEngine    = scenario.Engine
	ScenarioUnrelated = scenario.Unrelated
	// Spec names one registry entry plus arguments ("fattree:2,2,2").
	Spec = scenario.Spec
	// Instance is a built scenario: concrete tree, trace, assigner.
	Instance = scenario.Instance
	// ScenarioRunner replays one scenario on a warm engine.
	ScenarioRunner = scenario.Runner
	// TopoEntry and Param let callers register custom topologies under
	// a name usable in scenario specs (see examples/heterogeneous).
	TopoEntry = scenario.TopoEntry
	Param     = scenario.Param
	// ScenarioFaults is a scenario's fault-injection section (a
	// registered plan spec or inline events, plus the recovery policy).
	ScenarioFaults = scenario.FaultSpec
	// ScenarioFleet is a scenario's fleet-of-trees section (tree
	// count, routing policy, optional per-tree topologies).
	ScenarioFleet = scenario.FleetSpec
)

// NewSpec builds a Spec in place: NewSpec("fattree", 2, 2, 2).
func NewSpec(name string, args ...float64) Spec { return scenario.NewSpec(name, args...) }

// ParseScenario loads a Scenario from JSON or the compact one-line
// form (auto-detected).
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Load(data) }

// RunScenario builds and executes a scenario end to end.
func RunScenario(sc *Scenario) (*Result, error) { return scenario.Run(sc) }

// NewScenarioRunner builds a warm-engine runner for repeated replays
// of one scenario (zero steady-state allocations with a stateless
// assigner).
func NewScenarioRunner(sc *Scenario) (*ScenarioRunner, error) { return scenario.NewRunner(sc) }

// RegisterTopology adds a named topology generator to the scenario
// registry, making it addressable from specs and scenario files.
func RegisterTopology(e TopoEntry) { scenario.RegisterTopology(e) }

// Fleet layer: N independently built tree instances behind a
// front-door router dispatching one shared workload stream. Routing
// is execution-blind and every random draw is partitioned per
// subsystem and per tree, so per-tree fault edits never perturb
// sibling trees and the worker count never changes a byte of output.
type (
	// FleetOptions tunes a fleet run (worker count, per-tree fault
	// overrides).
	FleetOptions = fleet.Options
	// FleetResult is a completed fleet run.
	FleetResult = fleet.Result
	// FleetTreeResult is one tree's slice of a fleet run.
	FleetTreeResult = fleet.TreeResult
	// FleetScorecard is the serializable fleet summary.
	FleetScorecard = fleet.Scorecard
)

// RunFleet executes a fleet scenario (Scenario.Fleet must be set).
func RunFleet(sc *Scenario, opts FleetOptions) (*FleetResult, error) {
	return fleet.Run(sc, opts)
}

// Partitioned rng: the seed discipline underneath scenarios. A
// PartitionedRNG hands out one deterministic stream per subsystem
// name, all derived from a single SimulationKey; the legacy
// constructors alias every name to one shared stream, reproducing the
// repo's historical single-stream draw order bit for bit.
type (
	PartitionedRNG = rng.PartitionedRNG
	SimulationKey  = rng.SimulationKey
)

// NewPartitionedRNG builds a keyed partition: independent streams per
// subsystem name.
func NewPartitionedRNG(key SimulationKey) *PartitionedRNG { return rng.NewPartitioned(key) }

// NewLegacyRNG builds a legacy partition: every stream name aliases
// one rng.New(seed) stream.
func NewLegacyRNG(seed uint64) *PartitionedRNG { return rng.NewLegacy(seed) }

// Topology types and constructors.
type (
	// Tree is a rooted tree network (root = distribution center,
	// interior routers, leaf machines).
	Tree = tree.Tree
	// NodeID identifies a node within a Tree.
	NodeID = tree.NodeID
	// Builder constructs custom topologies.
	Builder = tree.Builder
	// Broomstick is the Section 3.3 reduction result.
	Broomstick = tree.Broomstick
)

// NewBuilder starts a custom topology (root pre-created).
func NewBuilder() *Builder { return tree.NewBuilder() }

// FatTree builds a complete arity-ary router tree of the given depth
// with leavesPerRouter machines under each bottom router.
func FatTree(arity, depth, leavesPerRouter int) *Tree {
	return tree.FatTree(arity, depth, leavesPerRouter)
}

// Star builds one relay router with n machines — the bus topology.
func Star(leaves int) *Tree { return tree.Star(leaves) }

// Line builds a path of routers ending in one machine.
func Line(routers int) *Tree { return tree.Line(routers) }

// Caterpillar builds a router spine with machines at every level.
func Caterpillar(spine, leavesPerSpine int) *Tree {
	return tree.Caterpillar(spine, leavesPerSpine)
}

// BroomstickTree builds a tree that is already in broomstick form.
func BroomstickTree(branches, handleLen, leavesPerLevel int) *Tree {
	return tree.BroomstickTree(branches, handleLen, leavesPerLevel)
}

// Reduce applies the paper's tree-to-broomstick reduction.
func Reduce(t *Tree) (*Broomstick, error) { return tree.Reduce(t) }

// Workload types and generators.
type (
	// Job is one unit of work (release time, router size, optional
	// per-leaf sizes for the unrelated-endpoint setting).
	Job = workload.Job
	// Trace is an ordered job sequence.
	Trace = workload.Trace
	// SizeDist draws job sizes.
	SizeDist = workload.SizeDist
	// UniformSize, BimodalSize, ParetoSize and ClassRounded are the
	// built-in size distributions.
	UniformSize  = workload.UniformSize
	BimodalSize  = workload.BimodalSize
	ParetoSize   = workload.ParetoSize
	ClassRounded = workload.ClassRounded
	// ArrivalSource yields a release-ordered job stream one job at a
	// time, so million-job workloads never need materializing.
	ArrivalSource = workload.ArrivalSource
	// TraceSource adapts a materialized Trace to an ArrivalSource.
	TraceSource = workload.TraceSource
)

// NewTraceSource wraps a materialized trace as an ArrivalSource.
func NewTraceSource(tr *Trace) *TraceSource { return workload.NewTraceSource(tr) }

// PoissonSource is the streaming counterpart of PoissonTrace: the
// identical job sequence (bit for bit), drawn one job at a time.
func PoissonSource(seed uint64, n int, load float64, t *Tree) (ArrivalSource, error) {
	return workload.NewPoissonSource(rng.New(seed), workload.GenConfig{
		N:        n,
		Size:     workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 16}, Eps: 0.5},
		Load:     load,
		Capacity: float64(len(t.RootAdjacent())),
	})
}

// PoissonTrace generates n jobs with Poisson arrivals calibrated to
// the given load on t's root-adjacent capacity, with sizes rounded to
// powers of 1.5 (the paper's class assumption at eps=0.5): the jobs of
// PoissonSource, collected.
func PoissonTrace(seed uint64, n int, load float64, t *Tree) (*Trace, error) {
	src, err := PoissonSource(seed, n, load, t)
	if err != nil {
		return nil, err
	}
	return workload.Collect(src)
}

// MakeUnrelated converts an identical trace into an unrelated-endpoint
// trace with per-leaf affinity factors drawn from [lo, hi).
func MakeUnrelated(seed uint64, tr *Trace, t *Tree, lo, hi float64) error {
	return workload.MakeUnrelated(rng.New(seed), tr, workload.UnrelatedConfig{
		Leaves: len(t.Leaves()), Lo: lo, Hi: hi,
	})
}

// Engine types.
type (
	// Options configures a simulation run.
	Options = sim.Options
	// Result is a completed run. Its Jobs is the engine's own record
	// buffer, handed over; the engine's next Reset moves to a new one,
	// so a Result stays valid for as long as the caller keeps it.
	Result = sim.Result
	// Stats summarizes a run.
	Stats = sim.Stats
	// Policy orders jobs on a node; Assigner picks the leaf.
	Policy   = sim.Policy
	Assigner = sim.Assigner
	// Arrival is the assigner's view of an arriving job.
	Arrival = sim.Arrival
	// Query is the read-only engine state view given to assigners.
	Query = sim.Query
)

// Node policies.
type (
	// SJF is Shortest-Job-First, the paper's node policy.
	SJF = sim.SJF
	// FIFO, SRPT and LCFS are the baseline node policies; WSJF
	// (highest density first) serves the weighted flow-time extension.
	FIFO = sim.FIFO
	SRPT = sim.SRPT
	LCFS = sim.LCFS
	WSJF = sim.WSJF
	// PS is egalitarian processor sharing (fair-queueing routers).
	PS = sim.PS
)

// AssignWeights draws integer weights in [1, maxWeight] for every job
// (the weighted flow-time extension; see Stats.WeightedFlow).
func AssignWeights(seed uint64, tr *Trace, maxWeight int) {
	workload.AssignWeights(rng.New(seed), tr, maxWeight)
}

// Sim is the event-driven engine itself, exported for callers that
// want to reuse one engine across runs (NewSim + RunOn + Reset)
// instead of paying a fresh allocation per Run.
type Sim = sim.Sim

// NewSim builds an engine for t. Reuse it across runs via
// (*Sim).Reset, which retains all allocated capacity except a records
// buffer the last Result took.
func NewSim(t *Tree, opts Options) *Sim { return sim.New(t, opts) }

// RunOn simulates a trace on an existing engine (freshly built or
// recycled with Reset). Equivalent to Run, reusing the engine's
// queues, event heap and task arena; the Result takes the engine's
// records buffer, so beyond the Result itself each call allocates
// that one buffer.
func RunOn(s *Sim, tr *Trace, asg Assigner) (*Result, error) {
	return sim.RunOn(s, tr, asg)
}

// Run simulates a trace on a tree with the given leaf assigner.
func Run(t *Tree, tr *Trace, asg Assigner, opts Options) (*Result, error) {
	return sim.Run(t, tr, asg, opts)
}

// RunPacketized simulates with unit-packet forwarding (Section 2's
// pipelined variant).
func RunPacketized(t *Tree, tr *Trace, asg Assigner, opts Options) (*Result, error) {
	return sim.RunPacketized(t, tr, asg, opts)
}

// Streaming pipeline: run from an ArrivalSource instead of a Trace,
// with online metrics (StreamStats), optional per-job sinks and
// bounded retention (Options.RetainJobs) so memory stays independent
// of the job count. Full-retention streamed runs are bit-identical to
// their materialized counterparts.
type (
	// StreamStats is the online per-completion accumulator.
	StreamStats = sim.StreamStats
	// LeafTally is one leaf's share of a streamed run.
	LeafTally = sim.LeafTally
	// JobMetrics is one job's recorded outcome — the element type of
	// Result.Jobs and the value handed to JobSink implementations.
	JobMetrics = sim.JobMetrics
	// JobSink receives every completed job's metrics in completion
	// order (see Options.Sink).
	JobSink = sim.JobSink
	// NDJSONSink writes one JSON line per completed job. Set as
	// Options.Sink itself, it is encoded on a goroutine of its own and
	// its writer belongs to the engine until the run ends (see
	// Options.Sink).
	NDJSONSink = sim.NDJSONSink
)

// NewNDJSONSink wraps w as a per-job NDJSON sink.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return sim.NewNDJSONSink(w) }

// RunStream simulates an arrival stream on a fresh engine.
func RunStream(t *Tree, src ArrivalSource, asg Assigner, opts Options) (*Result, error) {
	return sim.RunStream(t, src, asg, opts)
}

// RunStreamOn simulates an arrival stream on an existing engine.
func RunStreamOn(s *Sim, src ArrivalSource, asg Assigner) (*Result, error) {
	return sim.RunStreamOn(s, src, asg)
}

// ReplayStreamOn drives the inject→drain cycle from a stream without
// collecting per-job results; it returns the number of jobs injected.
func ReplayStreamOn(s *Sim, src ArrivalSource, asg Assigner) (int, error) {
	return sim.ReplayStreamOn(s, src, asg)
}

// Serving layer: the scheduler-as-a-service daemon underneath
// cmd/treeschedd. A Server wraps the streaming engine behind a
// bounded admission queue with watermark-based load shedding and a
// graceful drain; the jobs it accepts complete byte-identically to an
// offline RunStream of the same trace on the same serve scenario.
type (
	// Server is the daemon core: admission queue, engine goroutine and
	// completion fan-out. Attach (*Server).Handler() to an
	// http.Server; see cmd/treeschedd for the full lifecycle.
	Server = server.Server
	// ServerConfig sizes a daemon (serve scenario, queue depth, shed
	// watermark, Retry-After hint, NDJSON stream guards).
	ServerConfig = server.Config
	// ServerStats is the daemon's /stats document.
	ServerStats = server.StatsView
	// ServerAdmitResult is the daemon's answer to one NDJSON job
	// batch: the accepted prefix, its first dense ID, and whether the
	// batch hit the load shedder.
	ServerAdmitResult = server.AdmitResult
	// ServerClient is the HTTP client for a running daemon, with
	// optional Retry-After-honoring resubmission of shed batches.
	ServerClient = server.Client
	// ServerSubmitResult summarizes one ServerClient.Submit call
	// (accepted count, shed tail, attempts used).
	ServerSubmitResult = server.SubmitResult
)

// NewServer builds and starts the daemon core for a serve scenario
// (Engine.Serve set). The engine goroutine runs until Drain, so
// callers own calling Drain when done, on error paths included.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Fault injection: deterministic node outages, brown-outs and
// permanent leaf loss, compiled into piecewise-constant speed
// schedules the engine applies exactly (see Options.Faults/Recovery).
type (
	// FaultPlan is a reproducible list of fault events.
	FaultPlan = faults.Plan
	// FaultEvent is one fault on one node.
	FaultEvent = faults.Event
	// FaultKind names a fault class (Outage, Brownout, LeafLoss).
	FaultKind = faults.Kind
	// FaultSchedule is a compiled plan, shareable across engines.
	FaultSchedule = faults.Schedule
	// RecoveryPolicy selects what happens to work assigned to a
	// permanently lost leaf.
	RecoveryPolicy = sim.RecoveryPolicy
	// Migration records one job re-dispatched off a dead leaf.
	Migration = sim.Migration
)

// Fault kinds and recovery policies.
const (
	Outage   = faults.Outage
	Brownout = faults.Brownout
	LeafLoss = faults.LeafLoss

	// RecoverHold stalls work assigned to a dead leaf (it counts
	// toward flow time and Drain reports the stuck tasks).
	RecoverHold = sim.RecoverHold
	// RecoverRedispatch restarts such work on a surviving leaf.
	RecoverRedispatch = sim.RecoverRedispatch
)

// CompileFaults validates a fault plan against a topology and compiles
// it for Options.Faults.
func CompileFaults(t *Tree, p *FaultPlan) (*FaultSchedule, error) {
	return faults.Compile(t, p)
}

// Engine error types: Drain returns these instead of panicking.
type (
	// StuckError reports tasks that can never finish (e.g. held on a
	// permanently lost leaf).
	StuckError = sim.StuckError
	// InternalError wraps an engine invariant violation with a dump of
	// the affected tasks.
	InternalError = sim.InternalError
	// AuditError carries a failed schedule-conformance audit.
	AuditError = sim.AuditError
)

// Schedule-conformance auditing: AuditReport is the result of
// replaying a run's recorded slices against the store-and-forward
// rules (see (*Sim).Audit).
type (
	AuditReport    = sim.AuditReport
	AuditViolation = sim.Violation
)

// The paper's algorithms (package core).
type (
	// GreedyIdentical and GreedyUnrelated are the Sections 3.4-3.6
	// assignment rules; Shadow is the Section 3.7 general-tree
	// algorithm driven by a broomstick co-simulation.
	GreedyIdentical = core.GreedyIdentical
	GreedyUnrelated = core.GreedyUnrelated
	Shadow          = core.Shadow
	ShadowConfig    = core.ShadowConfig
)

// NewGreedyIdentical builds the identical-endpoint greedy rule with
// analysis parameter eps.
func NewGreedyIdentical(eps float64) *GreedyIdentical {
	return core.NewGreedyIdentical(eps)
}

// NewGreedyUnrelated builds the unrelated-endpoint greedy rule.
func NewGreedyUnrelated(eps float64) *GreedyUnrelated {
	return core.NewGreedyUnrelated(eps)
}

// NewShadow builds the general-tree algorithm: a broomstick
// co-simulation whose leaf choices are copied onto the real tree.
func NewShadow(t *Tree, cfg ShadowConfig) (*Shadow, error) {
	return core.NewShadow(t, cfg)
}

// Baseline assigners (package sched).
type (
	ClosestLeaf       = sched.ClosestLeaf
	RandomLeaf        = sched.RandomLeaf
	RoundRobin        = sched.RoundRobin
	LeastVolume       = sched.LeastVolume
	MinPathWork       = sched.MinPathWork
	JoinShortestQueue = sched.JoinShortestQueue
)

// NewRandomLeaf builds the uniform-random baseline with its own seed.
func NewRandomLeaf(seed uint64) *RandomLeaf {
	return &sched.RandomLeaf{R: rng.New(seed)}
}

// OPTLowerBound returns the best valid combinatorial lower bound on
// the optimal (speed-1) total flow time of the instance. Dividing a
// run's total flow by it upper-bounds the competitive ratio.
func OPTLowerBound(t *Tree, tr *Trace) float64 {
	return lowerbound.Best(t, tr)
}

// Lemma validators (package core), re-exported for instrumented runs.
type (
	Lemma1Report  = core.Lemma1Report
	Lemma2Checker = core.Lemma2Checker
	Lemma8Report  = core.Lemma8Report
)

// CheckLemma1 validates the interior waiting bound on an instrumented
// run.
func CheckLemma1(res *Result, eps float64, unrelated bool) Lemma1Report {
	return core.CheckLemma1(res, eps, unrelated)
}

// CheckLemma8 compares a Shadow-driven run against its broomstick.
func CheckLemma8(res *Result, sh *Shadow) Lemma8Report {
	return core.CheckLemma8(res, sh)
}

// DualFitReport is the result of RunDualFit.
type DualFitReport = core.DualFitReport

// RunDualFit runs the identical-endpoint greedy algorithm on a
// broomstick while constructing the paper's Section 3.5 dual solution
// and checking LP-Dual feasibility numerically; a feasible dual
// certifies DualObjective/3 as a per-instance lower bound on OPT.
func RunDualFit(t *Tree, tr *Trace, eps float64) (*DualFitReport, error) {
	return core.RunDualFit(t, tr, eps)
}
