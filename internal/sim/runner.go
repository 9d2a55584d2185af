package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"treesched/internal/tree"
	"treesched/internal/workload"
)

// JobMetrics records one job's outcome.
type JobMetrics struct {
	ID         int
	Release    float64
	Completion float64
	Flow       float64
	Leaf       tree.NodeID
	// PathWork is Σ_{v on path} p_{j,v}: the congestion-free lower
	// bound on the job's flow time.
	PathWork float64
	// Weight is the job's importance (1 unless set on the trace).
	Weight float64
}

// Result is a completed run of a trace through the engine.
type Result struct {
	// Jobs holds one record per job, indexed by job ID (under bounded
	// retention, the retention window). When the run had one record
	// per job — every run but a packetized one that split a job — it
	// is the engine's own record buffer, handed over: the engine's
	// Reset starts its next run on a new buffer, so Jobs stays valid
	// and unchanged for as long as the caller keeps it.
	Jobs  []JobMetrics
	Stats Stats
	// Sim is the drained engine, retained so callers can read
	// utilization, Records() and — when the run was instrumented —
	// every task's state with its per-hop timings (Tasks()).
	Sim *Sim
	// Stream holds the online accumulator of a streaming run (nil
	// otherwise). Under bounded retention (Options.RetainJobs > 0) it
	// is the complete summary record and Jobs holds only the
	// retention window, in completion order; under full retention it
	// supplements Jobs.
	Stream *StreamStats
}

// TotalFlow is a convenience accessor.
func (r *Result) TotalFlow() float64 { return r.Stats.TotalFlow }

// AvgFlow returns the average flow time per job. Under bounded
// retention Jobs holds only a window, so the count comes from the
// streaming accumulator.
func (r *Result) AvgFlow() float64 {
	if r.Stream != nil && r.Stream.Completed > 0 {
		return r.Stats.TotalFlow / float64(r.Stream.Completed)
	}
	if len(r.Jobs) == 0 {
		return 0
	}
	return r.Stats.TotalFlow / float64(len(r.Jobs))
}

// LkNormFlow returns the ℓ_k norm of the per-job flow times — the
// alternative objective the paper's conclusion raises (k=2 is the
// fairness-sensitive variant; math.Inf(1) gives max flow). Under
// bounded retention the norm comes from the accumulator's moment
// sums, which cover k ∈ {1, 2, 3, +Inf} only (NaN otherwise).
func (r *Result) LkNormFlow(k float64) float64 {
	if math.IsInf(k, 1) {
		return r.Stats.MaxFlow
	}
	if r.Stream != nil && len(r.Jobs) != r.Stream.Completed {
		return r.Stream.LkNormFlow(k)
	}
	var s float64
	for i := range r.Jobs {
		s += math.Pow(r.Jobs[i].Flow, k)
	}
	return math.Pow(s, 1/k)
}

// WriteJSON persists the run's per-job metrics and summary statistics
// (not the engine state) for downstream analysis.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Stats Stats        `json:"stats"`
		Jobs  []JobMetrics `json:"jobs"`
	}{r.Stats, r.Jobs})
}

// Run simulates a full trace on the tree: it advances the engine to
// each arrival, consults the assigner (immediate dispatch), injects
// the job, and drains the engine at the end.
func Run(t *tree.Tree, trace *workload.Trace, asg Assigner, opts Options) (*Result, error) {
	return RunOn(New(t, opts), trace, asg)
}

// RunOn replays a trace through an existing engine, which must be
// freshly created or Reset. It is the steady-state entry point for
// replicate sweeps: calling Reset then RunOn reuses the engine's event
// heap, node queues and task arena. The schedule is identical to a
// Run on a fresh engine. The Result takes the engine's record buffer
// as its Jobs, so each RunOn allocates one buffer of records, which
// outlives the next Reset; ReplayOn keeps its buffer and allocates
// nothing. Each job is validated as the run reaches it, so a bad job
// fails the run with the error every driver gives for it, after the
// jobs before it were injected.
func RunOn(s *Sim, trace *workload.Trace, asg Assigner) (*Result, error) {
	if err := ReplayOn(s, trace, asg); err != nil {
		return nil, err
	}
	return collect(s, len(trace.Jobs))
}

// ReplayOn drives the inject→drain cycle of RunOn without collecting
// a Result. On a warmed engine this is the zero-allocation path
// measurement loops use; the engine is left drained, so
// Stats()/Records() remain readable. Like RunOn it validates each job
// as it reaches it (Job.ValidateAt, then CheckArrival), so the first
// bad job decides the error; a clean run whose sink failed returns
// the sink's first error.
func ReplayOn(s *Sim, trace *workload.Trace, asg Assigner) (err error) {
	defer s.endRun(&err)
	defer recoverInternal(&err)
	return s.replay(trace, asg, false)
}

// endRun is the deferred last step of ReplayOn and ReplayStreamOn,
// whichever way they return: it joins the sink, so every completion
// is written and no encoder goroutine is left running, and then
// reports the sink's first error when the run itself succeeded.
func (s *Sim) endRun(err *error) {
	st := s.stream
	st.join()
	if *err == nil && st != nil && st.sinkErr != nil {
		*err = fmt.Errorf("sim: job sink: %w", st.sinkErr)
	}
}

// replay is the materialized-trace driver of ReplayOn and
// RunPacketized: it runs every job through the per-arrival step,
// making Trace.Validate's checks of each job as it reaches it, as the
// streaming driver does, so every driver reports a trace's first bad
// job; then it drains.
func (s *Sim) replay(trace *workload.Trace, asg Assigner, packets bool) error {
	if s.opts.RetainJobs == 0 {
		// One allocation of the whole buffer, sized to the trace, not
		// a run of append growths (packets may still extend it).
		s.records = slices.Grow(s.records, len(trace.Jobs))
	}
	prev := 0.0
	for i := range trace.Jobs {
		j := &trace.Jobs[i]
		if err := j.ValidateAt(i, prev); err != nil {
			return err
		}
		prev = j.Release
		if err := s.arrive(j, asg, packets); err != nil {
			return err
		}
	}
	return s.Drain()
}

// CheckArrival makes the checks of j that depend on the tree t and the
// assigner asg: a leaf-size vector, when present, has one entry per
// leaf; the origin is a node of t; and a non-root origin goes only to
// an assigner that places such jobs. Every driver's per-arrival step
// calls it, and so does the daemon's admission, which refuses a bad
// job before it can reach the engine loop.
func CheckArrival(t *tree.Tree, asg Assigner, j *workload.Job) error {
	if n := len(t.Leaves()); j.LeafSizes != nil && len(j.LeafSizes) != n {
		return fmt.Errorf("sim: job %d has %d leaf sizes for a %d-leaf tree", j.ID, len(j.LeafSizes), n)
	}
	if j.Origin != 0 {
		if o := int(j.Origin); o < 0 || o >= t.NumNodes() {
			return fmt.Errorf("sim: job %d origin %d outside the %d-node tree", j.ID, o, t.NumNodes())
		}
		if _, rootOnly := asg.(RootOnlyAssigner); rootOnly {
			return fmt.Errorf("sim: job %d origin %d: assigner %q places root arrivals only", j.ID, j.Origin, asg.Name())
		}
	}
	return nil
}

// arrive is the per-arrival step every driver shares: it checks j
// against the tree and the assigner, advances the engine to j's
// release, consults the assigner, and injects the job on the chosen
// leaf — whole, or split into unit packets for RunPacketized.
func (s *Sim) arrive(j *workload.Job, asg Assigner, packets bool) error {
	if err := CheckArrival(s.tree, asg, j); err != nil {
		return err
	}
	s.AdvanceTo(j.Release)
	// Passing a local Arrival through the Assigner interface makes it
	// escape; the engine-owned scratch keeps the warm path at zero
	// allocations. Assigners must not retain the pointer past Assign
	// (the next arrival overwrites it).
	a := &s.scratchArrival
	*a = Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin), Weight: j.Weight}
	leaf := asg.Assign(s.Query(), a)
	var err error
	if packets {
		err = s.injectPackets(a, leaf)
	} else {
		_, err = s.Inject(a, leaf)
	}
	if err != nil {
		return fmt.Errorf("sim: assigner %q: %w", asg.Name(), err)
	}
	return nil
}

// collect assembles the Result of a run of n jobs from the engine's
// records. With one record per job (dense IDs in injection order, as
// every driver enforces) the record buffer itself becomes Result.Jobs,
// its capacity clipped so a caller's append cannot reach engine
// memory, and is marked lent for Reset. A packetized run's records
// fold into a new slice: a job's packets are consecutive.
func collect(s *Sim, n int) (*Result, error) {
	if s.stream != nil && s.stream.retain > 0 {
		return s.streamResult(n)
	}
	for i := range s.records {
		if r := &s.records[i]; r.Weight == 0 {
			return nil, fmt.Errorf("sim: task of job %d did not complete", r.ID)
		}
	}
	res := &Result{Sim: s}
	if n > 0 && len(s.records) == n {
		res.Jobs, s.lent = s.records[:n:n], true
	} else {
		// Packets of one job: completion is the last packet's, path
		// work accumulates across packets.
		res.Jobs = make([]JobMetrics, 0, n)
		for i := range s.records {
			r := &s.records[i]
			if k := len(res.Jobs); k == 0 || res.Jobs[k-1].ID != r.ID {
				res.Jobs = append(res.Jobs, JobMetrics{ID: r.ID, Release: r.Release, Leaf: r.Leaf, Weight: r.Weight})
			}
			m := &res.Jobs[len(res.Jobs)-1]
			m.Completion = max(m.Completion, r.Completion)
			m.Flow = m.Completion - m.Release
			m.PathWork += r.PathWork
		}
	}
	var st Stats
	st.FracFlow, st.ActiveIntegral, st.Events = s.totals()
	for i := range res.Jobs {
		m := &res.Jobs[i]
		st.TotalFlow += m.Flow
		st.WeightedFlow += m.Weight * m.Flow
		if m.Flow > st.MaxFlow {
			st.MaxFlow = m.Flow
		}
		if m.Completion > st.Makespan {
			st.Makespan = m.Completion
		}
		st.Completed++
	}
	res.Stats = st
	if s.stream != nil {
		res.Stream = s.stream.acc.snapshot()
	}
	return res, nil
}

// RunStream simulates a streaming arrival source end to end: jobs
// are drawn from the source one at a time (never materialized as a
// Trace), dispatched immediately on release, and drained at the end.
// With Options.RetainJobs > 0 the run's memory is independent of the
// stream length. A run over NewTraceSource(tr) produces results
// bit-identical to Run(t, tr, ...) under full retention.
func RunStream(t *tree.Tree, src workload.ArrivalSource, asg Assigner, opts Options) (*Result, error) {
	return RunStreamOn(New(t, opts), src, asg)
}

// RunStreamOn is RunStream on an existing engine (freshly created or
// Reset), the steady-state entry point for repeated streaming runs.
// Under full retention the Result takes the engine's record buffer,
// as in RunOn.
func RunStreamOn(s *Sim, src workload.ArrivalSource, asg Assigner) (*Result, error) {
	n, err := ReplayStreamOn(s, src, asg)
	if err != nil {
		return nil, err
	}
	return collect(s, n)
}

// ReplayStreamOn drives the streaming inject→drain cycle without
// collecting a Result, returning the number of jobs drawn from the
// source. Each job gets Trace.Validate's checks as it is drawn
// (Job.ValidateAt), as in the materialized drivers, and a sink's
// error is reported as ReplayOn reports it.
func ReplayStreamOn(s *Sim, src workload.ArrivalSource, asg Assigner) (n int, err error) {
	defer s.endRun(&err)
	defer recoverInternal(&err)
	prev := 0.0
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if err := j.ValidateAt(n, prev); err != nil {
			return n, err
		}
		prev = j.Release
		if err := s.arrive(&j, asg, false); err != nil {
			return n, err
		}
		n++
	}
	if err := src.Err(); err != nil {
		return n, err
	}
	return n, s.Drain()
}

// RunPacketized simulates the paper's Section 2 variant in which a
// job's data may be forwarded in unit-size pieces: each job is split
// into ceil(p_j) packets that traverse the tree independently
// (store-and-forward per packet, so the job pipelines across routers).
// The job completes when its last packet finishes on the leaf. The
// leaf assignment is still decided once per job at arrival.
func RunPacketized(t *tree.Tree, trace *workload.Trace, asg Assigner, opts Options) (res *Result, err error) {
	defer recoverInternal(&err)
	if opts.RetainJobs > 0 || opts.Sink != nil {
		// The streaming hooks count per-packet completions, which
		// would corrupt per-job accounting.
		return nil, fmt.Errorf("sim: RunPacketized does not support streaming retention or sinks")
	}
	s := New(t, opts)
	if err := s.replay(trace, asg, true); err != nil {
		return nil, err
	}
	return collect(s, len(trace.Jobs))
}

// injectPackets is Inject for RunPacketized: it splits the arrival
// into ceil(p_j) packets that keep the job's ID and priority sizes and
// travel to leaf independently.
func (s *Sim) injectPackets(a *Arrival, leaf tree.NodeID) error {
	li, err := s.leafIndex(leaf)
	if err != nil {
		return err
	}
	k := int(math.Ceil(a.Size))
	if k < 1 {
		k = 1
	}
	routerPiece := a.Size / float64(k)
	leafPiece := a.LeafSize(li) / float64(k)
	for p := 0; p < k; p++ {
		js := s.newTask()
		js.ID = a.ID
		js.Release = a.Release
		js.RouterSize = routerPiece
		js.LeafWork = leafPiece
		js.PrioRouter = a.Size
		js.PrioLeaf = a.LeafSize(li)
		js.FracWeight = 1 / float64(k)
		js.Weight = a.Weight
		js.Leaf = leaf
		js.leafSizes = a.LeafSizes
		s.claimSeq(js)
		if err := s.inject(js, a.Origin); err != nil {
			return err
		}
	}
	return nil
}
