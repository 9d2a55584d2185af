package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

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
// heap, node queues and task arena, so repeated runs approach zero
// allocations. The schedule is identical to a Run on a fresh engine.
func RunOn(s *Sim, trace *workload.Trace, asg Assigner) (*Result, error) {
	if err := ReplayOn(s, trace, asg); err != nil {
		return nil, err
	}
	return collect(s.tree, s, len(trace.Jobs))
}

// ReplayOn drives the inject→drain cycle of RunOn without collecting
// per-job metrics (which necessarily allocate a Result). On a warmed
// engine this is the zero-allocation path measurement loops use; the
// engine is left drained, so Stats()/Records() remain readable.
func ReplayOn(s *Sim, trace *workload.Trace, asg Assigner) (err error) {
	defer recoverInternal(&err)
	if err := trace.Validate(); err != nil {
		return err
	}
	if err := s.injectTrace(trace, asg); err != nil {
		return err
	}
	return s.Drain()
}

// injectTrace is ReplayOn's dispatch loop: advance to each release,
// consult the assigner, inject.
func (s *Sim) injectTrace(trace *workload.Trace, asg Assigner) error {
	t := s.tree
	// Passing a loop-local Arrival through the Assigner interface makes
	// it escape; the engine-owned scratch keeps the warm path at zero
	// allocations. Assigners must not retain the pointer past Assign
	// (the value was already overwritten every iteration).
	a := &s.scratchArrival
	for i := range trace.Jobs {
		j := &trace.Jobs[i]
		if j.LeafSizes != nil && len(j.LeafSizes) != len(t.Leaves()) {
			return fmt.Errorf("sim: job %d has %d leaf sizes for a %d-leaf tree", j.ID, len(j.LeafSizes), len(t.Leaves()))
		}
		s.AdvanceTo(j.Release)
		*a = Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin), Weight: j.Weight}
		leaf := asg.Assign(s.Query(), a)
		if _, err := s.Inject(a, leaf); err != nil {
			return fmt.Errorf("sim: assigner %q: %w", asg.Name(), err)
		}
	}
	return nil
}

// collect assembles the Result from the engine's records, walking
// them in injection order; packets of one job fold into one entry.
func collect(t *tree.Tree, s *Sim, n int) (*Result, error) {
	if s.stream != nil {
		if s.stream.sinkErr != nil {
			return nil, fmt.Errorf("sim: job sink: %w", s.stream.sinkErr)
		}
		if s.stream.retain > 0 {
			return s.streamResult(n)
		}
	}
	res := &Result{Sim: s, Jobs: make([]JobMetrics, n)}
	found := make([]bool, n)
	for i := range s.records {
		r := &s.records[i]
		if r.Weight == 0 {
			return nil, fmt.Errorf("sim: task of job %d did not complete", r.ID)
		}
		m := &res.Jobs[r.ID]
		if !found[r.ID] {
			found[r.ID] = true
			m.ID = r.ID
			m.Release = r.Release
			m.Leaf = r.Leaf
			m.Weight = r.Weight
		}
		// Packets of one job: completion is the last packet's, path
		// work accumulates across packets.
		if r.Completion > m.Completion {
			m.Completion = r.Completion
		}
		m.PathWork += r.PathWork
	}
	var st Stats
	st.FracFlow, st.ActiveIntegral, st.Events = s.totals()
	for i := range res.Jobs {
		if !found[i] {
			return nil, fmt.Errorf("sim: job %d never completed", i)
		}
		m := &res.Jobs[i]
		m.Flow = m.Completion - m.Release
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
func RunStreamOn(s *Sim, src workload.ArrivalSource, asg Assigner) (*Result, error) {
	n, err := ReplayStreamOn(s, src, asg)
	if err != nil {
		return nil, err
	}
	return collect(s.tree, s, n)
}

// ReplayStreamOn drives the streaming inject→drain cycle without
// collecting a Result, returning the number of jobs drawn from the
// source. Jobs are validated incrementally (dense IDs, sorted
// releases, per-job validity) since there is no Trace to validate up
// front. A plain TraceSource with no streaming hooks installed
// delegates to ReplayOn.
func ReplayStreamOn(s *Sim, src workload.ArrivalSource, asg Assigner) (n int, err error) {
	defer recoverInternal(&err)
	if ts, ok := src.(*workload.TraceSource); ok && s.stream == nil {
		tr := ts.Trace()
		return len(tr.Jobs), ReplayOn(s, tr, asg)
	}
	if n, err = s.injectStream(src, asg); err != nil {
		return n, err
	}
	if err := s.Drain(); err != nil {
		return n, err
	}
	if s.stream != nil && s.stream.sinkErr != nil {
		return n, fmt.Errorf("sim: job sink: %w", s.stream.sinkErr)
	}
	return n, nil
}

// injectStream is the sequential dispatch loop of the streaming
// path, mirroring injectTrace plus the incremental validation that
// Trace.Validate would have done.
func (s *Sim) injectStream(src workload.ArrivalSource, asg Assigner) (int, error) {
	t := s.tree
	a := &s.scratchArrival
	n := 0
	prev := 0.0
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if j.ID != n {
			return n, fmt.Errorf("workload: job at position %d has ID %d (IDs must be dense)", n, j.ID)
		}
		if err := j.Validate(); err != nil {
			return n, err
		}
		if j.Release < prev {
			return n, fmt.Errorf("workload: releases not sorted at position %d", n)
		}
		prev = j.Release
		if j.LeafSizes != nil && len(j.LeafSizes) != len(t.Leaves()) {
			return n, fmt.Errorf("sim: job %d has %d leaf sizes for a %d-leaf tree", j.ID, len(j.LeafSizes), len(t.Leaves()))
		}
		s.AdvanceTo(j.Release)
		*a = Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin), Weight: j.Weight}
		leaf := asg.Assign(s.Query(), a)
		if _, err := s.Inject(a, leaf); err != nil {
			return n, fmt.Errorf("sim: assigner %q: %w", asg.Name(), err)
		}
		n++
	}
	return n, src.Err()
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
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	s := New(t, opts)
	for i := range trace.Jobs {
		j := &trace.Jobs[i]
		s.AdvanceTo(j.Release)
		a := &Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin)}
		leaf := asg.Assign(s.Query(), a)
		li := t.LeafIndex(leaf)
		if li < 0 {
			return nil, fmt.Errorf("sim: assigner %q chose non-leaf %d", asg.Name(), leaf)
		}
		k := int(math.Ceil(j.Size))
		if k < 1 {
			k = 1
		}
		routerPiece := j.Size / float64(k)
		leafPiece := a.LeafSize(li) / float64(k)
		for p := 0; p < k; p++ {
			js := s.newTask(&s.shards[s.shardOf[leaf]])
			js.ID = j.ID
			js.Release = j.Release
			js.RouterSize = routerPiece
			js.LeafWork = leafPiece
			js.PrioRouter = j.Size
			js.PrioLeaf = a.LeafSize(li)
			js.FracWeight = 1 / float64(k)
			js.Leaf = leaf
			js.leafSizes = j.LeafSizes
			s.claimSeq(js)
			if err := s.inject(js, tree.NodeID(j.Origin)); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	return collect(t, s, len(trace.Jobs))
}
