// Streaming scenario support: deciding when a workload can be
// generated one job at a time, building the ArrivalSource, and the
// stream-aware run paths of Instance and Runner. A materialized trace
// is the same arrival source collected (GenerateRNG), so a source
// drawn from a fresh partition of the scenario's seed yields the
// trace's jobs bit for bit.
package scenario

import (
	"fmt"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

// Streamable reports whether the workload can be generated one job
// at a time. The unrelated transform and weight assignment draw rng
// in whole-trace passes after generation (interleaving their draws
// per job would change the stream), and inline Jobs are already
// materialized — those fall back to generating the trace and
// wrapping it in a TraceSource, which is equally bit-identical but
// not constant-memory.
func (w *Workload) Streamable() bool {
	return len(w.Jobs) == 0 && w.Unrelated == nil && w.MaxWeight == 0
}

// SourceRNG returns an ArrivalSource for the workload drawing from
// p: arrivals from the "workload" stream and sizes from "sizes", the
// jobs GenerateRNG collects (in legacy mode both names alias one
// stream, which is exactly the historical order). Topology-derived
// defaults (Capacity, Unrelated.Leaves) must be resolved, exactly as
// for GenerateRNG. Workloads that are not Streamable are generated
// whole and wrapped in a TraceSource.
func (w *Workload) SourceRNG(p *rng.PartitionedRNG) (workload.ArrivalSource, error) {
	if !w.Streamable() {
		tr, err := w.GenerateRNG(p)
		if err != nil {
			return nil, err
		}
		return workload.NewTraceSource(tr), nil
	}
	src, err := w.processSource(p)
	if err != nil {
		return nil, err
	}
	if w.RoundEps > 0 {
		src = workload.NewClassRoundSource(src, w.RoundEps)
	}
	return src, nil
}

// processSource builds the workload's arrival process from the
// registry, with related speeds applied per job: the part of
// generation that GenerateRNG collects and SourceRNG streams.
func (w *Workload) processSource(p *rng.PartitionedRNG) (workload.ArrivalSource, error) {
	var size workload.SizeDist
	if w.Size.Name != "" {
		var err error
		if size, err = BuildSize(w.Size); err != nil {
			return nil, err
		}
		if w.ClassEps > 0 {
			size = workload.ClassRounded{Base: size, Eps: w.ClassEps}
		}
	}
	name := w.Process.Name
	if name == "" {
		name = "poisson"
	}
	e, err := processReg.lookup(name)
	if err != nil {
		return nil, err
	}
	if len(w.Process.Args) != len(e.Params) {
		return nil, fmt.Errorf("%s needs %s", name, paramNames(e.Params))
	}
	src, err := e.Source(p.Stream("workload"), workload.GenConfig{
		N: w.N, Size: size, Load: w.Load, Capacity: w.Capacity,
		SizeRand: p.Stream("sizes"),
	}, w.Process.Args)
	if err != nil {
		return nil, err
	}
	if len(w.RelatedSpeeds) > 0 {
		return workload.NewRelatedSource(src, w.RelatedSpeeds)
	}
	return src, nil
}

// lazyStreamable reports whether Build may skip materializing the
// trace entirely: the scenario streams, the workload admits it, and
// no fault plan needs the trace's span (explicit fault events are
// fine — they draw nothing and know their own times).
func (sc *Scenario) lazyStreamable(w *Workload) bool {
	return sc.Engine.Stream && w.Streamable() &&
		(sc.Faults == nil || sc.Faults.Plan.Name == "")
}

// NewSource returns a fresh ArrivalSource for the instance's
// workload. With a materialized trace it is a TraceSource wrapping
// it; otherwise generation streams from a fresh partition built the
// same way Build builds its own, so every call yields the identical
// job sequence.
func (in *Instance) NewSource() (workload.ArrivalSource, error) {
	if in.Trace != nil {
		return workload.NewTraceSource(in.Trace), nil
	}
	p, err := in.Scenario.NewPartition()
	if err != nil {
		return nil, err
	}
	return in.workload.SourceRNG(p)
}

// runStream executes the instance through the streaming pipeline on
// the given engine (nil = fresh engine from in.Opts).
func (in *Instance) runStream(s *sim.Sim, asg sim.Assigner) (*sim.Result, error) {
	src, err := in.NewSource()
	if err != nil {
		return nil, fmt.Errorf("scenario: workload: %w", err)
	}
	if s == nil {
		return sim.RunStream(in.Tree, src, asg, in.Opts)
	}
	return sim.RunStreamOn(s, src, asg)
}
