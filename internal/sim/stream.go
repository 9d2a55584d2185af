// Streaming run support: an online metrics accumulator, a per-job
// sink, and a bounded retention ring, so the engine can ingest
// million-job arrival streams in memory independent of trace length.
// The hooks live on the completion path (Sim.complete) and are inert
// — one nil check — unless Options.RetainJobs or Options.Sink is set.
package sim

import (
	"bufio"
	"encoding/json"
	"io"
	"math"

	"treesched/internal/tree"
)

// JobSink receives every completed job's metrics, in completion
// order, during a streaming run. The pointed-to JobMetrics is only
// valid for the duration of the call; copy it to retain. A non-nil
// error stops emission (the run itself continues; the error is
// reported when results are collected).
type JobSink interface {
	Emit(m *JobMetrics) error
}

// NDJSONSink writes one compact JSON object per completed job — the
// on-disk counterpart of Result.Jobs for runs too large to hold it.
// Lines are produced by the pooled append codec (AppendJobMetrics)
// into one reused buffer, byte-identical to what json.Encoder.Encode
// would write but allocation-free in steady state.
type NDJSONSink struct {
	w   io.Writer
	buf []byte
}

// NewNDJSONSink wraps w. Callers keeping the writer (e.g. a bufio
// buffer over a file) are responsible for flushing it after the run.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: w}
}

// Emit writes m as one JSON line.
func (k *NDJSONSink) Emit(m *JobMetrics) error {
	var err error
	if k.buf, err = AppendJobMetrics(k.buf[:0], m); err != nil {
		return err
	}
	k.buf = append(k.buf, '\n')
	_, err = k.w.Write(k.buf)
	return err
}

// LeafTally is one leaf machine's share of a streamed run.
type LeafTally struct {
	Leaf tree.NodeID
	// Jobs counts completions on the leaf; Flow and Work sum the
	// completed jobs' flow times and leaf processing requirements.
	Jobs int
	Flow float64
	Work float64
}

// StreamStats is the online accumulator of a streaming run: enough
// to reconstruct every summary statistic the materializing path
// reports, updated at each completion in O(1) so no per-job record
// needs retaining. Sums accumulate in completion order, whereas the
// materializing collector sums in job-ID order — the totals can
// differ in the last ulp between the two (everything order-free —
// Completed, MaxFlow, Makespan, per-job metrics — is identical).
type StreamStats struct {
	Completed    int
	TotalFlow    float64
	WeightedFlow float64
	MaxFlow      float64
	Makespan     float64
	// SumFlow2/SumFlow3 are the ℓ_k moment sums Σ F_j^k for k=2,3,
	// powering LkNormFlow without the per-job record.
	SumFlow2 float64
	SumFlow3 float64
	// PerLeaf tallies completions by leaf index.
	PerLeaf []LeafTally
}

// observe folds one completed job into the accumulator.
func (a *StreamStats) observe(m *JobMetrics, li int, leafWork float64) {
	a.Completed++
	a.TotalFlow += m.Flow
	a.WeightedFlow += m.Weight * m.Flow
	a.SumFlow2 += m.Flow * m.Flow
	a.SumFlow3 += m.Flow * m.Flow * m.Flow
	if m.Flow > a.MaxFlow {
		a.MaxFlow = m.Flow
	}
	if m.Completion > a.Makespan {
		a.Makespan = m.Completion
	}
	t := &a.PerLeaf[li]
	t.Jobs++
	t.Flow += m.Flow
	t.Work += leafWork
}

// AvgFlow returns the mean flow time per completed job.
func (a *StreamStats) AvgFlow() float64 {
	if a.Completed == 0 {
		return 0
	}
	return a.TotalFlow / float64(a.Completed)
}

// LkNormFlow returns the ℓ_k norm of the per-job flow times from the
// moment sums. Supported k: 1, 2, 3 and +Inf (max flow); other
// exponents need the per-job record and return NaN.
func (a *StreamStats) LkNormFlow(k float64) float64 {
	switch {
	case math.IsInf(k, 1):
		return a.MaxFlow
	case k == 1:
		return a.TotalFlow
	case k == 2:
		return math.Sqrt(a.SumFlow2)
	case k == 3:
		return math.Cbrt(a.SumFlow3)
	}
	return math.NaN()
}

// snapshot returns an independent copy for embedding in a Result.
func (a *StreamStats) snapshot() *StreamStats {
	cp := *a
	cp.PerLeaf = append([]LeafTally(nil), a.PerLeaf...)
	return &cp
}

// streamState is the engine's streaming hook bundle, installed by
// applyOptions when Options.RetainJobs or Options.Sink is set.
type streamState struct {
	acc StreamStats
	// ring holds the last retain completions (bounded retention only).
	retain   int
	ring     []JobMetrics
	ringHead int
	sink     JobSink
	sinkErr  error
	// scratch holds the record of the job currently being completed
	// under bounded retention (see Sim.complete). Safe to share:
	// streaming hooks force a single worker, so completions are
	// strictly sequential.
	scratch JobMetrics
}

// push records m in the retention ring, evicting the oldest entry
// once the ring is full.
func (st *streamState) push(m *JobMetrics) {
	if len(st.ring) < st.retain {
		st.ring = append(st.ring, *m)
		return
	}
	st.ring[st.ringHead] = *m
	st.ringHead++
	if st.ringHead == st.retain {
		st.ringHead = 0
	}
}

// ringOrdered returns the retained window oldest-completion first.
func (st *streamState) ringOrdered() []JobMetrics {
	out := make([]JobMetrics, len(st.ring))
	k := copy(out, st.ring[st.ringHead:])
	copy(out[k:], st.ring[:st.ringHead])
	return out
}

// StreamStats returns the run's online accumulator (nil unless the
// engine has streaming hooks installed via Options.RetainJobs or
// Options.Sink). Live engine state: read-only for callers.
func (s *Sim) StreamStats() *StreamStats {
	if s.stream == nil {
		return nil
	}
	return &s.stream.acc
}

// streamResult assembles the Result of a bounded-retention run from
// the accumulator: Jobs is only the retention window (completion
// order), Stream the full summary.
func (s *Sim) streamResult(n int) (*Result, error) {
	st := s.stream
	if st.acc.Completed != n {
		return nil, s.internalErr("streamResult", "%d of %d streamed jobs completed", st.acc.Completed, n)
	}
	return &Result{Sim: s, Jobs: st.ringOrdered(), Stats: s.Stats(), Stream: st.acc.snapshot()}, nil
}

// WriteNDJSON writes the result as newline-delimited JSON: one
// {"stats":...} header line (with the streaming accumulator when
// present) followed by one compact object per retained job, written
// by an NDJSONSink. Unlike WriteJSON it never builds one giant
// document, so large results stream to disk in constant memory.
func (r *Result) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := struct {
		Stats  Stats        `json:"stats"`
		Stream *StreamStats `json:"stream,omitempty"`
	}{r.Stats, r.Stream}
	if err := json.NewEncoder(bw).Encode(hdr); err != nil {
		return err
	}
	sink := NewNDJSONSink(bw)
	for i := range r.Jobs {
		if err := sink.Emit(&r.Jobs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
