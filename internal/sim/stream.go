// Streaming run support: an online metrics accumulator, a per-job
// sink, and a bounded retention ring, so the engine can ingest
// million-job arrival streams in memory independent of trace length.
// The hooks live on the completion path (Sim.complete) and are inert
// — one nil check — unless Options.RetainJobs or Options.Sink is set.
// A bare *NDJSONSink is encoded off the engine goroutine (encoder).
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
// error stops emission (the run itself continues; every driver
// reports the error as "sim: job sink: …" when the run ends cleanly).
type JobSink interface {
	Emit(m *JobMetrics) error
}

// NDJSONSink writes one compact JSON object per completed job — the
// on-disk counterpart of Result.Jobs for runs too large to hold it.
// Lines are produced by the pooled append codec (AppendJobMetrics)
// into one reused buffer, byte-identical to what json.Encoder.Encode
// would write but allocation-free in steady state.
//
// Set as Options.Sink itself (not behind a wrapper), it is encoded on
// a goroutine of its own: the engine hands it completions in batches,
// and it writes each line with exactly the Write call a synchronous
// Emit would make, in completion order. A sink serves one engine at a
// time, and its writer belongs to the engine from the run's first
// completion until Drain, Reset or the driver returns: neither read
// nor write it mid-run.
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
	// sinkErr is the sink's first error; a pipelined sink's reaches it
	// at join.
	sinkErr error
	// enc encodes the sink off the engine goroutine when it is a bare
	// *NDJSONSink (nil otherwise: Sim.complete calls any other sink
	// itself).
	enc *encoder
	// scratch holds the record of the job currently being completed
	// under bounded retention (see Sim.complete). Safe to share:
	// completions are strictly sequential.
	scratch JobMetrics
}

// newStreamState builds the hooks for opts on a tree with the given
// leaves. A pipelined sink takes over prev's encoder, joined by Reset,
// when there is one: a warm engine reuses its buffers.
func newStreamState(opts Options, leaves []tree.NodeID, prev *streamState) *streamState {
	st := &streamState{retain: opts.RetainJobs, sink: opts.Sink}
	st.acc.PerLeaf = make([]LeafTally, len(leaves))
	for li, v := range leaves {
		st.acc.PerLeaf[li].Leaf = v
	}
	if st.retain > 0 {
		st.ring = make([]JobMetrics, 0, st.retain)
	}
	if k, ok := opts.Sink.(*NDJSONSink); ok {
		if prev != nil && prev.enc != nil {
			st.enc = prev.enc
			st.enc.sink, st.enc.err = k, nil
		} else {
			st.enc = newEncoder(k)
		}
	}
	return st
}

// join is the end of a run for the sink: a pipelined sink's pending
// records are written and its goroutine stopped (see encoder.join).
// Drain, Reset and endRun call it, also on an engine without hooks
// (st nil).
func (st *streamState) join() {
	if st != nil && st.enc != nil {
		st.enc.join()
		st.sinkErr = st.enc.err
	}
}

// Encoding completions on a second core. JSON digits and the writer
// cost about a quarter of a streamed greedy run's CPU, all of it on
// the one goroutine that runs the event loop. A bare *NDJSONSink
// reads nothing but the record it is given, so the engine copies each
// record into a batch and one encoder goroutine calls Emit on every
// record of each full batch, in completion order. Every other sink
// stays on the engine goroutine: it may read engine state, or depend
// on when it is called.
const (
	// encodeBatch is how many records a batch holds. At a few hundred
	// records per hand-off the channel operations cost a few
	// nanoseconds per job.
	encodeBatch = 256
	// encodeBuffers is how many batch buffers an encoder owns: the
	// engine fills one while the encoder goroutine writes the other,
	// so the engine waits only when the encoder is a whole batch
	// behind.
	encodeBuffers = 2
)

// encoder runs one NDJSONSink on a goroutine of its own. The engine
// fills batch and hands it over todo; the goroutine emits it and
// returns the emptied buffer over free. The goroutine starts at the
// first hand-off and stops at join, so it never outlives a run.
type encoder struct {
	sink    *NDJSONSink
	batch   []JobMetrics
	todo    chan []JobMetrics // a nil batch stops the goroutine
	free    chan []JobMetrics
	done    chan struct{}
	running bool
	// err is the sink's first error and panicked a panic of its
	// writer. The goroutine writes them; the engine reads them only
	// after join has received from done.
	err      error
	panicked any
}

func newEncoder(k *NDJSONSink) *encoder {
	// Each channel can hold every buffer at once (todo also the stop
	// signal, sent while the engine holds a buffer), so no send waits.
	e := &encoder{
		sink: k,
		todo: make(chan []JobMetrics, encodeBuffers),
		free: make(chan []JobMetrics, encodeBuffers),
		done: make(chan struct{}),
	}
	e.batch = make([]JobMetrics, 0, encodeBatch)
	for range encodeBuffers - 1 {
		e.free <- make([]JobMetrics, 0, encodeBatch)
	}
	return e
}

// add copies m into the batch, handing the batch over once full.
func (e *encoder) add(m *JobMetrics) {
	e.batch = append(e.batch, *m)
	if len(e.batch) == encodeBatch {
		e.hand()
	}
}

// hand queues the batch for the goroutine, starting it if need be,
// and takes an empty buffer, waiting while none is free.
func (e *encoder) hand() {
	if !e.running {
		e.running = true
		go e.loop()
	}
	e.todo <- e.batch
	e.batch = <-e.free
}

// loop is the encoder goroutine. After the sink's first error or a
// panic of its writer it emits nothing more, as a synchronous sink
// would not, but keeps returning buffers so the engine never blocks.
func (e *encoder) loop() {
	for b := range e.todo {
		if b == nil {
			break
		}
		if e.err == nil && e.panicked == nil {
			e.emit(b)
		}
		e.free <- b[:0]
	}
	e.done <- struct{}{}
}

// emit writes b through the sink, stopping at its first error. A
// panic of the writer is kept for join to raise on the caller's
// goroutine: raised here, it would end the process.
func (e *encoder) emit(b []JobMetrics) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
		}
	}()
	for i := range b {
		if e.err = e.sink.Emit(&b[i]); e.err != nil {
			return
		}
	}
}

// join writes the pending records, stops the goroutine and raises a
// panic of the writer on the caller's goroutine. After join the
// writer is the caller's again; the next hand-off starts a new
// goroutine.
func (e *encoder) join() {
	if len(e.batch) > 0 {
		e.hand()
	}
	if !e.running {
		return
	}
	e.todo <- nil
	<-e.done
	e.running = false
	if p := e.panicked; p != nil {
		e.panicked = nil
		panic(p)
	}
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
