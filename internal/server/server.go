// Package server wraps the streaming engine in a long-lived
// scheduler daemon: jobs arrive as NDJSON over HTTP, pass through a
// bounded admission queue with watermark-based load shedding, run on
// the engine's streaming pipeline, and completions fan out to
// subscriber NDJSON streams.
//
// The determinism contract: the engine goroutine is literally
// sim.RunStreamOn over the admission queue, and streaming hooks force
// sequential execution, so the sequence of accepted jobs produces
// per-job NDJSON byte-identical to an offline sim.RunStream over the
// same trace (pinned by TestCompletionsByteIdentical). Admission
// control only decides *which* jobs enter that sequence, never how
// they run.
//
// Clock semantics: the engine runs on virtual time that advances on
// arrivals and at drain. Between arrivals the engine blocks waiting
// for the next job, so completions for a quiet stream surface at the
// next arrival or at drain — a client that stops submitting sees its
// tail of completions only after POST /drain.
package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"treesched/internal/scenario"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

// Config tunes the daemon. Scenario is the only required field and
// must be a serve scenario (Engine.Serve set): topology, speeds,
// policy and assigner come from it; the workload comes from clients.
// The other fields keep their defaults at 0; New rejects a negative
// one, or a NaN ShedBacklog, with an error naming the field.
type Config struct {
	Scenario *scenario.Scenario
	// QueueDepth bounds the admission queue (jobs accepted but not
	// yet injected). A full queue sheds. Default 1024.
	QueueDepth int
	// ShedBacklog is the load-shedding watermark, in units of work:
	// when the fluid backlog estimate (offered work minus what the
	// tree's root capacity drains as virtual time advances) exceeds
	// it, new jobs are shed with 429 until the estimate falls below
	// half the watermark (hysteresis, so admission does not flap at
	// the boundary). 0 disables backlog shedding; the queue bound
	// still applies.
	ShedBacklog float64
	// RetryAfter is the hint returned in the Retry-After header with
	// every 429. Note the fluid backlog drains only as later releases
	// arrive — re-submitting the same release after the delay cannot
	// drain it, so retries only help against queue-depth shedding or
	// when other clients keep the release frontier moving. Default 1s.
	RetryAfter time.Duration
	// MaxLineBytes bounds one NDJSON line of a job submission
	// (workload.SourceLimits.MaxLineBytes). Default 1 MiB.
	MaxLineBytes int
	// StallTimeout bounds how long a submission body may go without
	// producing bytes (workload.SourceLimits.Stall). Default 30s.
	StallTimeout time.Duration
	// SubscriberBuffer is the per-completion-subscriber channel depth,
	// in chunks of up to FlushLines completion lines each; a
	// subscriber that falls further behind is dropped so one slow
	// reader cannot stall the engine. Default 256.
	SubscriberBuffer int
	// FlushLines caps how many completion lines the fan-out coalesces
	// into one chunk before snapshotting stats and distributing to
	// subscribers. Larger chunks amortize the per-completion lock and
	// flush costs; smaller ones tighten delivery latency. Latency is
	// bounded regardless: the fan-out also flushes whenever the engine
	// is about to go idle on an empty admission queue, so a quiet
	// stream never holds completed lines back. Default 64.
	FlushLines int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// validate rejects a negative size, duration or watermark, and a NaN
// watermark: the helpers below would read some of them as the default
// and hand others to the guards they configure.
func (c *Config) validate() error {
	for _, f := range []struct {
		name string
		bad  bool
		val  any
	}{
		{"QueueDepth", c.QueueDepth < 0, c.QueueDepth},
		{"ShedBacklog", !(c.ShedBacklog >= 0), c.ShedBacklog},
		{"RetryAfter", c.RetryAfter < 0, c.RetryAfter},
		{"MaxLineBytes", c.MaxLineBytes < 0, c.MaxLineBytes},
		{"StallTimeout", c.StallTimeout < 0, c.StallTimeout},
		{"SubscriberBuffer", c.SubscriberBuffer < 0, c.SubscriberBuffer},
		{"FlushLines", c.FlushLines < 0, c.FlushLines},
	} {
		if f.bad {
			return fmt.Errorf("server: config.%s is %v, want >= 0", f.name, f.val)
		}
	}
	return nil
}

func (c *Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 1024
	}
	return c.QueueDepth
}

func (c *Config) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return time.Second
	}
	return c.RetryAfter
}

func (c *Config) limits() workload.SourceLimits {
	lim := workload.SourceLimits{MaxLineBytes: c.MaxLineBytes, Stall: c.StallTimeout}
	if lim.MaxLineBytes == 0 {
		lim.MaxLineBytes = 1 << 20
	}
	if lim.Stall == 0 {
		lim.Stall = 30 * time.Second
	}
	return lim
}

func (c *Config) subscriberBuffer() int {
	if c.SubscriberBuffer <= 0 {
		return 256
	}
	return c.SubscriberBuffer
}

func (c *Config) flushLines() int {
	if c.FlushLines <= 0 {
		return 64
	}
	return c.FlushLines
}

// StatsView is the live /stats payload: the admission controller's
// counters plus a snapshot of the engine's streaming accumulator.
type StatsView struct {
	// Accepted counts jobs admitted to the engine; Shed counts 429'd
	// jobs; Rejected counts malformed submissions (400).
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Rejected int `json:"rejected"`
	// QueueLen is the current admission-queue depth.
	QueueLen int `json:"queue_len"`
	// Backlog is the fluid backlog estimate (units of work) at the
	// admission frontier; DrainTime is Backlog over root capacity;
	// Utilization is offered work over capacity × elapsed virtual
	// time (>= 1 means the offered load is unstable).
	Backlog     float64 `json:"backlog"`
	DrainTime   float64 `json:"drain_time"`
	Utilization float64 `json:"utilization"`
	Stable      bool    `json:"stable"`
	// Shedding/Draining/Drained are the admission state machine.
	Shedding bool `json:"shedding"`
	Draining bool `json:"draining"`
	Drained  bool `json:"drained"`
	// Completed and the flow statistics mirror sim.StreamStats,
	// snapshotted at the last completion.
	Completed  int     `json:"completed"`
	TotalFlow  float64 `json:"total_flow"`
	MaxFlow    float64 `json:"max_flow"`
	Makespan   float64 `json:"makespan"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// Subscribers is the live completion-stream count; Dropped counts
	// subscribers disconnected for falling behind.
	Subscribers int             `json:"subscribers"`
	Dropped     int             `json:"dropped_subscribers"`
	PerLeaf     []sim.LeafTally `json:"per_leaf,omitempty"`
	// Err surfaces an engine failure (empty while healthy).
	Err string `json:"err,omitempty"`
}

// AdmitResult is the POST /jobs response body.
type AdmitResult struct {
	// Accepted is how many jobs of the submission were admitted; they
	// received the dense engine IDs FirstID..FirstID+Accepted-1 in
	// submission order (the daemon owns job IDs — client-supplied IDs
	// are ignored).
	Accepted int `json:"accepted"`
	FirstID  int `json:"first_id"`
	// Shed is 1 when admission stopped at a shed job (status 429);
	// the shed job and everything after it in the body were not
	// admitted and may be resubmitted.
	Shed int `json:"shed"`
	// Error explains a 400/503 (empty on success).
	Error string `json:"error,omitempty"`
}

// subscriber is one /completions stream: a channel of ready-to-write
// NDJSON chunks (each one or more whole lines), closed by the fanout
// when the run ends or the subscriber falls behind.
type subscriber struct {
	ch      chan []byte
	dropped bool
}

// Server is the daemon: one engine goroutine consuming the admission
// queue, an HTTP handler feeding it, and a completion fanout.
type Server struct {
	cfg  Config
	inst *scenario.Instance
	sim  *sim.Sim

	// mu serializes admission: the shed/drain state machine, dense ID
	// assignment, the release frontier, the backlog estimator, and
	// sends on in. Drain closes in under the same lock, so a send on
	// a closed channel is impossible. Admission is batched — one lock
	// acquisition stamps a whole read-ahead batch (admitBatch).
	mu          sync.Mutex
	in          chan []workload.Job
	nextID      int
	lastRelease float64
	est         *sim.BacklogEstimator
	shedding    bool
	draining    bool
	accepted    int
	shed        int
	rejected    int

	// queued counts jobs admitted but not yet handed to the engine
	// (the admission-queue depth, across the batches in flight).
	// Incremented under mu at admission; decremented lock-free by the
	// engine as it consumes jobs, which is what lets the capacity gate
	// read it without talking to the engine goroutine.
	queued atomic.Int64

	fanout *fanoutSink

	// statsMu guards the engine-side snapshot, written by the fanout
	// sink on the engine goroutine at each completion.
	statsMu    sync.Mutex
	statsCopy  sim.StreamStats
	engineErr  error
	drained    bool
	completedW int // completions at last wall-clock sample

	// subMu guards the completion subscribers.
	subMu      sync.Mutex
	subs       map[int]*subscriber
	nextSub    int
	subsClosed bool
	dropped    int

	// nsubs mirrors len(subs) for the engine goroutine: the fan-out
	// sink reads it lock-free at every completion to skip NDJSON
	// encoding entirely while nobody is streaming — a daemon with no
	// attached completion readers pays no marshal cost at all.
	nsubs atomic.Int32

	start time.Time
	done  chan struct{}
}

// New builds the daemon from cfg: the scenario is Built (topology,
// policy, assigner resolved; no trace) and the engine goroutine
// starts immediately, blocking on the empty admission queue.
func New(cfg Config) (*Server, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("server: config needs a scenario")
	}
	if !cfg.Scenario.Engine.Serve {
		return nil, fmt.Errorf("server: scenario must set engine.serve (got an offline scenario)")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	in, err := cfg.Scenario.Build()
	if err != nil {
		return nil, err
	}
	opts := in.Opts
	if opts.RetainJobs == 0 {
		// A long-lived daemon must not retain every completion: full
		// retention grows the engine's task table with the total job
		// count. Keep the minimum window unless the scenario asked
		// for a larger one.
		opts.RetainJobs = 1
	}
	s := &Server{
		cfg:  cfg,
		inst: in,
		// Capacity queueDepth batches: every batch holds at least one
		// queued job and the capacity gate keeps queued <= queueDepth,
		// so at most queueDepth batches are ever in flight and the
		// admission-side send can never block.
		in:    make(chan []workload.Job, cfg.queueDepth()),
		est:   sim.NewBacklogEstimator(sim.RootCapacity(in.Tree)),
		subs:  make(map[int]*subscriber),
		start: time.Now(),
		done:  make(chan struct{}),
	}
	// The chunk buffer is sized for full-precision metric lines up
	// front; flush hands it off only when a subscriber received it.
	s.fanout = &fanoutSink{s: s, max: cfg.flushLines(), buf: make([]byte, 0, 128*cfg.flushLines())}
	opts.Sink = s.fanout
	s.statsCopy.PerLeaf = make([]sim.LeafTally, len(in.Tree.Leaves()))
	s.sim = sim.New(in.Tree, opts)
	go s.engineLoop()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// admitReadAhead is how many submitted lines handleJobs reads ahead
// into one admission batch: one read deadline refresh and one lock
// acquisition per up-to-256 jobs instead of per job.
const admitReadAhead = 256

// freeBatches recycles admission batch slices between handlers and
// engines, shared process-wide so a fresh daemon starts with its
// predecessors' warm batches (a typed channel rather than sync.Pool:
// batch slices would box on every Put).
var freeBatches = make(chan []workload.Job, 16)

// getBatch hands out a recycled (or fresh) admission batch slice.
func (s *Server) getBatch() []workload.Job {
	select {
	case b := <-freeBatches:
		return b[:0]
	default:
		return make([]workload.Job, 0, admitReadAhead)
	}
}

// putBatch returns a batch slice for reuse.
func (s *Server) putBatch(b []workload.Job) {
	if cap(b) == 0 {
		return
	}
	select {
	case freeBatches <- b[:0]:
	default:
	}
}

// queueSource adapts the admission queue to workload.ArrivalSource,
// unpacking admitted batches job by job. Next blocks until a batch is
// admitted or the queue is closed by Drain. Admission already
// validated everything the streaming loop checks, so the engine loop
// cannot fail on client input. Before any blocking receive it flushes the
// completion fan-out: the engine is about to go idle, so whatever the
// last injections completed must not sit in the chunk buffer waiting
// for the next arrival (the fan-out's latency bound).
type queueSource struct {
	s     *Server
	batch []workload.Job
	pos   int
}

func (q *queueSource) Next() (workload.Job, bool) {
	for q.pos >= len(q.batch) {
		if q.batch != nil {
			q.s.putBatch(q.batch)
			q.batch = nil
		}
		select {
		case b, ok := <-q.s.in:
			if !ok {
				return workload.Job{}, false
			}
			q.batch, q.pos = b, 0
		default:
			// Queue empty: deliver buffered completions, then block.
			q.s.fanout.flush()
			b, ok := <-q.s.in
			if !ok {
				return workload.Job{}, false
			}
			q.batch, q.pos = b, 0
		}
	}
	j := q.batch[q.pos]
	q.pos++
	q.s.queued.Add(-1)
	return j, true
}

func (q *queueSource) Err() error { return nil }

func (s *Server) engineLoop() {
	res, err := sim.RunStreamOn(s.sim, &queueSource{s: s}, s.inst.Assigner)
	// Deliver the tail chunk (completions since the last flush) before
	// the final stats copy and the subscriber close below.
	s.fanout.flush()
	s.statsMu.Lock()
	if err != nil {
		s.engineErr = err
	} else {
		s.drained = true
		if res.Stream != nil {
			s.copyStats(res.Stream)
		}
	}
	s.statsMu.Unlock()
	if err != nil {
		s.logf("engine failed: %v", err)
	}
	s.closeSubscribers()
	close(s.done)
}

// copyStats copies acc into the preallocated snapshot. Callers hold
// statsMu.
func (s *Server) copyStats(acc *sim.StreamStats) {
	per := s.statsCopy.PerLeaf
	s.statsCopy = *acc
	s.statsCopy.PerLeaf = per[:copy(per, acc.PerLeaf)]
}

// fanoutSink runs on the engine goroutine at every completion,
// coalescing lines into chunk buffers so the per-completion costs —
// stats snapshot under statsMu, subMu acquisition, one channel send
// per subscriber, and the subscriber's per-write Flush — are paid
// once per chunk instead of once per line. Lines are produced by the
// pooled append codec (sim.AppendJobMetrics), byte-for-byte what
// json.Encoder.Encode (sim.NDJSONSink) writes, which is what the
// byte-identity contract is pinned against. Latency stays bounded: a
// chunk flushes at max lines, and queueSource flushes whenever the
// engine is about to block on an empty queue. Engine goroutine only
// (the engine completes jobs one at a time), so no locking around buf.
type fanoutSink struct {
	s     *Server
	buf   []byte
	lines int
	max   int
}

func (f *fanoutSink) Emit(m *sim.JobMetrics) error {
	// No subscribers, no marshal: lines emitted while nobody is
	// streaming are unobservable (exactly as they were under per-line
	// fan-out), so only the flush cadence — which keeps the stats
	// snapshot fresh — is maintained.
	if f.s.nsubs.Load() > 0 {
		var err error
		if f.buf, err = sim.AppendJobMetrics(f.buf, m); err != nil {
			return err
		}
		f.buf = append(f.buf, '\n')
	}
	if f.lines++; f.lines >= f.max {
		f.flush()
	}
	return nil
}

// flush snapshots the stats accumulator and distributes the buffered
// chunk to every subscriber. No-op on an empty buffer. Subscribers
// share the chunk slice read-only; the buffer is reused only when no
// subscriber received it.
func (f *fanoutSink) flush() {
	if f.lines == 0 {
		return
	}
	s := f.s
	s.statsMu.Lock()
	s.copyStats(s.sim.StreamStats())
	s.statsMu.Unlock()
	chunk := f.buf
	f.lines = 0
	if len(chunk) == 0 {
		// Every line of the chunk was skipped (no subscribers at emit
		// time); the stats snapshot above was the flush's only job.
		return
	}
	sent := 0
	s.subMu.Lock()
	for id, sub := range s.subs {
		select {
		case sub.ch <- chunk:
			sent++
		default:
			// The subscriber's buffer is full: drop it rather than
			// block the engine. Closing the channel ends its handler.
			sub.dropped = true
			close(sub.ch)
			delete(s.subs, id)
			s.dropped++
		}
	}
	s.nsubs.Store(int32(len(s.subs)))
	s.subMu.Unlock()
	if sent == 0 {
		f.buf = chunk[:0]
	} else {
		f.buf = nil
	}
}

// subscribe registers a completion stream. The returned channel
// yields NDJSON lines and is closed at drain (or when the subscriber
// falls behind); a subscriber arriving after the run ended gets an
// immediately-closed channel.
func (s *Server) subscribe() (int, *subscriber) {
	sub := &subscriber{ch: make(chan []byte, s.cfg.subscriberBuffer())}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subsClosed {
		close(sub.ch)
		return -1, sub
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = sub
	s.nsubs.Store(int32(len(s.subs)))
	return id, sub
}

func (s *Server) unsubscribe(id int) {
	if id < 0 {
		return
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if sub, ok := s.subs[id]; ok {
		delete(s.subs, id)
		s.nsubs.Store(int32(len(s.subs)))
		close(sub.ch)
	}
}

func (s *Server) closeSubscribers() {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subsClosed {
		return
	}
	s.subsClosed = true
	for id, sub := range s.subs {
		close(sub.ch)
		delete(s.subs, id)
	}
	s.nsubs.Store(0)
}

// admitOutcome classifies one job's admission attempt.
type admitOutcome int

const (
	admitOK admitOutcome = iota
	admitShed
	admitDraining
	admitInvalid
	admitDead
)

// batchResult reports one admitBatch call: the admitted prefix, the
// dense engine ID of its first job (-1 when empty), and — when the
// whole batch was not admitted — the outcome that stopped admission
// (admitOK means all of it went in) with the reason on admitInvalid.
type batchResult struct {
	accepted int
	firstID  int
	outcome  admitOutcome
	err      error
}

// admitBatch runs the admission state machine over a whole read-ahead
// batch under one lock acquisition: per job it validates, advances
// the fluid frontier, applies the shed watermark with hysteresis and
// the queue-depth capacity gate, and stamps the dense engine ID in
// place. Admission stops at the first job that does not go in; the
// admitted prefix batch[:accepted] is handed to the engine as one
// slice (whose backing array the engine then owns — callers must not
// reuse it). The per-job outcome order matches the old one-job admit
// exactly, so partial-batch responses are unchanged.
func (s *Server) admitBatch(batch []workload.Job) batchResult {
	res := batchResult{firstID: -1, outcome: admitOK}
	s.statsMu.Lock()
	dead := s.engineErr != nil
	s.statsMu.Unlock()

	depth := int64(s.cfg.queueDepth())
	stop := func(out admitOutcome, err error) {
		res.outcome, res.err = out, err
	}
	s.mu.Lock()
	for i := range batch {
		j := &batch[i]
		if err := j.Validate(); err != nil {
			s.rejected++
			stop(admitInvalid, err)
			break
		}
		// The engine makes the same check per arrival; making it here
		// too turns a bad job into a 400 instead of an engine error
		// that would refuse every later batch.
		if err := sim.CheckArrival(s.inst.Tree, s.inst.Assigner, j); err != nil {
			s.rejected++
			stop(admitInvalid, err)
			break
		}
		if dead {
			stop(admitDead, nil)
			break
		}
		if s.draining {
			stop(admitDraining, nil)
			break
		}
		if j.Release < s.lastRelease {
			s.rejected++
			stop(admitInvalid, fmt.Errorf("server: job released at %v, before the admitted frontier %v (releases must be non-decreasing across submissions)", j.Release, s.lastRelease))
			break
		}
		// Every observed release advances the fluid clock, shed or not
		// — that is what lets the estimate drain and admission reopen.
		s.est.AdvanceTo(j.Release)
		if wm := s.cfg.ShedBacklog; wm > 0 {
			switch {
			case s.shedding && s.est.Backlog() < wm/2:
				s.shedding = false
			case !s.shedding && s.est.Backlog() > wm:
				s.shedding = true
			}
			if s.shedding {
				s.shed++
				stop(admitShed, nil)
				break
			}
		}
		if s.queued.Load() >= depth {
			// Queue full: the engine is not keeping up with wall-clock
			// arrival pressure. Shed rather than block the client.
			s.shed++
			stop(admitShed, nil)
			break
		}
		j.ID = s.nextID
		s.nextID++
		s.lastRelease = j.Release
		s.est.Offer(j.Release, j.Size)
		s.accepted++
		s.queued.Add(1)
		if res.firstID < 0 {
			res.firstID = j.ID
		}
		res.accepted++
	}
	if res.accepted > 0 {
		// Still under mu (Drain closes in under the same lock) and
		// never blocking: the capacity gate bounds batches in flight
		// below the channel capacity — see the comment at New.
		s.in <- batch[:res.accepted]
	}
	s.mu.Unlock()
	return res
}

func (s *Server) countRejected() {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// Drain stops admission (further submissions get 503), closes the
// queue so the engine injects what was accepted and drains, and waits
// for the engine to finish and the completion streams to flush.
// Idempotent; safe from any goroutine.
func (s *Server) Drain() error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.in)
	}
	s.mu.Unlock()
	<-s.done
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.engineErr
}

// Done exposes the engine-finished signal (closed after drain or an
// engine failure).
func (s *Server) Done() <-chan struct{} { return s.done }

// Stats assembles the live stats view.
func (s *Server) Stats() StatsView {
	var v StatsView
	s.mu.Lock()
	v.Accepted = s.accepted
	v.Shed = s.shed
	v.Rejected = s.rejected
	v.QueueLen = int(s.queued.Load())
	v.Backlog = s.est.Backlog()
	v.DrainTime = s.est.DrainTime(0)
	u := s.est.Utilization()
	v.Utilization = u
	v.Stable = s.est.Stable()
	v.Shedding = s.shedding
	v.Draining = s.draining
	s.mu.Unlock()
	if math.IsInf(u, 1) {
		// +Inf (all offered work at one instant) is not valid JSON.
		v.Utilization = math.MaxFloat64
	}
	s.statsMu.Lock()
	v.Completed = s.statsCopy.Completed
	v.TotalFlow = s.statsCopy.TotalFlow
	v.MaxFlow = s.statsCopy.MaxFlow
	v.Makespan = s.statsCopy.Makespan
	v.Drained = s.drained
	if s.engineErr != nil {
		v.Err = s.engineErr.Error()
	}
	per := make([]sim.LeafTally, len(s.statsCopy.PerLeaf))
	copy(per, s.statsCopy.PerLeaf)
	v.PerLeaf = per
	s.statsMu.Unlock()
	if wall := time.Since(s.start).Seconds(); wall > 0 {
		v.JobsPerSec = float64(v.Completed) / wall
	}
	s.subMu.Lock()
	v.Subscribers = len(s.subs)
	v.Dropped = s.dropped
	s.subMu.Unlock()
	return v
}

// Healthy reports whether the engine goroutine is alive (or finished
// cleanly).
func (s *Server) Healthy() bool {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.engineErr == nil
}

// Ready reports whether the daemon is currently admitting jobs.
func (s *Server) Ready() bool {
	if !s.Healthy() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}
