package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"treesched"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

// ledgerChunk is how many jobs each ledger phase handles before the
// next phase runs: phases stay contiguous spans while memory stays
// bounded on multi-million-job workloads.
const ledgerChunk = 1 << 16

// ledgerInput is what the ledger replays: a workload's job stream and
// the engine configuration its system runs them on.
type ledgerInput struct {
	tree *treesched.Tree
	// opts are the engine options; a Sink is timed as the encode layer.
	opts treesched.Options
	asg  treesched.Assigner
	src  treesched.ArrivalSource
	// batch is the number of jobs per request body when decoding.
	batch int
	// eng, when set, is the warm engine the workload's system runs on;
	// the ledger resets and reuses it. Otherwise it builds a fresh one,
	// as a daemon does.
	eng *treesched.Sim
}

// ledger is what each layer cost, in nanoseconds summed over the jobs,
// when the workload's jobs pass through the layers one public function
// at a time: the generator, the NDJSON decoder over the exact request
// bodies a client posts, admission (Job.Validate and the backlog
// estimator), and the engine driven the way its own dispatch loop
// drives it (AdvanceTo, Query and Assign, Inject per job; Drain at the
// end), with completion encoding timed inside it.
type ledger struct {
	jobs                                                    int64
	generate, decode, admit, assign, advance, inject, drain float64
	encode                                                  float64
	encoded                                                 int64
	events                                                  int64
	mallocs                                                 uint64
	// mismatched counts decoded jobs that differ from the generated
	// ones.
	mismatched int64
	stats      treesched.Stats
}

// clockCost is the mean cost of one time.Now call. Every interval the
// ledger times includes about one clock read, which it subtracts.
func clockCost() time.Duration {
	const n = 1 << 16
	t0 := time.Now()
	var t time.Time
	for i := 0; i < n; i++ {
		t = time.Now()
	}
	return t.Sub(t0) / n
}

// timedSink times every Emit of the sink it wraps: the encode layer.
type timedSink struct {
	inner  treesched.JobSink
	ns     time.Duration
	emits  int64
	tr     *tracer
	parent int
}

func (k *timedSink) Emit(m *treesched.JobMetrics) error {
	t0 := time.Now()
	err := k.inner.Emit(m)
	t1 := time.Now()
	k.ns += t1.Sub(t0)
	k.emits++
	if k.tr != nil && sampled(m.ID) {
		k.tr.add("ledger.encode", m.ID, k.parent, t0, t1)
	}
	return err
}

// runLedger replays in through the layers, timing each.
func runLedger(in ledgerInput, tr *tracer) (*ledger, error) {
	c := clockCost()
	opts := in.opts
	sink := &timedSink{inner: opts.Sink, tr: tr}
	if opts.Sink != nil {
		opts.Sink = sink
	}
	s := in.eng
	if s == nil {
		s = treesched.NewSim(in.tree, opts)
	} else {
		s.Reset(opts)
	}
	est := sim.NewBacklogEstimator(sim.RootCapacity(in.tree))
	root := tr.begin("ledger", -1, -1)
	defer tr.end(root)

	l := &ledger{}
	gen := make([]treesched.Job, 0, ledgerChunk)
	dec := make([]treesched.Job, 0, ledgerChunk)
	var body []byte
	var ends []int
	a := &treesched.Arrival{}
	for {
		sp := tr.begin("ledger.generate", -1, root)
		t0 := time.Now()
		gen = gen[:0]
		for len(gen) < ledgerChunk {
			j, ok := in.src.Next()
			if !ok {
				break
			}
			gen = append(gen, j)
		}
		l.generate += float64(time.Since(t0) - c)
		tr.end(sp)
		if err := in.src.Err(); err != nil {
			return nil, fmt.Errorf("ledger: generating jobs: %w", err)
		}
		if len(gen) == 0 {
			break
		}

		// The request bodies exactly as the load generator encodes them
		// (untimed: that is client work).
		body, ends = body[:0], ends[:0]
		for i := range gen {
			var err error
			if body, err = workload.AppendJob(body, &gen[i]); err != nil {
				return nil, fmt.Errorf("ledger: %w", err)
			}
			body = append(body, '\n')
			if (i+1)%in.batch == 0 || i == len(gen)-1 {
				ends = append(ends, len(body))
			}
		}

		sp = tr.begin("ledger.decode", -1, root)
		t0 = time.Now()
		dec = dec[:0]
		from := 0
		for _, to := range ends {
			d := workload.NewNDJSONSource(bytes.NewReader(body[from:to]))
			for {
				j, ok := d.Next()
				if !ok {
					break
				}
				dec = append(dec, j)
			}
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("ledger: decoding: %w", err)
			}
			from = to
		}
		l.decode += float64(time.Since(t0) - c)
		tr.end(sp)
		if len(dec) != len(gen) {
			return nil, fmt.Errorf("ledger: decoded %d jobs from %d encoded", len(dec), len(gen))
		}
		for i := range gen {
			if !sameJob(&gen[i], &dec[i]) {
				l.mismatched++
			}
		}

		sp = tr.begin("ledger.admit", -1, root)
		t0 = time.Now()
		for i := range dec {
			j := &dec[i]
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("ledger: admission: %w", err)
			}
			est.AdvanceTo(j.Release)
			est.Offer(j.Release, j.Size)
		}
		l.admit += float64(time.Since(t0) - c)
		tr.end(sp)

		sp = tr.begin("ledger.engine", -1, root)
		sink.parent = sp
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t3 := time.Now()
		for i := range dec {
			j := &dec[i]
			e0, n0 := sink.ns, sink.emits
			t0 := t3
			s.AdvanceTo(j.Release)
			t1 := time.Now()
			e1, n1 := sink.ns, sink.emits
			*a = treesched.Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: treesched.NodeID(j.Origin), Weight: j.Weight}
			leaf := in.asg.Assign(s.Query(), a)
			t2 := time.Now()
			if _, err := s.Inject(a, leaf); err != nil {
				return nil, fmt.Errorf("ledger: inject: %w", err)
			}
			t3 = time.Now()
			// Each interval is charged one clock read, and each Emit
			// inside it its own time plus one more read.
			l.advance += float64(t1.Sub(t0) - c - (e1 - e0) - c*time.Duration(n1-n0))
			l.assign += float64(t2.Sub(t1) - c)
			l.inject += float64(t3.Sub(t2) - c - (sink.ns - e1) - c*time.Duration(sink.emits-n1))
			if tr != nil && sampled(j.ID) {
				tr.add("ledger.advance", j.ID, sp, t0, t1)
				tr.add("ledger.assign", j.ID, sp, t1, t2)
				tr.add("ledger.inject", j.ID, sp, t2, t3)
			}
		}
		runtime.ReadMemStats(&m1)
		l.mallocs += m1.Mallocs - m0.Mallocs
		tr.end(sp)
		l.jobs += int64(len(dec))
	}

	sp := tr.begin("ledger.drain", -1, root)
	sink.parent = sp
	e0, n0 := sink.ns, sink.emits
	t0 := time.Now()
	if err := s.Drain(); err != nil {
		return nil, fmt.Errorf("ledger: drain: %w", err)
	}
	l.drain = float64(time.Since(t0) - c - (sink.ns - e0) - c*time.Duration(sink.emits-n0))
	tr.end(sp)
	l.encode = float64(sink.ns - c*time.Duration(sink.emits))
	l.encoded = sink.emits
	l.stats = s.Stats()
	l.events = l.stats.Events
	return l, nil
}

// sameJob reports whether two jobs are identical field for field.
func sameJob(a, b *treesched.Job) bool {
	if a.ID != b.ID || a.Release != b.Release || a.Size != b.Size || a.Weight != b.Weight ||
		a.Origin != b.Origin || len(a.LeafSizes) != len(b.LeafSizes) {
		return false
	}
	for i := range a.LeafSizes {
		if a.LeafSizes[i] != b.LeafSizes[i] {
			return false
		}
	}
	return true
}

// encodeBlock times the completion encoder over finished jobs, for a
// workload whose engine runs without a sink.
func (l *ledger) encodeBlock(jobs []treesched.JobMetrics) error {
	var buf []byte
	t0 := time.Now()
	for i := range jobs {
		var err error
		if buf, err = sim.AppendJobMetrics(buf[:0], &jobs[i]); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
	}
	l.encode = float64(time.Since(t0))
	l.encoded = int64(len(jobs))
	return nil
}

// appendSink encodes each completion the way the daemon's fan-out
// does, into a reused buffer, and discards it.
type appendSink struct{ buf []byte }

func (k *appendSink) Emit(m *treesched.JobMetrics) error {
	var err error
	k.buf, err = sim.AppendJobMetrics(k.buf[:0], m)
	return err
}

// The layer metrics, in ledger order.
const (
	mGenerate = "workload.generate_ns_per_job"
	mDecode   = "workload.decode_ns_per_job"
	mAdmit    = "server.admit_ns_per_job"
	mAssign   = "sim.assign_ns_per_job"
	mAdvance  = "sim.advance_ns_per_job"
	mInject   = "sim.inject_ns_per_job"
	mDrain    = "sim.drain_ns_per_job"
	mEncode   = "sim.encode_ns_per_job"
)

// perJob returns each layer's cost per job in nanoseconds.
func (l *ledger) perJob() map[string]float64 {
	n := float64(l.jobs)
	enc := 0.0
	if l.encoded > 0 {
		enc = l.encode / float64(l.encoded)
	}
	return map[string]float64{
		mGenerate: l.generate / n,
		mDecode:   l.decode / n,
		mAdmit:    l.admit / n,
		mAssign:   l.assign / n,
		mAdvance:  l.advance / n,
		mInject:   l.inject / n,
		mDrain:    l.drain / n,
		mEncode:   enc,
	}
}

// engineNs is the bare engine's cost per job: dispatch plus the event
// loop, without encoding.
func (l *ledger) engineNs() float64 {
	return (l.assign + l.advance + l.inject + l.drain) / float64(l.jobs)
}
