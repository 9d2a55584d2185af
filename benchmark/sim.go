package main

import (
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"runtime"
	"time"

	"treesched"
)

const (
	// simSetups is how many times an offline run repeats its set-up to
	// time it. Set-ups in one run varied by up to 40%, so the median of
	// five moved by a quarter from run to run.
	simSetups = 15

	// wideScenario streams greedy dispatch over 1024 leaves, keeping
	// one completion in memory.
	wideScenario = "topo=fattree:32,1,32 speed=1.5 assigner=greedy-identical stream retain=1"
	// wideRate is sim-wide's job count per second of run length.
	wideRate = 400_000
	// wideWindows is how many equal job-count windows sim-wide is
	// split into, and wideSlices how many timed slices each has (1,000
	// jobs each at 10 seconds).
	wideWindows = 40
	wideSlices  = 100

	// deepScenario is oblivious dispatch over depth-6 paths with
	// brown-outs, so the event loop does nearly all the work.
	deepScenario = "topo=fattree:2,5,1 speed=1.5 assigner=roundrobin faults=brownouts:20,50,0.5"
	// deepRate is sim-deep's trace length per second of run length.
	deepRate = 20_000
	// deepReplays is how many warm replays of the trace sim-deep times,
	// each split into deepSlices equal job-count slices (4,000 jobs each
	// at 10 seconds).
	deepReplays = 40
	deepSlices  = 50
)

// simWide is an offline streamed run on a wide tree: greedy dispatch's
// per-arrival query dominates.
type simWide struct {
	cfg    *config
	n      int
	prefix int
	inst   *treesched.Instance
	// eng is the engine the last set-up ran cold; the timed passes
	// reuse it warm, so their peak memory is the engine's steady state
	// rather than the garbage-collection timing of its growth.
	eng *treesched.Sim
	// refDigest and refFlow are the untraced pass's outputs, which the
	// ledger's replay must reproduce.
	refDigest uint64
	refFlow   float64
}

func newSimWide(cfg *config) (bench, error) {
	n := int(math.Round(wideRate * cfg.seconds))
	if n < 1 {
		return nil, fmt.Errorf("-seconds %v leaves no jobs", cfg.seconds)
	}
	return &simWide{cfg: cfg, n: n, prefix: max(1, n/40)}, nil
}

func (b *simWide) source(n int) (treesched.ArrivalSource, error) {
	return treesched.PoissonSource(b.cfg.seed, n, load, b.inst.Tree)
}

func (b *simWide) path() []string {
	return []string{mGenerate, mAssign, mAdvance, mInject, mDrain, mEncode}
}

// setup builds the scenario and an engine, and streams a cold run of a
// prefix of the jobs on it.
func (b *simWide) setup() (setupS, buildS []float64, err error) {
	for i := 0; i < simSetups; i++ {
		b.eng = nil
		runtime.GC() // so one set-up's garbage does not raise the next one's peak
		t0 := time.Now()
		sc, err := treesched.ParseScenario([]byte(wideScenario))
		if err != nil {
			return nil, nil, err
		}
		if b.inst, err = sc.Build(); err != nil {
			return nil, nil, err
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		src, err := b.source(b.prefix)
		if err != nil {
			return nil, nil, err
		}
		asg, err := b.inst.NewAssigner()
		if err != nil {
			return nil, nil, err
		}
		opts := b.inst.Opts
		opts.Sink = treesched.NewNDJSONSink(io.Discard)
		b.eng = treesched.NewSim(b.inst.Tree, opts)
		if _, err := treesched.RunStreamOn(b.eng, src, asg); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	return setupS, buildS, nil
}

// checkPrefix streams a prefix of the jobs and runs it materialized,
// and returns how many jobs' metrics differ. It holds every job of the
// prefix in memory, so it runs after the timed phase's peak is read.
func (b *simWide) checkPrefix() (int64, error) {
	src, err := b.source(b.prefix)
	if err != nil {
		return 0, err
	}
	asg, err := b.inst.NewAssigner()
	if err != nil {
		return 0, err
	}
	col := &collectSink{}
	opts := b.inst.Opts
	opts.Sink = col
	if _, err := treesched.RunStream(b.inst.Tree, src, asg, opts); err != nil {
		return 0, err
	}
	tr, err := treesched.PoissonTrace(b.cfg.seed, b.prefix, load, b.inst.Tree)
	if err != nil {
		return 0, err
	}
	if asg, err = b.inst.NewAssigner(); err != nil {
		return 0, err
	}
	opts.Sink = nil
	opts.RetainJobs = 0
	res, err := treesched.Run(b.inst.Tree, tr, asg, opts)
	if err != nil {
		return 0, err
	}
	diff := int64(max(0, len(res.Jobs)-len(col.jobs)))
	for i := range col.jobs {
		m := &col.jobs[i]
		if m.ID < 0 || m.ID >= len(res.Jobs) || res.Jobs[m.ID] != *m {
			diff++
		}
	}
	return diff, nil
}

// collectSink keeps a copy of every completion.
type collectSink struct{ jobs []treesched.JobMetrics }

func (k *collectSink) Emit(m *treesched.JobMetrics) error {
	k.jobs = append(k.jobs, *m)
	return nil
}

// sliceSource times each equal job-count slice of the stream it wraps,
// and records the process's CPU time, less clock spins, at the end of
// each window of slices; traced, it also records a span per window and
// per sampled job's generation.
type sliceSource struct {
	src   treesched.ArrivalSource
	every int // jobs per slice
	total int
	n     int
	clock slicer
	cpus  []time.Duration
	tr    *tracer
	root  int
	cur   int // current window span
}

func (s *sliceSource) Next() (treesched.Job, bool) {
	if s.tr != nil && s.n%(s.every*wideSlices) == 0 && s.n < s.total {
		s.cur = s.tr.begin("window", -1, s.root)
	}
	var j treesched.Job
	var ok bool
	if s.tr == nil || !sampled(s.n) {
		j, ok = s.src.Next()
	} else {
		t0 := time.Now()
		j, ok = s.src.Next()
		s.tr.add("generate", s.n, s.cur, t0, time.Now())
	}
	if !ok {
		return j, ok
	}
	if s.n++; s.n%s.every == 0 {
		s.clock.mark()
		if len(s.clock.ms)%wideSlices == 0 {
			s.cpus = append(s.cpus, selfCPU()-s.clock.spun)
			s.tr.end(s.cur)
		}
	}
	return j, ok
}

func (s *sliceSource) Err() error { return s.src.Err() }

// tracedAssigner records a span around each sampled job's dispatch.
type tracedAssigner struct {
	treesched.Assigner
	seg *sliceSource
}

func (a tracedAssigner) Assign(q *treesched.Query, arr *treesched.Arrival) treesched.NodeID {
	if !sampled(arr.ID) {
		return a.Assigner.Assign(q, arr)
	}
	t0 := time.Now()
	leaf := a.Assigner.Assign(q, arr)
	a.seg.tr.add("assign", arr.ID, a.seg.cur, t0, time.Now())
	return leaf
}

// tracedSink records a span around each sampled job's encoding.
type tracedSink struct {
	inner treesched.JobSink
	seg   *sliceSource
}

func (k tracedSink) Emit(m *treesched.JobMetrics) error {
	if !sampled(m.ID) {
		return k.inner.Emit(m)
	}
	t0 := time.Now()
	err := k.inner.Emit(m)
	k.seg.tr.add("encode", m.ID, k.seg.cur, t0, time.Now())
	return err
}

func (b *simWide) measure(tr *tracer) (*pass, error) {
	src, err := b.source(b.n)
	if err != nil {
		return nil, err
	}
	asg, err := b.inst.NewAssigner()
	if err != nil {
		return nil, err
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	seg := &sliceSource{src: src, every: max(1, b.n/(wideWindows*wideSlices)), total: b.n, tr: tr}
	var sink treesched.JobSink = treesched.NewNDJSONSink(&h)
	if tr != nil {
		asg = tracedAssigner{asg, seg}
		sink = tracedSink{sink, seg}
	}
	opts := b.inst.Opts
	opts.Sink = sink
	b.eng.Reset(opts)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	start := time.Now()
	seg.root = tr.begin("sim-wide", -1, -1)
	seg.clock.begin()
	res, err := treesched.RunStreamOn(b.eng, seg, asg)
	tr.end(seg.root)
	wall := time.Since(start) - seg.clock.spun
	cpu := selfCPU() - cpu0 - seg.clock.spun
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSKiB("self")
	if err != nil {
		return nil, err
	}
	p := &pass{
		jobs:      int64(b.n),
		cpu:       cpu,
		wall:      wall,
		rssKiB:    rss,
		attempted: int64(b.n),
		digest:    h.Sum64(),
		meanFlow:  res.AvgFlow(),
		mallocs:   m1.Mallocs - m0.Mallocs,
	}
	if tr == nil {
		b.refDigest, b.refFlow = p.digest, p.meanFlow
		failed, err := b.checkPrefix()
		if err != nil {
			return nil, fmt.Errorf("prefix check: %w", err)
		}
		p.attempted += int64(b.prefix)
		p.failed += failed
	}
	slices := seg.clock.ms
	p.latency = percentile(sortedCopy(slices), sliceQuantile)
	prev := cpu0
	for k, c := range seg.cpus {
		p.windows = append(p.windows, window{
			lat:  slices[k*wideSlices : (k+1)*wideSlices],
			jobs: int64(seg.every * wideSlices),
			cpu:  c - prev,
		})
		prev = c
	}
	p.diag = []string{
		fmt.Sprintf("jobs_per_s=%.0f", float64(seg.every)/(median(slices)/1000)),
		fmt.Sprintf("slice_jobs=%d", seg.every),
		fmt.Sprintf("slices=%d", len(slices)),
	}
	return p, nil
}

func (b *simWide) ledger(tr *tracer) (*ledger, error) {
	src, err := b.source(b.n)
	if err != nil {
		return nil, err
	}
	asg, err := b.inst.NewAssigner()
	if err != nil {
		return nil, err
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	opts := b.inst.Opts
	opts.Sink = treesched.NewNDJSONSink(&h)
	l, err := runLedger(ledgerInput{tree: b.inst.Tree, opts: opts, asg: asg, src: src, batch: serveBulk.batch, eng: b.eng}, tr)
	if err != nil {
		return nil, err
	}
	if h.Sum64() != b.refDigest || l.stats.TotalFlow/float64(l.stats.Completed) != b.refFlow {
		l.mismatched += l.jobs
	}
	return l, nil
}

// simDeep replays one trace many times on a warm engine over a deep
// tree: dispatch is O(1), so the event loop does nearly all the work.
type simDeep struct {
	cfg    *config
	m      int
	sc     *treesched.Scenario
	runner *treesched.ScenarioRunner
	cold   *treesched.Result
	// checked and mismatched count the jobs of the cold runs after the
	// first, and of those whose Stats differed from the first's.
	checked, mismatched int64
}

func newSimDeep(cfg *config) (bench, error) {
	m := int(math.Round(deepRate * cfg.seconds))
	if m < 1 {
		return nil, fmt.Errorf("-seconds %v leaves no jobs", cfg.seconds)
	}
	sc, err := treesched.ParseScenario([]byte(deepScenario))
	if err != nil {
		return nil, err
	}
	tr, err := treesched.PoissonTrace(cfg.seed, m, load, treesched.FatTree(2, 5, 1))
	if err != nil {
		return nil, err
	}
	sc.Seed = cfg.seed
	sc.Workload.Jobs = tr.Jobs
	return &simDeep{cfg: cfg, m: m, sc: sc}, nil
}

func (b *simDeep) path() []string {
	return []string{mAssign, mAdvance, mInject, mDrain}
}

// opaqueSource hides a TraceSource's type, so the engine runs the trace
// through its incremental streaming loop instead of the materialized
// one.
type opaqueSource struct{ treesched.ArrivalSource }

// setup builds a warm-engine runner and runs it cold; every cold run
// must give the same Stats.
func (b *simDeep) setup() (setupS, buildS []float64, err error) {
	for i := 0; i < simSetups; i++ {
		b.runner = nil
		runtime.GC() // so one set-up's garbage does not raise the next one's peak
		t0 := time.Now()
		r, err := treesched.NewScenarioRunner(b.sc)
		if err != nil {
			return nil, nil, err
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		res, err := r.Run()
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if b.cold != nil {
			b.checked += int64(b.m)
			if res.Stats != b.cold.Stats {
				b.mismatched += int64(b.m)
			}
		}
		b.runner, b.cold = r, res
	}
	return setupS, buildS, nil
}

// checkStream runs the trace through the streaming loop and reports
// whether its Stats equal the cold run's.
func (b *simDeep) checkStream() (bool, error) {
	in := b.runner.Instance
	asg, err := in.NewAssigner()
	if err != nil {
		return false, err
	}
	res, err := treesched.RunStream(in.Tree, opaqueSource{treesched.NewTraceSource(in.Trace)}, asg, in.Opts)
	if err != nil {
		return false, err
	}
	return res.Stats == b.cold.Stats, nil
}

// slicedAssigner delegates to the workload's assigner and times every
// `every` arrivals as a slice of the replay (the caller marks the
// replay's end, so the last slice holds the drain); traced, it also
// records a span around each sampled dispatch.
type slicedAssigner struct {
	treesched.Assigner
	every  int
	clock  slicer
	tr     *tracer
	parent int
}

func (a *slicedAssigner) Assign(q *treesched.Query, arr *treesched.Arrival) treesched.NodeID {
	switch {
	case arr.ID == 0:
		a.clock.begin()
	case arr.ID%a.every == 0:
		a.clock.mark()
	}
	if a.tr == nil || !sampled(arr.ID) {
		return a.Assigner.Assign(q, arr)
	}
	t0 := time.Now()
	leaf := a.Assigner.Assign(q, arr)
	a.tr.add("assign", arr.ID, a.parent, t0, time.Now())
	return leaf
}

// measure replays the trace on the runner's warm engine, each replay
// exactly what Runner.Run does (Reset, a fresh assigner, RunOn) with
// the assigner wrapped to time slices of the replay. Each replay is a
// window; the latency is the time of one replay (replayQuantile).
func (b *simDeep) measure(tr *tracer) (*pass, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	in := b.runner.Instance
	s := b.runner.Sim()
	p := &pass{jobs: int64(deepReplays * b.m), attempted: int64(deepReplays * b.m)}
	var last *treesched.Result
	var replays [][]float64
	var spun time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	start := time.Now()
	root := tr.begin("sim-deep", -1, -1)
	for i := 0; i < deepReplays; i++ {
		inner, err := in.NewAssigner()
		if err != nil {
			return nil, err
		}
		sp := tr.begin("replay", -1, root)
		asg := &slicedAssigner{Assigner: inner, every: max(1, b.m/deepSlices), tr: tr, parent: sp}
		c0 := selfCPU()
		s.Reset(in.Opts)
		res, err := treesched.RunOn(s, in.Trace, asg)
		asg.clock.mark() // the last slice ends with the drain
		c1 := selfCPU() - asg.clock.spun
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		spun += asg.clock.spun
		replays = append(replays, asg.clock.ms)
		p.windows = append(p.windows, window{lat: asg.clock.ms, jobs: int64(b.m), cpu: c1 - c0})
		if res.Stats != b.cold.Stats {
			p.failed += int64(b.m)
		}
		last = res
	}
	tr.end(root)
	p.wall = time.Since(start) - spun
	p.cpu = selfCPU() - cpu0 - spun
	runtime.ReadMemStats(&m1)
	p.latency = replayQuantile(replays, sliceQuantile)
	p.mallocs = m1.Mallocs - m0.Mallocs
	rss, err := peakRSSKiB("self")
	if err != nil {
		return nil, err
	}
	p.rssKiB = rss
	p.meanFlow = last.AvgFlow()
	st := last.Stats
	for _, f := range []float64{st.TotalFlow, st.WeightedFlow, st.FracFlow, st.ActiveIntegral, st.MaxFlow, st.Makespan, float64(st.Events), float64(st.Completed)} {
		p.digest = (p.digest ^ math.Float64bits(f)) * 1099511628211
	}
	if tr == nil {
		same, err := b.checkStream()
		if err != nil {
			return nil, fmt.Errorf("streaming check: %w", err)
		}
		p.attempted += b.checked + int64(b.m)
		p.failed += b.mismatched
		if !same {
			p.failed += int64(b.m)
		}
	}
	var sums []float64
	for _, r := range replays {
		sums = append(sums, sum(r))
	}
	p.diag = []string{
		fmt.Sprintf("jobs_per_s=%.0f", float64(b.m)/(p.latency/1000)),
		fmt.Sprintf("replay_p50_ms=%.3f", median(sums)),
		fmt.Sprintf("replays=%d", deepReplays),
		fmt.Sprintf("slices_per_replay=%d", len(replays[0])),
	}
	return p, nil
}

func (b *simDeep) ledger(tr *tracer) (*ledger, error) {
	in := b.runner.Instance
	asg, err := in.NewAssigner()
	if err != nil {
		return nil, err
	}
	l, err := runLedger(ledgerInput{tree: in.Tree, opts: in.Opts, asg: asg, src: treesched.NewTraceSource(in.Trace), batch: serveBulk.batch, eng: b.runner.Sim()}, tr)
	if err != nil {
		return nil, err
	}
	if l.stats != b.cold.Stats {
		l.mismatched += l.jobs
	}
	return l, l.encodeBlock(b.cold.Jobs)
}
