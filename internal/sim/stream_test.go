package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// recordSink collects every emitted JobMetrics (copying, since the
// pointer is only valid during Emit).
type recordSink struct {
	rows []JobMetrics
	fail error // returned after the first emission when set
}

func (k *recordSink) Emit(m *JobMetrics) error {
	if k.fail != nil && len(k.rows) > 0 {
		return k.fail
	}
	k.rows = append(k.rows, *m)
	return nil
}

// TestRunStreamMatchesRunOn is the streaming core contract: a full
// retention streamed run over a TraceSource is bit-identical to the
// materializing run — stats and every per-job metric.
func TestRunStreamMatchesRunOn(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 400)

	want, err := Run(tr, trace, &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats diverged: stream %+v, materialized %+v", got.Stats, want.Stats)
	}
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("job %d diverged: stream %+v, materialized %+v", i, got.Jobs[i], want.Jobs[i])
		}
	}
}

// TestRunStreamCompletionOrder: a Sink receives completions in
// completion order on trees with many root branches too — the emitted
// Completion never decreases — and each job exactly once.
func TestRunStreamCompletionOrder(t *testing.T) {
	for _, c := range []struct {
		tr   *tree.Tree
		seed uint64
	}{
		{tree.FatTree(4, 1, 2), 21},
		{tree.FatTree(2, 5, 1), 22},
		{tree.FatTree(32, 1, 32), 23},
	} {
		trace := shardTestTrace(t, c.seed, 5000, float64(len(c.tr.RootAdjacent())))
		k := &recordSink{}
		if _, err := RunStream(c.tr, workload.NewTraceSource(trace), &rrAssigner{}, Options{RetainJobs: 1, Sink: k}); err != nil {
			t.Fatal(err)
		}
		if len(k.rows) != len(trace.Jobs) {
			t.Fatalf("%d branches: %d completions emitted for %d jobs", len(c.tr.RootAdjacent()), len(k.rows), len(trace.Jobs))
		}
		seen := make([]bool, len(trace.Jobs))
		for i, m := range k.rows {
			if seen[m.ID] {
				t.Fatalf("job %d emitted twice", m.ID)
			}
			seen[m.ID] = true
			if i > 0 && m.Completion < k.rows[i-1].Completion {
				t.Fatalf("%d branches: completion %d (job %d at %v) emitted after job %d at %v",
					len(c.tr.RootAdjacent()), i, m.ID, m.Completion, k.rows[i-1].ID, k.rows[i-1].Completion)
			}
		}
	}
}

// TestRunStreamGeneratorMatchesMaterialized streams straight from a
// Poisson generator (no trace ever exists) and checks against the
// materialized pipeline with the same seed.
func TestRunStreamGeneratorMatchesMaterialized(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	cfg := workload.GenConfig{N: 400, Size: workload.UniformSize{Lo: 1, Hi: 8}, Load: 0.9, Capacity: 2}
	trace, err := workload.Poisson(rng.New(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(tr, trace, &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewPoissonSource(rng.New(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStream(tr, src, &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats diverged: stream %+v, materialized %+v", got.Stats, want.Stats)
	}
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("job %d diverged", i)
		}
	}
}

// TestBoundedRetention checks recycle mode: the task list stays
// empty, Jobs is exactly the last-K completions (verified against a
// sink's completion-order record), the accumulator agrees with the
// full run on every order-free statistic, and order-dependent sums
// agree to float tolerance.
func TestBoundedRetention(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 400)

	full, err := Run(tr, trace, &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const retain = 5
	sink := &recordSink{}
	res, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{}, Options{RetainJobs: retain, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Sim.Tasks()); n != 0 {
		t.Fatalf("recycle mode retained %d tasks in the global list", n)
	}
	if len(sink.rows) != len(trace.Jobs) {
		t.Fatalf("sink saw %d jobs, want %d", len(sink.rows), len(trace.Jobs))
	}
	if len(res.Jobs) != retain {
		t.Fatalf("retained %d jobs, want %d", len(res.Jobs), retain)
	}
	for i, m := range res.Jobs {
		if want := sink.rows[len(sink.rows)-retain+i]; m != want {
			t.Fatalf("ring[%d] = %+v, want %+v (completion-order tail)", i, m, want)
		}
	}
	// The sink record, reordered by ID, must equal the full run's Jobs.
	byID := make([]JobMetrics, len(sink.rows))
	for _, m := range sink.rows {
		byID[m.ID] = m
	}
	for i := range full.Jobs {
		if byID[i] != full.Jobs[i] {
			t.Fatalf("job %d diverged: stream %+v, full %+v", i, byID[i], full.Jobs[i])
		}
	}

	st := res.Stream
	if st == nil {
		t.Fatal("bounded-retention result has no Stream accumulator")
	}
	if st.Completed != full.Stats.Completed || res.Stats.Completed != full.Stats.Completed {
		t.Fatalf("completed %d/%d, want %d", st.Completed, res.Stats.Completed, full.Stats.Completed)
	}
	if st.MaxFlow != full.Stats.MaxFlow || st.Makespan != full.Stats.Makespan {
		t.Fatalf("order-free stats diverged: %+v vs %+v", st, full.Stats)
	}
	if res.Stats.FracFlow != full.Stats.FracFlow || res.Stats.Events != full.Stats.Events {
		t.Fatalf("engine totals diverged: %+v vs %+v", res.Stats, full.Stats)
	}
	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !relClose(st.TotalFlow, full.Stats.TotalFlow) || !relClose(st.WeightedFlow, full.Stats.WeightedFlow) {
		t.Fatalf("summed stats diverged beyond tolerance: %+v vs %+v", st, full.Stats)
	}
	// Accumulator-backed accessors.
	if got, want := res.AvgFlow(), full.AvgFlow(); !relClose(got, want) {
		t.Fatalf("AvgFlow %v, want %v", got, want)
	}
	if got, want := res.LkNormFlow(2), full.LkNormFlow(2); !relClose(got, want) {
		t.Fatalf("LkNormFlow(2) %v, want %v", got, want)
	}
	if got := res.LkNormFlow(math.Inf(1)); got != full.Stats.MaxFlow {
		t.Fatalf("LkNormFlow(inf) %v, want %v", got, full.Stats.MaxFlow)
	}
	// Per-leaf tallies cover every job exactly once.
	jobs := 0
	for _, lt := range st.PerLeaf {
		jobs += lt.Jobs
	}
	if jobs != full.Stats.Completed {
		t.Fatalf("per-leaf tallies cover %d jobs, want %d", jobs, full.Stats.Completed)
	}
	// Engine-level Stats() agrees with the accumulator in recycle mode.
	if es := res.Sim.Stats(); es != res.Stats {
		t.Fatalf("Sim.Stats() %+v diverged from result stats %+v", es, res.Stats)
	}
}

// TestBoundedRetentionWarmReuse reuses one engine across streamed
// runs via Reset and checks reproducibility.
func TestBoundedRetentionWarmReuse(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 300)
	opts := Options{RetainJobs: 1}

	s := New(tr, opts)
	var first Stats
	for round := 0; round < 3; round++ {
		if round > 0 {
			s.Reset(opts)
		}
		res, err := RunStreamOn(s, workload.NewTraceSource(trace), &rrAssigner{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			first = res.Stats
		} else if res.Stats != first {
			t.Fatalf("round %d: stats diverged: %+v vs %+v", round, res.Stats, first)
		}
	}
}

// TestSinkErrorPropagates: a failing sink surfaces as a run error.
func TestSinkErrorPropagates(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 50)
	boom := errors.New("disk full")
	_, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{}, Options{Sink: &recordSink{fail: boom}})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("sink failure not propagated: %v", err)
	}
}

// TestInjectStreamValidates: malformed streams are rejected with the
// same messages Trace.Validate produces.
func TestInjectStreamValidates(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	bad := []workload.Job{{ID: 0, Release: 1, Size: 1}, {ID: 2, Release: 2, Size: 1}}
	_, err := RunStream(tr, workload.NewTraceSource(&workload.Trace{Jobs: bad}), &rrAssigner{}, Options{RetainJobs: 1})
	if err == nil || !strings.Contains(err.Error(), "IDs must be dense") {
		t.Fatalf("dense-ID violation not caught: %v", err)
	}
	unsorted := []workload.Job{{ID: 0, Release: 2, Size: 1}, {ID: 1, Release: 1, Size: 1}}
	_, err = RunStream(tr, workload.NewTraceSource(&workload.Trace{Jobs: unsorted}), &rrAssigner{}, Options{RetainJobs: 1})
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("unsorted stream not caught: %v", err)
	}
}

// TestDriversReportFirstBadJob: every driver checks each job as it
// reaches it, so a trace with two bad jobs fails with the first one's
// error, whichever driver runs it. A driver that validated the whole
// trace up front would report job 2's NaN size before job 1's bad
// origin, which only the per-arrival check sees.
func TestDriversReportFirstBadJob(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := func(bad1, bad2 func(*workload.Job)) *workload.Trace {
		jobs := []workload.Job{{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 1, Size: 2}, {ID: 2, Release: 2, Size: 3}}
		bad1(&jobs[1])
		bad2(&jobs[2])
		return &workload.Trace{Jobs: jobs}
	}
	origin := func(j *workload.Job) { j.Origin = 99 }
	nan := func(j *workload.Job) { j.Size = math.NaN() }
	leafSizes := func(j *workload.Job) { j.LeafSizes = []float64{1, 2, 3} }
	early := func(j *workload.Job) { j.Release = 0.5 }
	id := func(j *workload.Job) { j.ID = 5 }
	cases := []struct {
		name  string
		trace *workload.Trace
		want  string
	}{
		{"origin, then NaN size", trace(origin, nan), "sim: job 1 origin 99 outside the 15-node tree"},
		{"NaN size, then origin", trace(nan, origin), "workload: job 1 has non-finite size NaN"},
		{"leaf sizes, then unsorted", trace(leafSizes, early), "sim: job 1 has 3 leaf sizes for a 8-leaf tree"},
		{"sparse ID, then leaf sizes", trace(id, leafSizes), "workload: job at position 1 has ID 5 (IDs must be dense)"},
	}
	drivers := []struct {
		name string
		run  func(*workload.Trace) error
	}{
		{"Run", func(tc *workload.Trace) error { _, err := Run(tr, tc, &rrAssigner{}, Options{}); return err }},
		{"RunOn", func(tc *workload.Trace) error { _, err := RunOn(New(tr, Options{}), tc, &rrAssigner{}); return err }},
		{"ReplayOn", func(tc *workload.Trace) error { return ReplayOn(New(tr, Options{}), tc, &rrAssigner{}) }},
		{"RunPacketized", func(tc *workload.Trace) error {
			_, err := RunPacketized(tr, tc, &rrAssigner{}, Options{})
			return err
		}},
		{"RunStream", func(tc *workload.Trace) error {
			_, err := RunStream(tr, workload.NewTraceSource(tc), &rrAssigner{}, Options{RetainJobs: 1})
			return err
		}},
		{"ReplayStreamOn", func(tc *workload.Trace) error {
			_, err := ReplayStreamOn(New(tr, Options{}), workload.NewTraceSource(tc), &rrAssigner{})
			return err
		}},
	}
	for _, c := range cases {
		for _, d := range drivers {
			if err := d.run(c.trace); err == nil || err.Error() != c.want {
				t.Errorf("%s: %s returned %v, want %q", c.name, d.name, err, c.want)
			}
		}
	}
}

// TestRunPacketizedRejectsStreaming: packetized runs refuse the
// streaming hooks (they would count packets, not jobs).
func TestRunPacketizedRejectsStreaming(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 10)
	if _, err := RunPacketized(tr, trace, &rrAssigner{}, Options{RetainJobs: 4}); err == nil {
		t.Fatal("RunPacketized accepted RetainJobs")
	}
	if _, err := RunPacketized(tr, trace, &rrAssigner{}, Options{Sink: &recordSink{}}); err == nil {
		t.Fatal("RunPacketized accepted a Sink")
	}
}

// TestStreamWriteNDJSON checks the streaming result writer: a header
// line plus one line per retained job.
func TestStreamWriteNDJSON(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 60)
	res, err := Run(tr, trace, &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(res.Jobs)+1 {
		t.Fatalf("NDJSON has %d lines, want %d jobs + 1 header", lines, len(res.Jobs))
	}
	if !strings.HasPrefix(buf.String(), "{\"stats\":") {
		t.Fatal("NDJSON header line missing stats")
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	hdr := struct {
		Stats  Stats        `json:"stats"`
		Stream *StreamStats `json:"stream,omitempty"`
	}{res.Stats, res.Stream}
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		if err := enc.Encode(&res.Jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("WriteNDJSON output differs from json.Encoder's")
	}
}

// TestStreamAuditSkipped: bounded retention must not trip the
// end-of-run auditor. Instrumented, the engine keeps every task's state
// whatever RetainJobs says, so the auditor runs over the full slice
// log and passes.
func TestStreamAuditSkipped(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 100)
	res, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{},
		Options{RetainJobs: 1, Instrument: true, RecordSlices: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream.Completed != len(trace.Jobs) {
		t.Fatalf("completed %d, want %d", res.Stream.Completed, len(trace.Jobs))
	}
	if n := len(res.Sim.Tasks()); n != len(trace.Jobs) {
		t.Fatalf("instrumented bounded-retention run kept %d tasks, want %d", n, len(trace.Jobs))
	}
}

// TestStreamStatsLkNorms pins the accumulator's moment math against
// a direct computation.
func TestStreamStatsLkNorms(t *testing.T) {
	a := &StreamStats{PerLeaf: make([]LeafTally, 1)}
	flows := []float64{1, 2, 3.5}
	var s2, s3, tot float64
	for i, f := range flows {
		m := &JobMetrics{ID: i, Completion: f, Flow: f, Weight: 1}
		a.observe(m, 0, f)
		tot += f
		s2 += f * f
		s3 += f * f * f
	}
	if a.LkNormFlow(1) != tot || a.LkNormFlow(2) != math.Sqrt(s2) || a.LkNormFlow(3) != math.Cbrt(s3) {
		t.Fatalf("moment norms wrong: %+v", a)
	}
	if !math.IsNaN(a.LkNormFlow(4)) {
		t.Fatal("unsupported exponent should be NaN")
	}
	if a.LkNormFlow(math.Inf(1)) != 3.5 {
		t.Fatal("inf norm should be max flow")
	}
}
