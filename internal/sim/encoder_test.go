package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"treesched/internal/faults"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// A bare *NDJSONSink is encoded on a goroutine of its own (encoder);
// the same sink behind a one-method wrapper stays on the engine
// goroutine. These tests run each way of ending a run both ways and
// require the writer to see the same Write calls and bytes, the
// driver to give the same error or panic, and no goroutine to be left
// running. Their traces span several encodeBatch batches.

var errDiskFull = errors.New("disk full")

// errWriterPanic is what a panicking tapeWriter panics with.
var errWriterPanic = errors.New("writer panicked")

// tapeWriter keeps every byte written and counts Write calls; its
// failAt-th call fails and its panicAt-th call panics (1-based, 0 for
// never).
type tapeWriter struct {
	bytes.Buffer
	writes          int
	failAt, panicAt int
}

func (w *tapeWriter) Write(p []byte) (int, error) {
	w.writes++
	switch w.writes {
	case w.panicAt:
		panic(errWriterPanic)
	case w.failAt:
		return 0, errDiskFull
	}
	return w.Buffer.Write(p)
}

// syncSink hides an NDJSONSink behind a wrapper, which the engine
// calls on its own goroutine at each completion.
type syncSink struct{ k *NDJSONSink }

func (s syncSink) Emit(m *JobMetrics) error { return s.k.Emit(m) }

// sinkRun is what the writer saw of one run and how the run ended.
type sinkRun struct {
	out      string
	writes   int
	err      string
	panicked any
}

// bothWays runs fn once with a bare NDJSONSink and once with it behind
// syncSink, each over a writer from mk, and fails unless both runs
// match and each left no goroutine behind. It returns the run.
func bothWays(t *testing.T, mk func() *tapeWriter, fn func(k JobSink) error) sinkRun {
	t.Helper()
	var runs [2]sinkRun
	for i := range runs {
		before := runtime.NumGoroutine()
		w := mk()
		var k JobSink = NewNDJSONSink(w)
		if i == 1 {
			k = syncSink{k.(*NDJSONSink)}
		}
		runs[i] = func() (r sinkRun) {
			defer func() { r.panicked = recover() }()
			if err := fn(k); err != nil {
				r.err = err.Error()
			}
			return r
		}()
		runs[i].out, runs[i].writes = w.String(), w.writes
		settleGoroutines(t, before)
	}
	got, want := runs[0], runs[1]
	switch {
	case got.err != want.err:
		t.Fatalf("pipelined sink: error %q, synchronous %q", got.err, want.err)
	case got.panicked != want.panicked:
		t.Fatalf("pipelined sink: panic %v, synchronous %v", got.panicked, want.panicked)
	case got.writes != want.writes:
		t.Fatalf("pipelined sink: %d Write calls, synchronous %d", got.writes, want.writes)
	case got.out != want.out:
		t.Fatalf("pipelined sink wrote %d bytes, synchronous %d, and they differ", len(got.out), len(want.out))
	}
	return got
}

// settleGoroutines waits up to five seconds for the goroutine count to
// fall back to before: a joined goroutine may still be returning.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// sinkDrivers are the drivers a sink can run under, each on a fresh
// engine.
var sinkDrivers = []struct {
	name string
	run  func(tr *tree.Tree, trace *workload.Trace, opts Options) error
}{
	{"Run", func(tr *tree.Tree, trace *workload.Trace, opts Options) error {
		_, err := Run(tr, trace, &rrAssigner{}, opts)
		return err
	}},
	{"RunOn", func(tr *tree.Tree, trace *workload.Trace, opts Options) error {
		_, err := RunOn(New(tr, opts), trace, &rrAssigner{})
		return err
	}},
	{"ReplayOn", func(tr *tree.Tree, trace *workload.Trace, opts Options) error {
		return ReplayOn(New(tr, opts), trace, &rrAssigner{})
	}},
	{"RunStream", func(tr *tree.Tree, trace *workload.Trace, opts Options) error {
		_, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{}, opts)
		return err
	}},
	{"RunStreamOn", func(tr *tree.Tree, trace *workload.Trace, opts Options) error {
		_, err := RunStreamOn(New(tr, opts), workload.NewTraceSource(trace), &rrAssigner{})
		return err
	}},
	{"ReplayStreamOn", func(tr *tree.Tree, trace *workload.Trace, opts Options) error {
		_, err := ReplayStreamOn(New(tr, opts), workload.NewTraceSource(trace), &rrAssigner{})
		return err
	}},
}

// eachDriver runs fn under every driver at full and bounded retention.
func eachDriver(t *testing.T, fn func(t *testing.T, run func(tr *tree.Tree, trace *workload.Trace, opts Options) error, retain int)) {
	for _, d := range sinkDrivers {
		for _, retain := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/retain=%d", d.name, retain), func(t *testing.T) { fn(t, d.run, retain) })
		}
	}
}

// TestSinkWriterFailsAtKthWrite: every driver, ReplayOn included,
// reports a writer's error as "sim: job sink: …", after exactly the
// lines before the failing Write, whether the failure falls in the
// first batch, in a later one, or in the tail that only the run's end
// writes.
func TestSinkWriterFailsAtKthWrite(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 4*encodeBatch+50)
	eachDriver(t, func(t *testing.T, run func(*tree.Tree, *workload.Trace, Options) error, retain int) {
		for _, k := range []int{1, 3, encodeBatch + 7, 4*encodeBatch + 20} {
			r := bothWays(t, func() *tapeWriter { return &tapeWriter{failAt: k} }, func(sink JobSink) error {
				return run(tr, trace, Options{RetainJobs: retain, Sink: sink})
			})
			if want := "sim: job sink: disk full"; r.err != want {
				t.Fatalf("fail at write %d: error %q, want %q", k, r.err, want)
			}
			if r.writes != k || strings.Count(r.out, "\n") != k-1 {
				t.Fatalf("fail at write %d: %d writes and %d lines", k, r.writes, strings.Count(r.out, "\n"))
			}
		}
	})
}

// TestSinkWriterPanics: a writer's panic reaches the driver's caller,
// on the caller's goroutine, with the same value and after the same
// writes as a synchronous sink's.
func TestSinkWriterPanics(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 3*encodeBatch)
	eachDriver(t, func(t *testing.T, run func(*tree.Tree, *workload.Trace, Options) error, retain int) {
		for _, k := range []int{1, 2*encodeBatch + 1} {
			r := bothWays(t, func() *tapeWriter { return &tapeWriter{panicAt: k} }, func(sink JobSink) error {
				return run(tr, trace, Options{RetainJobs: retain, Sink: sink})
			})
			if r.panicked != errWriterPanic || r.writes != k || strings.Count(r.out, "\n") != k-1 {
				t.Fatalf("panic at write %d: panicked %v after %d writes", k, r.panicked, r.writes)
			}
		}
	})
}

// TestSinkBadJobMidStream: a driver that stops at a bad job has
// written every completion before it when it returns.
func TestSinkBadJobMidStream(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 4*encodeBatch)
	bad := 3 * encodeBatch
	trace.Jobs[bad].Size = -1
	eachDriver(t, func(t *testing.T, run func(*tree.Tree, *workload.Trace, Options) error, retain int) {
		r := bothWays(t, func() *tapeWriter { return &tapeWriter{} }, func(sink JobSink) error {
			return run(tr, trace, Options{RetainJobs: retain, Sink: sink})
		})
		if !strings.Contains(r.err, fmt.Sprintf("job %d", bad)) {
			t.Fatalf("error %q does not name job %d", r.err, bad)
		}
		if lines := strings.Count(r.out, "\n"); lines < 2*encodeBatch || lines >= bad {
			t.Fatalf("%d lines written before job %d was refused", lines, bad)
		}
	})
}

// TestSinkResetUndrained: Reset of an engine driven by hand and never
// drained writes the completions so far.
func TestSinkResetUndrained(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 4*encodeBatch)
	r := bothWays(t, func() *tapeWriter { return &tapeWriter{} }, func(sink JobSink) error {
		s := New(tr, Options{Sink: sink})
		asg := &rrAssigner{}
		for i := range 3 * encodeBatch {
			j := &trace.Jobs[i]
			s.AdvanceTo(j.Release)
			a := Arrival{ID: j.ID, Release: j.Release, Size: j.Size, Weight: j.Weight}
			if _, err := s.Inject(&a, asg.Assign(s.Query(), &a)); err != nil {
				return err
			}
		}
		s.Reset(Options{})
		return nil
	})
	if lines := strings.Count(r.out, "\n"); lines < 2*encodeBatch || lines >= 3*encodeBatch {
		t.Fatalf("%d lines written by Reset after %d arrivals", lines, 3*encodeBatch)
	}
}

// TestSinkDrainStuck: a Drain that returns a StuckError, through a
// driver or called by hand, has written every completion.
func TestSinkDrainStuck(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 3*encodeBatch)
	dead := tr.Leaves()[0]
	opts := Options{Faults: compile(t, tr, faults.Event{Kind: faults.LeafLoss, Node: dead, Start: trace.Jobs[2*encodeBatch].Release})}
	for _, byHand := range []bool{false, true} {
		r := bothWays(t, func() *tapeWriter { return &tapeWriter{} }, func(sink JobSink) error {
			o := opts
			o.Sink = sink
			if !byHand {
				_, err := RunOn(New(tr, o), trace, &rrAssigner{})
				return err
			}
			s := New(tr, o)
			asg := &rrAssigner{}
			for i := range trace.Jobs {
				j := &trace.Jobs[i]
				s.AdvanceTo(j.Release)
				a := Arrival{ID: j.ID, Release: j.Release, Size: j.Size, Weight: j.Weight}
				if _, err := s.Inject(&a, asg.Assign(s.Query(), &a)); err != nil {
					return err
				}
			}
			return s.Drain()
		})
		if !strings.Contains(r.err, "stuck") {
			t.Fatalf("by hand %v: error %q, want a StuckError", byHand, r.err)
		}
		if lines := strings.Count(r.out, "\n"); lines < 2*encodeBatch {
			t.Fatalf("by hand %v: %d lines written", byHand, lines)
		}
	}
}

// TestSinkInternalError: a Drain that stops on an internal error has
// written the completions before it.
func TestSinkInternalError(t *testing.T) {
	tr := tree.FatTree(2, 2, 2).WithSpeeds(1, 1, 1e-300)
	trace := resetTestTrace(t, 2*encodeBatch)
	last := &trace.Jobs[len(trace.Jobs)-1]
	last.Size = workload.MaxSize
	eachDriver(t, func(t *testing.T, run func(*tree.Tree, *workload.Trace, Options) error, retain int) {
		r := bothWays(t, func() *tapeWriter { return &tapeWriter{} }, func(sink JobSink) error {
			return run(tr, trace, Options{RetainJobs: retain, Sink: sink})
		})
		if !strings.Contains(r.err, "overflows the float64 clock") {
			t.Fatalf("error %q, want the clock overflow", r.err)
		}
	})
}

// TestSinkAcrossReset: a Reset that installs another bare NDJSONSink
// hands the engine's encoder to it; the new sink gets every line, and
// the old sink's error does not carry over.
func TestSinkAcrossReset(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 2*encodeBatch+10)
	before := runtime.NumGoroutine()
	s := New(tr, Options{Sink: NewNDJSONSink(&tapeWriter{failAt: 3})})
	if _, err := RunOn(s, trace, &rrAssigner{}); !errors.Is(err, errDiskFull) {
		t.Fatalf("first run: error %v, want %v", err, errDiskFull)
	}
	var got, want tapeWriter
	s.Reset(Options{Sink: NewNDJSONSink(&got)})
	if _, err := RunOn(s, trace, &rrAssigner{}); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
	if _, err := Run(tr, trace, &rrAssigner{}, Options{Sink: syncSink{NewNDJSONSink(&want)}}); err != nil {
		t.Fatal(err)
	}
	if got.writes != want.writes || got.String() != want.String() {
		t.Fatalf("after Reset the sink saw %d writes, a fresh synchronous one %d, or other bytes", got.writes, want.writes)
	}
	settleGoroutines(t, before)
}

// TestWrappedSinkStaysSynchronous: a sink other than a bare NDJSONSink
// gets Emit on the engine goroutine at each completion, so it may read
// engine state: at the k-th Emit the accumulator has counted k jobs.
func TestWrappedSinkStaysSynchronous(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 2*encodeBatch)
	var w bytes.Buffer
	s := New(tr, Options{})
	probe := &stateProbe{inner: syncSink{NewNDJSONSink(&w)}, s: s}
	s.Reset(Options{Sink: probe})
	if _, err := RunOn(s, trace, &rrAssigner{}); err != nil {
		t.Fatal(err)
	}
	if probe.emits != len(trace.Jobs) || strings.Count(w.String(), "\n") != len(trace.Jobs) {
		t.Fatalf("%d Emit calls and %d lines for %d jobs", probe.emits, strings.Count(w.String(), "\n"), len(trace.Jobs))
	}
}

type stateProbe struct {
	inner JobSink
	s     *Sim
	emits int
}

func (p *stateProbe) Emit(m *JobMetrics) error {
	if p.emits++; p.s.StreamStats().Completed != p.emits {
		return fmt.Errorf("Emit %d with %d completions counted", p.emits, p.s.StreamStats().Completed)
	}
	return p.inner.Emit(m)
}
