package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// The scenario corpus. drawScenario turns a seed, and nothing else,
// into one scenario (a draw); checkLegs runs every way of executing a
// draw that must reproduce a cold Run of it (a leg) and compares what
// each makes observable. Five tests (below) run it over disjoint seed
// ranges, and FuzzEngineEquivalence over fuzzed seeds, so a subtest
// ID or a fuzz input is a complete, replayable case, and a failure
// logs the draw as JSON that treesched -scenario runs.

// The corpus's draw tables: every registered name with the arguments
// drawn for it. TestCorpusDrawsEveryRegisteredName keeps them
// complete.
var (
	drawTopos = []string{"fattree:4,1,2", "fattree:8,1,2", "fattree:2,2,2", "star:8", "star:2", "line:3",
		"caterpillar:4,2", "broomstick:6,2,2", "broomstick:3,3,1", "random:4,3,3"}
	drawSizes     = []string{"uniform:1,16", "bimodal:1,20,0.1", "pareto:1,1.5,200"}
	drawProcesses = []string{"poisson", "bursty:4", "adversarial:32"}
	drawPolicies  = []string{"sjf", "fifo", "srpt", "lcfs", "ps", "wsjf"}
	drawAssigners = []string{"greedy", "greedy-identical", "greedy-unrelated", "shadow", "closest", "random",
		"roundrobin", "leastvolume", "minpath", "jsq"}
	drawFaults = []string{"outages:3,6", "brownouts:3,6,0.5", "leafloss:1,0.6"}
)

// drawScenario draws one scenario from seed alone: topology, size
// law, process, policy and assigner from the tables, a load in [0.5,
// 1.3], identical, unrelated (sometimes with infeasible leaves),
// related or inline jobs (with interior origins), class and round ε,
// weights, the keyed rng, a speed profile, a fault plan or explicit
// fault events under either recovery, and the engine modes. About 4%
// of draws are invalid: a value Build rejects, or an inline job that
// no driver accepts.
func drawScenario(seed uint64) *Scenario {
	r := rng.New(seed)
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	spec := func(xs []string) Spec { s, _ := ParseSpec(pick(xs)); return s }
	sc := &Scenario{Topology: spec(drawTopos), Policy: pick(drawPolicies), Assigner: pick(drawAssigners), Seed: seed}
	t, _ := BuildTopo(sc.Topology)
	nodes, leaves := t.NumNodes(), len(t.Leaves())
	w := &sc.Workload
	*w = Workload{Process: spec(drawProcesses), N: 20 + r.Intn(130), Size: spec(drawSizes), Load: r.Range(0.5, 1.3)}
	switch k := r.Intn(20); {
	case k < 3:
		w.Unrelated = &Unrelated{Lo: 0.5, Hi: 2}
		if r.Bool(0.5) {
			*w.Unrelated = Unrelated{Lo: 0.25, Hi: 4, PInfeasible: 0.2, Penalty: 6}
		}
	case k < 6:
		for range leaves {
			w.RelatedSpeeds = append(w.RelatedSpeeds, float64(1+r.Intn(8))/2)
		}
	case k < 8:
		// Inline jobs: integer sizes and releases tie often.
		w.Process, w.Size, w.N, w.Load = Spec{}, Spec{}, 0, 0
		release := 0.0
		for id := range 5 + r.Intn(40) {
			j := workload.Job{ID: id, Release: release, Size: float64(1 + r.Intn(8)), Weight: float64(r.Intn(3))}
			if r.Bool(0.3) {
				j.Origin = int32(r.Intn(nodes))
			}
			if r.Bool(0.2) {
				for range leaves {
					j.LeafSizes = append(j.LeafSizes, float64(1+r.Intn(8)))
				}
			}
			w.Jobs = append(w.Jobs, j)
			release += float64(r.Intn(3))
		}
	}
	if r.Bool(0.15) {
		w.ClassEps = []float64{0.25, 0.5}[r.Intn(2)]
	}
	if r.Bool(0.15) {
		w.RoundEps = 0.5
	}
	if r.Bool(0.25) {
		w.MaxWeight = 1 + r.Intn(7)
	}
	if r.Bool(0.25) {
		sc.RNG = "keyed"
	}
	sc.Eps = []float64{0, 0.25, 1}[r.Intn(3)]
	switch r.Intn(5) {
	case 1:
		sc.Speed.Uniform = 1.5
	case 2:
		sc.Speed.Uniform = 2.5
	case 3:
		sc.Speed = Speed{RootAdjacent: 1, Router: 1 + sc.EffEps(), Leaf: 1 + sc.EffEps()}
	}
	switch k := r.Intn(20); {
	case k < 8:
		sc.Faults = &FaultSpec{Plan: spec(drawFaults)}
	case k < 11:
		sc.Faults = &FaultSpec{}
		for range 1 + r.Intn(3) {
			e := faults.Event{Kind: faults.Outage, Node: tree.NodeID(1 + r.Intn(nodes-1)), Start: r.Range(0, 20)}
			e.End = e.Start + r.Range(1, 8)
			switch {
			case r.Bool(0.3):
				e.Kind, e.Factor = faults.Brownout, 0.5
			case r.Bool(0.3):
				e = faults.Event{Kind: faults.LeafLoss, Node: t.Leaves()[r.Intn(leaves)], Start: e.Start}
			}
			sc.Faults.Events = append(sc.Faults.Events, e)
		}
	}
	if sc.Faults != nil {
		sc.Faults.Recovery = []string{"", "hold", "redispatch"}[r.Intn(3)]
	}
	e := &sc.Engine
	if r.Bool(0.12) {
		e.Packetized = true
	} else {
		e.Stream = r.Bool(0.35)
		if r.Bool(0.2) {
			e.RetainJobs = 1 + r.Intn(10)
		}
	}
	e.Instrument = r.Bool(0.25)
	e.RecordSlices = sc.Policy != "ps" && r.Bool(0.3)
	if r.Bool(0.04) {
		invalid := []func(){
			func() { sc.Eps = -1 },
			func() { w.ClassEps = 1e-17 },
			func() { w.ClassEps = -1 },
			func() { w.RoundEps = -0.5 },
			func() { w.MaxWeight = -3 },
			func() { w.Capacity = -1 },
			func() { sc.Policy, e.RecordSlices = "ps", true },
			func() { w.Jobs = append(w.Jobs, workload.Job{Release: 1000, Size: 1, Origin: int32(nodes + 5)}) },
			func() {
				j := workload.Job{Release: 1000, Size: 1, LeafSizes: make([]float64, leaves+1)}
				for i := range j.LeafSizes {
					j.LeafSizes[i] = 1
				}
				w.Jobs = append(w.Jobs, j)
			},
		}
		invalid[r.Intn(len(invalid))]()
		for i := range w.Jobs {
			w.Jobs[i].ID = i
		}
	}
	return sc
}

// outcome is everything a run makes observable: the error text, or
// the Result's NDJSON (nil for legs that drive the engine without
// one), the engine's Stats, per-job records and migrations, and its
// slice log (nil unless recorded).
type outcome struct {
	err        string
	ndjson     []byte
	stats      sim.Stats
	records    []sim.JobMetrics
	slices     []sim.Slice
	migrations []sim.Migration
}

// outcomeOf reads the outcome of a run that returned res (nil for an
// engine-level leg, which passes its engine s) and err; sliced says
// whether the run recorded slices.
func outcomeOf(res *sim.Result, s *sim.Sim, err error, sliced bool) outcome {
	if err != nil {
		return outcome{err: err.Error()}
	}
	var o outcome
	if res != nil {
		var b bytes.Buffer
		if err := res.WriteNDJSON(&b); err != nil {
			return outcome{err: "encode: " + err.Error()}
		}
		o.ndjson, s = b.Bytes(), res.Sim
	}
	o.stats, o.records, o.migrations = s.Stats(), slices.Clone(s.Records()), slices.Clone(s.Migrations())
	if sliced {
		o.slices = append([]sim.Slice{}, s.Slices()...)
	}
	return o
}

// diff names the first way o differs from want ("" if none), comparing
// NDJSON and slice logs where both sides have one.
func (o outcome) diff(want outcome) string {
	switch {
	case o.err != want.err:
		return fmt.Sprintf("error %q, want %q", o.err, want.err)
	case o.ndjson != nil && want.ndjson != nil && !bytes.Equal(o.ndjson, want.ndjson):
		return "NDJSON differs"
	case o.stats != want.stats:
		return fmt.Sprintf("Stats differ:\n  got  %+v\n  want %+v", o.stats, want.stats)
	case !slices.Equal(o.records, want.records):
		return "per-job records differ"
	case o.slices != nil && want.slices != nil && !slices.Equal(o.slices, want.slices):
		return fmt.Sprintf("slice log differs (%d vs %d slices)", len(o.slices), len(want.slices))
	case !reflect.DeepEqual(o.migrations, want.migrations):
		return fmt.Sprintf("migrations differ (%d vs %d)", len(o.migrations), len(want.migrations))
	}
	return ""
}

// checkLegs runs every leg on sc and fails at the first whose outcome
// differs from a cold Run of sc:
//  1. warm: NewRunner, then Run twice;
//  2. streamed: Engine.Stream flipped;
//  3. repeated queries: every query asked twice (repeatQueries);
//  4. query noise before each arrival (queryNoise);
//  5. query noise from an Observer at every event;
//  6. instrumented: Instrument and, off processor sharing,
//     RecordSlices on, so Drain audits the schedule;
//  7. self-checked: SelfCheck on and CheckInvariants every k events;
//  8. by hand: AdvanceTo, Assign, Inject and Drain (byHand);
//  9. Runner.Replay, read through Sim().Stats();
//  10. sink: a bare NDJSONSink, which the engine encodes on a
//     goroutine of its own, against the same sink behind a one-method
//     wrapper, which it calls synchronously (sinkTape): the writers
//     must see the same bytes and Write calls, and the runs give the
//     same error text.
//
// Legs 1, 2, 8 and 9 do not apply to packetized runs. The other legs
// set Instance.Opts or wrap Instance.Assigner after Build and run
// through Instance.Run.
func checkLegs(t *testing.T, sc *Scenario) {
	t.Helper()
	t.Cleanup(func() {
		if t.Failed() {
			var b bytes.Buffer
			sc.WriteJSON(&b)
			t.Logf("the draw (treesched -scenario runs this file):\n%s", b.Bytes())
		}
	})
	sliced, ps := sc.Engine.RecordSlices, sc.EffPolicy() == "ps"
	res, err := Run(sc)
	var audit *sim.AuditError
	var internal *sim.InternalError
	if errors.As(err, &audit) || errors.As(err, &internal) {
		t.Fatalf("cold Run: %v", err) // every leg would agree on it
	}
	want := outcomeOf(res, nil, err, sliced)
	check := func(leg string, got outcome) {
		t.Helper()
		if d := got.diff(want); d != "" {
			t.Fatalf("leg %s: %s", leg, d)
		}
	}
	run := func(sliced bool, setup func(in *Instance)) outcome {
		in, err := sc.Build()
		if err != nil {
			return outcome{err: err.Error()}
		}
		setup(in)
		res, err := in.Run()
		return outcomeOf(res, nil, err, sliced)
	}
	noise := func(in *Instance) *queryNoise {
		return &queryNoise{r: rng.New(sc.Seed ^ 0x5eed), instrument: in.Opts.Instrument}
	}

	if !sc.Engine.Packetized {
		r, err := NewRunner(sc)
		for k := 1; k <= 2; k++ {
			var res *sim.Result
			if r != nil {
				res, err = r.Run()
			}
			check(fmt.Sprintf("warm (run %d)", k), outcomeOf(res, nil, err, sliced))
		}
		flipped := *sc
		flipped.Engine.Stream = !sc.Engine.Stream
		res, err := Run(&flipped)
		check("streamed", outcomeOf(res, nil, err, sliced))
	}
	check("repeated queries", run(sliced, func(in *Instance) {
		first, _ := in.NewAssigner()
		in.Assigner = wrap(in.Assigner, repeatQueries{Assigner: in.Assigner, first: first})
	}))
	check("queries before each arrival", run(sliced, func(in *Instance) {
		in.Assigner = wrap(in.Assigner, noisyAssigner{Assigner: in.Assigner, noise: noise(in)})
	}))
	check("queries from an Observer", run(sliced, func(in *Instance) {
		z := noise(in)
		in.Opts.Observer = func(s *sim.Sim) { z.calls(s.Query()) }
	}))
	check("instrumented", run(!ps, func(in *Instance) {
		in.Opts.Instrument, in.Opts.RecordSlices = true, !ps
	}))
	var invErr error
	check("self-checked", run(sliced, func(in *Instance) {
		in.Opts.SelfCheck = true
		every, events := 5+int(sc.Seed%29), 0
		in.Opts.Observer = func(s *sim.Sim) {
			if events++; events%every == 0 && invErr == nil {
				invErr = s.CheckInvariants()
			}
		}
	}))
	if invErr != nil {
		t.Fatalf("leg self-checked: %v", invErr)
	}
	if got, want := sinkTape(sc, false), sinkTape(sc, true); got != want {
		t.Fatalf("leg sink: pipelined sink wrote %d bytes in %d calls and gave error %q; wrapped, %d bytes in %d calls, error %q (bytes equal: %v)",
			len(got.out), got.writes, got.err, len(want.out), want.writes, want.err, got.out == want.out)
	}
	if !sc.Engine.Packetized {
		in, err := sc.Build()
		var s *sim.Sim
		if err == nil {
			s, err = byHand(in)
		}
		check("by hand", outcomeOf(nil, s, err, sliced))
		r, err := NewRunner(sc)
		if err == nil {
			s, err = r.Sim(), r.Replay()
		}
		check("Runner.Replay", outcomeOf(nil, s, err, sliced))
	}
}

// tape is what a sink's writer saw, and the run's error text.
type tape struct {
	out    string
	writes int
	err    string
}

// sinkTape runs sc with an NDJSONSink over a recording writer, behind
// a one-method wrapper when wrapped.
func sinkTape(sc *Scenario, wrapped bool) tape {
	in, err := sc.Build()
	if err != nil {
		return tape{err: err.Error()}
	}
	w := &tapeWriter{}
	var k sim.JobSink = sim.NewNDJSONSink(w)
	if wrapped {
		k = wrappedSink{k}
	}
	in.Opts.Sink = k
	var r tape
	if _, err := in.Run(); err != nil {
		r.err = err.Error()
	}
	r.out, r.writes = w.String(), w.writes
	return r
}

type tapeWriter struct {
	bytes.Buffer
	writes int
}

func (w *tapeWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

type wrappedSink struct{ k sim.JobSink }

func (w wrappedSink) Emit(m *sim.JobMetrics) error { return w.k.Emit(m) }

// byHand runs in through the engine's step API as a caller outside
// the package would: each job of Instance.NewSource checked, placed
// by the assigner at its release and injected, then Drain, with the
// drivers' error texts.
func byHand(in *Instance) (s *sim.Sim, err error) {
	src, err := in.NewSource()
	if err != nil {
		return nil, fmt.Errorf("scenario: workload: %w", err)
	}
	s = sim.New(in.Tree, in.Opts)
	defer func() {
		if r := recover(); r != nil {
			ie, ok := r.(*sim.InternalError)
			if !ok {
				panic(r)
			}
			err = ie
		}
	}()
	prev := 0.0
	for n := 0; ; n++ {
		j, ok := src.Next()
		if !ok {
			break
		}
		if err := j.ValidateAt(n, prev); err != nil {
			return s, err
		}
		prev = j.Release
		if err := sim.CheckArrival(in.Tree, in.Assigner, &j); err != nil {
			return s, err
		}
		s.AdvanceTo(j.Release)
		a := sim.Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin), Weight: j.Weight}
		if _, err := s.Inject(&a, in.Assigner.Assign(s.Query(), &a)); err != nil {
			return s, fmt.Errorf("sim: assigner %q: %w", in.Assigner.Name(), err)
		}
	}
	if err := src.Err(); err != nil {
		return s, err
	}
	return s, s.Drain()
}

// wrap returns w, the wrapper of asg, marked sim.RootOnlyAssigner
// when asg is, so the drivers refuse the same jobs.
func wrap(asg, w sim.Assigner) sim.Assigner {
	if _, ok := asg.(sim.RootOnlyAssigner); ok {
		return rootOnly{w}
	}
	return w
}

type rootOnly struct{ sim.Assigner }

func (rootOnly) RootOnly() {}

// repeatQueries wraps an assigner with a second instance of the same
// rule (Instance.NewAssigner, so in the same state) that answers every
// arrival first, on the same Query, its leaf discarded: every query
// the wrapped assigner makes repeats one made at the same state.
type repeatQueries struct {
	sim.Assigner
	first sim.Assigner
}

func (r repeatQueries) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	r.first.Assign(q, a)
	return r.Assigner.Assign(q, a)
}

// queryNoise makes 0–5 random calls of every Query method on random
// nodes (routers, leaves and the root) and random live tasks.
type queryNoise struct {
	r          *rng.Rand
	instrument bool
}

func (z *queryNoise) calls(q *sim.Query) {
	r := z.r
	t := q.Tree()
	leaves := t.Leaves()
	node := func() tree.NodeID { return tree.NodeID(r.Intn(t.NumNodes())) }
	leaf := func() tree.NodeID { return leaves[r.Intn(len(leaves))] }
	size := func() float64 { return r.Range(0.5, 20) }
	id := func() int { return r.Intn(200) }
	for k := r.Intn(6); k > 0; k-- {
		q.AvailVolumeHigher(node(), size(), q.Now(), id())
		q.AvailCountLarger(node(), size())
		q.AvailVolume(node())
		q.AvailStats(node(), size(), q.Now(), id())
		q.AvailStatsBound(node(), size(), q.Now(), id())
		q.RootWorkBound(q.Now(), id())
		q.AvailCount(node())
		q.AssignedUpstreamWork(leaf())
		q.LeafVolumeHigher(leaf(), size(), q.Now(), id())
		q.LeafFracLarger(leaf(), size())
		q.BranchFracRemaining(node())
		if z.instrument {
			q.PendingOn(node())
		}
		if lq := q.LeafQueue(leaf()); len(lq) > 0 {
			js := lq[r.Intn(len(lq))]
			v := js.Path[js.Hop+r.Intn(len(js.Path)-js.Hop)]
			q.RemainingOn(js, v)
			q.SizeOn(js, v)
			q.PrioSizeOn(js, v)
			q.HigherPriorityOn(js, v, size(), q.Now(), id())
		}
	}
}

// noisyAssigner makes a round of queryNoise calls before every arrival.
type noisyAssigner struct {
	sim.Assigner
	noise *queryNoise
}

func (w noisyAssigner) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	w.noise.calls(q)
	return w.Assigner.Assign(q, a)
}

// runCorpus runs checkLegs on draws first, first+1, … as subtests
// named by id. Under -short it checks every other draw; the others
// skip, so subtest IDs stay.
func runCorpus(t *testing.T, id string, draws int, first uint64) {
	for i := range draws {
		t.Run(fmt.Sprintf(id, i), func(t *testing.T) {
			if testing.Short() && i%2 != 0 {
				t.Skip("-short checks every other draw")
			}
			checkLegs(t, drawScenario(first+uint64(i)))
		})
	}
}

// The corpus's five seed ranges. The tests keep the names and subtest
// IDs of the separate corpora they replace, each of which checked a
// few legs on its own slice of the space; each now checks every leg
// on every draw of its range. Replay a failing case with, e.g.,
//
//	go test -run 'TestQueryPatternInvariance/case017' ./internal/scenario
//
// TestShardedScenarioEquivalence is named for the per-root-child
// shards the engine once had: draws 1000–1099.
func TestShardedScenarioEquivalence(t *testing.T) { runCorpus(t, "case%02d", 100, 1000) }

// TestDispatchKnobsDifferential: draws 2000–2059.
func TestDispatchKnobsDifferential(t *testing.T) { runCorpus(t, "case%02d", 60, 2000) }

// TestQueryPatternInvariance: draws 3000–3199.
func TestQueryPatternInvariance(t *testing.T) { runCorpus(t, "case%03d", 200, 3000) }

// TestInstrumentationDifferential: draws 4000–4059.
func TestInstrumentationDifferential(t *testing.T) { runCorpus(t, "case%02d", 60, 4000) }

// TestStreamedScenarioEquivalence: draws 5000–5059.
func TestStreamedScenarioEquivalence(t *testing.T) { runCorpus(t, "case%02d", 60, 5000) }

// FuzzEngineEquivalence runs checkLegs on the draw of a fuzzed seed.
// Its seed inputs run under plain go test.
func FuzzEngineEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 7, 5441, 1 << 40, math.MaxUint64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkLegs(t, drawScenario(seed)) })
}

// TestCorpusDrawsEveryRegisteredName fails when a registered name has
// no entry in the corpus's draw tables.
func TestCorpusDrawsEveryRegisteredName(t *testing.T) {
	for _, c := range []struct {
		registered, table []string
	}{
		{topoReg.order, drawTopos}, {sizeReg.order, drawSizes}, {processReg.order, drawProcesses},
		{policyReg.order, drawPolicies}, {assignReg.order, drawAssigners}, {faultReg.order, drawFaults},
	} {
		for _, name := range c.registered {
			if !slices.ContainsFunc(c.table, func(s string) bool { return strings.Split(s, ":")[0] == name }) {
				t.Errorf("registered name %q has no entry in the corpus's draw tables", name)
			}
		}
	}
}
