package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func TestSpecStringRoundTrip(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{NewSpec("poisson"), "poisson"},
		{NewSpec("fattree", 2, 2, 2), "fattree:2,2,2"},
		{NewSpec("pareto", 1, 1.5, 200), "pareto:1,1.5,200"},
		{NewSpec("bimodal", 1, 100, 0.05), "bimodal:1,100,0.05"},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.want {
			t.Fatalf("String() = %q, want %q", got, c.want)
		}
		back, err := ParseSpec(c.want)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.want, err)
		}
		if !reflect.DeepEqual(back, c.spec) {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.want, back, c.spec)
		}
	}
}

func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, s := range []string{"uniform:NaN,1", "uniform:Inf,1", "uniform:-Inf,1"} {
		if _, err := ParseSpec(s); err == nil {
			t.Fatalf("ParseSpec(%q) accepted a non-finite arg", s)
		}
	}
}

func TestRegistryLists(t *testing.T) {
	checks := []struct {
		got  []string
		want string
	}{
		{topoReg.order, "fattree|star|line|caterpillar|broomstick|random"},
		{sizeReg.order, "uniform|bimodal|pareto"},
		{processReg.order, "poisson|bursty|adversarial"},
		{policyReg.order, "sjf|fifo|srpt|lcfs|ps|wsjf"},
		{assignReg.order, "greedy|greedy-identical|greedy-unrelated|shadow|closest|random|roundrobin|leastvolume|minpath|jsq"},
	}
	for _, c := range checks {
		if got := strings.Join(c.got, "|"); !strings.HasPrefix(got, c.want) {
			t.Fatalf("registration order = %q, want prefix %q", got, c.want)
		}
	}
}

func TestBuildTopoMatchesGenerators(t *testing.T) {
	cases := []struct {
		spec Spec
		mk   func() *tree.Tree
	}{
		{NewSpec("fattree", 2, 2, 2), func() *tree.Tree { return tree.FatTree(2, 2, 2) }},
		{NewSpec("star", 4), func() *tree.Tree { return tree.Star(4) }},
		{NewSpec("line", 3), func() *tree.Tree { return tree.Line(3) }},
		{NewSpec("caterpillar", 3, 2), func() *tree.Tree { return tree.Caterpillar(3, 2) }},
		{NewSpec("broomstick", 2, 3, 1), func() *tree.Tree { return tree.BroomstickTree(2, 3, 1) }},
	}
	for _, c := range cases {
		got, err := BuildTopo(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		want := c.mk()
		if got.NumNodes() != want.NumNodes() || len(got.Leaves()) != len(want.Leaves()) {
			t.Fatalf("%s: shape differs from direct generator", c.spec)
		}
	}
	if _, err := BuildTopo(NewSpec("fattree", 2.5, 2, 2)); err == nil {
		t.Fatal("non-integer topology arg accepted")
	}
	if _, err := BuildTopo(NewSpec("line", 0)); err == nil {
		t.Fatal("generator panic not translated to error")
	}
}

// TestParserErrorMessages pins the registries' spec errors byte for
// byte: they are what the command-line tools print. Topology and size
// specs reach the registries through a compact scenario (Load) and
// Build.
func TestParserErrorMessages(t *testing.T) {
	built := func(compact string) error {
		sc, err := Load([]byte(compact))
		if err != nil {
			return err
		}
		_, err = sc.Build()
		return err
	}
	cases := []struct {
		name string
		got  func() error
		want string
	}{
		{"topo empty", func() error { return built("topo=") },
			`compact scenario: topo=: empty spec`},
		{"topo bad int", func() error { return built("topo=fattree:a,b,c") },
			`compact scenario: topo=fattree:a,b,c: spec "fattree:a,b,c": arg "a" is not a number`},
		{"topo float arg", func() error { return built("topo=fattree:2.5,2,2") },
			`scenario: topology "fattree:2.5,2,2": arg 2.5 is not an integer`},
		{"topo arg count", func() error { return built("topo=fattree:2,2") },
			`scenario: topology fattree needs 3 args, got 2`},
		{"topo extra args", func() error { return built("topo=star:1,2") },
			`scenario: topology star needs 1 args, got 2`},
		{"topo unknown", func() error { return built("topo=mesh:2") },
			`scenario: unknown topology "mesh" (want fattree|star|line|caterpillar|broomstick|random)`},
		{"size arg count", func() error { return built("topo=star:2 size=uniform:1") },
			`scenario: workload: uniform needs lo,hi`},
		{"size bimodal count", func() error { return built("topo=star:2 size=bimodal:1,100") },
			`scenario: workload: bimodal needs small,big,pbig`},
		{"size pareto count", func() error { return built("topo=star:2 size=pareto:1,1.5") },
			`scenario: workload: pareto needs min,alpha,cap`},
		{"size bad number", func() error { return built("topo=star:2 size=uniform:x,16") },
			`compact scenario: size=uniform:x,16: spec "uniform:x,16": arg "x" is not a number`},
		{"size unknown", func() error { return built("topo=star:2 size=normal:0,1") },
			`scenario: workload: unknown size distribution "normal" (want uniform|bimodal|pareto)`},
		{"policy unknown", func() error { _, err := ParsePolicy("edf"); return err },
			`unknown policy "edf" (want sjf|fifo|srpt|lcfs|ps|wsjf)`},
		{"assigner unknown", func() error { _, err := ParseAssigner("oracle", AssignerContext{Eps: 0.5}); return err },
			`unknown assigner "oracle" (want greedy|greedy-identical|greedy-unrelated|shadow|closest|random|roundrobin|leastvolume|minpath|jsq)`},
	}
	for _, c := range cases {
		err := c.got()
		if err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		if err.Error() != c.want {
			t.Fatalf("%s:\n got  %q\n want %q", c.name, err.Error(), c.want)
		}
	}
}

// sampleScenarios covers every compact-expressible field combination.
func sampleScenarios() []*Scenario {
	return []*Scenario{
		{},
		{Topology: NewSpec("fattree", 2, 2, 2), Workload: Workload{N: 100, Size: NewSpec("uniform", 1, 16), Load: 0.9}, Seed: 1},
		{
			Name:     "kitchen-sink",
			Topology: NewSpec("broomstick", 2, 4, 2),
			Workload: Workload{
				Process: NewSpec("bursty", 12), N: 500, Size: NewSpec("pareto", 1, 1.5, 200),
				ClassEps: 0.25, Load: 0.95, Capacity: 3,
				RelatedSpeeds: []float64{4, 2, 1, 1},
				RoundEps:      0.5, MaxWeight: 8,
			},
			Policy: "srpt", Assigner: "leastvolume", Eps: 0.25, Seed: 42, AssignerSeed: 99,
			Speed:   Speed{Uniform: 2.5},
			Horizon: 64,
			Engine:  Engine{Instrument: true, RecordSlices: true},
		},
		{
			Topology: NewSpec("fattree", 2, 2, 2),
			Workload: Workload{
				N: 300, Size: NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.9,
				Unrelated: &Unrelated{Lo: 0.5, Hi: 2, PInfeasible: 0.2, Penalty: 8},
				RoundEps:  0.5,
			},
			Assigner: "greedy-unrelated", Eps: 0.5, Seed: 7,
			Speed: Speed{RootAdjacent: 1.5, Router: 2.25, Leaf: 2.25},
		},
		{
			Topology: NewSpec("line", 4),
			Workload: Workload{Process: NewSpec("adversarial", 32), N: 200},
			Engine:   Engine{Packetized: true},
		},
		{
			Topology: NewSpec("fattree", 2, 2, 2),
			Policy:   "srpt",
			Speed:    Speed{Uniform: 1.5},
			Engine:   Engine{Serve: true, RetainJobs: 1},
		},
	}
}

func TestCompactRoundTrip(t *testing.T) {
	for i, sc := range sampleScenarios() {
		c, err := sc.Compact()
		if err != nil {
			t.Fatalf("scenario %d: Compact: %v", i, err)
		}
		back, err := ParseCompact(c)
		if err != nil {
			t.Fatalf("scenario %d: ParseCompact(%q): %v", i, c, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("scenario %d round trip:\n compact %q\n got  %+v\n want %+v", i, c, back, sc)
		}
		c2, err := back.Compact()
		if err != nil || c2 != c {
			t.Fatalf("scenario %d: re-Compact = %q (%v), want %q", i, c2, err, c)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	scs := sampleScenarios()
	// Inline jobs are JSON-only.
	scs = append(scs, &Scenario{
		Topology: NewSpec("line", 2),
		Workload: Workload{Jobs: []workload.Job{
			{ID: 0, Release: 0, Size: 4},
			{ID: 1, Release: 1, Size: 2, Weight: 3},
		}},
		Engine: Engine{Instrument: true},
	})
	for i, sc := range scs {
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			t.Fatalf("scenario %d: WriteJSON: %v", i, err)
		}
		back, err := ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("scenario %d: ReadJSON: %v", i, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("scenario %d JSON round trip:\n got  %+v\n want %+v", i, back, sc)
		}
	}
}

func TestLoadDetectsFormat(t *testing.T) {
	sc := &Scenario{Topology: NewSpec("star", 4), Workload: Workload{N: 50, Size: NewSpec("uniform", 1, 4), Load: 0.8}, Seed: 3}
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c, err := sc.Compact()
	if err != nil {
		t.Fatal(err)
	}
	fromCompact, err := Load([]byte("  " + c + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, sc) || !reflect.DeepEqual(fromCompact, sc) {
		t.Fatalf("Load mismatch: json %+v compact %+v want %+v", fromJSON, fromCompact, sc)
	}
	if _, err := Load([]byte("   \n")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Load([]byte(`{"nope": 1}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
}

func TestParseCompactErrors(t *testing.T) {
	for _, in := range []string{
		"bogus=1",
		"frobnicate",
		"n=1 n=2",
		"instrument instrument",
		"n=x",
		"eps=NaN",
		"speeds=1,2",
		"unrelated=1",
		"seed=-1",
		"name=",
	} {
		if _, err := ParseCompact(in); err == nil {
			t.Fatalf("ParseCompact(%q) accepted", in)
		}
	}
}

// The former worker-count, sub-shard and scan-queue keys fail in both
// scenario forms with an error naming the removal, not as an unknown
// key.
func TestRemovedEngineKeys(t *testing.T) {
	const loop, queue = "the engine runs one sequential event loop", "a node queue is a heap, or a linear scan under processor sharing"
	for _, c := range []struct{ input, key, why string }{
		{"topo=star:4 n=10 shards=4", "shards", loop},
		{"topo=star:4 n=10 split=2", "split", loop},
		{`{"engine": {"shards": 4}}`, "shards", loop},
		{`{"engine": {"stream": true, "split": 2}}`, "split", loop},
		{"topo=star:4 n=10 scanqueue", "scanqueue", queue},
		{`{"engine": {"scan_queue": true}}`, "scan_queue", queue},
	} {
		want := `scenario: key "` + c.key + `" was removed: ` + c.why
		if _, err := Load([]byte(c.input)); err == nil || err.Error() != want {
			t.Errorf("Load(%s): got %v, want %q", c.input, err, want)
		}
	}
}

// The workload pipeline must reproduce the hand-wired constructions
// bit for bit: one rng stream, process → related → unrelated → round
// → weights.
func TestGenerateMatchesHandWired(t *testing.T) {
	const seed = 21
	w := Workload{
		N: 400, Size: NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.85, Capacity: 2,
		Unrelated: &Unrelated{Lo: 0.5, Hi: 2, PInfeasible: 0.2, Penalty: 8, Leaves: 8},
		RoundEps:  0.5,
	}
	got, err := w.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}

	r := rng.New(seed)
	want, err := workload.Poisson(r, workload.GenConfig{
		N: 400, Size: workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 16}, Eps: 0.5},
		Load: 0.85, Capacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.MakeUnrelated(r, want, workload.UnrelatedConfig{
		Leaves: 8, Lo: 0.5, Hi: 2, PInfeasible: 0.2, Penalty: 8,
	}); err != nil {
		t.Fatal(err)
	}
	workload.RoundTraceToClasses(want, 0.5)

	if !reflect.DeepEqual(got, want) {
		t.Fatal("scenario-generated trace differs from hand-wired construction")
	}
}

func TestBuildDefaultsAndErrors(t *testing.T) {
	sc := &Scenario{
		Topology: NewSpec("fattree", 2, 2, 2),
		Workload: Workload{N: 50, Size: NewSpec("uniform", 1, 16), Load: 0.9},
		Seed:     1,
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.Opts.Policy != nil && in.Opts.Policy.Name() != "SJF" {
		t.Fatalf("default policy = %v", in.Opts.Policy.Name())
	}
	if in.Assigner.Name() != "GreedyIdentical" {
		t.Fatalf("default assigner = %q", in.Assigner.Name())
	}
	if in.Base != in.Tree {
		t.Fatal("no speed profile should leave the base tree untouched")
	}

	// Unrelated workloads flip the auto greedy variant and derive the
	// leaf count from the topology.
	scU := &Scenario{
		Topology: NewSpec("fattree", 2, 2, 2),
		Workload: Workload{
			N: 50, Size: NewSpec("uniform", 1, 16), Load: 0.9,
			Unrelated: &Unrelated{Lo: 0.5, Hi: 2},
		},
		Seed:  1,
		Speed: Speed{Uniform: 2},
	}
	inU, err := scU.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inU.Assigner.Name() != "GreedyUnrelated" {
		t.Fatalf("unrelated auto assigner = %q", inU.Assigner.Name())
	}
	if n := len(inU.Trace.Jobs[0].LeafSizes); n != len(inU.Base.Leaves()) {
		t.Fatalf("derived leaf count = %d, want %d", n, len(inU.Base.Leaves()))
	}
	if scU.Workload.Unrelated.Leaves != 0 {
		t.Fatal("Build mutated the scenario's Unrelated config")
	}
	if inU.Tree == inU.Base {
		t.Fatal("uniform speed not applied")
	}

	for _, bad := range []*Scenario{
		{},
		{Topology: NewSpec("mesh", 2)},
		{Topology: NewSpec("star", 4), Workload: Workload{N: 10, Size: NewSpec("uniform", 1, 2), Load: 0.5},
			Speed: Speed{Uniform: 2, RootAdjacent: 1, Router: 1, Leaf: 1}},
		{Topology: NewSpec("star", 4), Workload: Workload{N: 10, Size: NewSpec("uniform", 1, 2), Load: 0.5},
			Policy: "edf"},
		{Topology: NewSpec("star", 4), Workload: Workload{N: 10, Size: NewSpec("uniform", 1, 2), Load: 0.5},
			Assigner: "oracle"},
		{Topology: NewSpec("star", 4), Workload: Workload{N: 10, Size: NewSpec("nope", 1, 2), Load: 0.5}},
		{Topology: NewSpec("star", 4), Workload: Workload{Process: NewSpec("nope"), N: 10, Size: NewSpec("uniform", 1, 2), Load: 0.5}},
	} {
		if _, err := bad.Build(); err == nil {
			t.Fatalf("scenario %+v built without error", bad)
		}
	}

	// Non-positive speeds fail naming the field; tree.WithSpeeds would
	// panic on them.
	for _, c := range []struct{ spec, want string }{
		{"speed=-1", "scenario: speed.uniform is -1, want > 0"},
		{"speeds=2,0,1", "scenario: speed.router is 0, want > 0 (the per-level triple sets all three)"},
		{"speeds=2,-1,1", "scenario: speed.router is -1, want > 0 (the per-level triple sets all three)"},
	} {
		sc, err := ParseCompact("topo=fattree:2,2,2 n=10 size=uniform:1,2 load=0.5 " + c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Build(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Build returned %v, want %q", c.spec, err, c.want)
		}
	}
}

// Build refuses each value that would otherwise reach a panic (a
// negative eps under greedy), never finish (a class ε with 1+ε == 1),
// run differently from what it says (a negative capacity as capacity
// 1, slices under processor sharing as no slices) or be dropped
// silently (negative class, round and maxweight), naming the key in
// the compact and the JSON spelling. Each Build runs under a deadline.
func TestBuildRejectsBadValues(t *testing.T) {
	build := func(sc *Scenario) error {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			_, err := sc.Build()
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			return errors.New("Build did not return within 2s")
		}
	}
	const classWant = "want 0 (off) or at least 1e-06"
	for _, c := range []struct{ line, want string }{
		{"eps=-1", "scenario: eps=-1 (JSON eps): want > 0 (0 is the default 0.5)"},
		{"eps=-1 assigner=shadow", "scenario: eps=-1 (JSON eps): want > 0 (0 is the default 0.5)"},
		{"class=1e-17", "scenario: class=1e-17 (JSON workload.class_eps): " + classWant},
		{"class=-1", "scenario: class=-1 (JSON workload.class_eps): " + classWant},
		{"round=-0.5", "scenario: round=-0.5 (JSON workload.round_eps): " + classWant},
		{"round=1e-17 stream", "scenario: round=1e-17 (JSON workload.round_eps): " + classWant},
		{"maxweight=-3", "scenario: maxweight=-3 (JSON workload.max_weight): want >= 0 (0 leaves every weight 1)"},
		{"cap=-1", "scenario: cap=-1 (JSON workload.capacity): want >= 0 (0 derives it from the topology)"},
		{"policy=ps slices", "scenario: slices (JSON engine.record_slices) with policy=ps: processor sharing records no slices"},
	} {
		sc, err := ParseCompact("topo=fattree:2,2,2 n=10 size=uniform:1,16 load=0.9 seed=1 " + c.line)
		if err != nil {
			t.Fatal(err)
		}
		if err := build(sc); err == nil || err.Error() != c.want {
			t.Errorf("%s: Build returned %v, want %q", c.line, err, c.want)
		}
	}
	sc, err := ReadJSON(strings.NewReader(`{"topology": "star:4", "workload": {"n": 10, "size": "uniform:1,16",` +
		` "load": 0.9, "class_eps": 1e-17}, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err, want := build(sc), "scenario: class=1e-17 (JSON workload.class_eps): "+classWant; err == nil || err.Error() != want {
		t.Errorf("JSON class_eps 1e-17: Build returned %v, want %q", err, want)
	}
}

// A generated scenario with class-rounded sizes puts two finish events
// at one instant: job 15's leaf work ends at 101.93077957255329, when
// job 20 leaves the router above for the same leaf. Children finish
// first, so job 15 completes then; with parents first, job 20 would
// preempt it with no work left, job 15 would complete at
// 109.52452957255329, and the audit would find a [completion]
// violation.
func TestSameInstantFinishAuditsClean(t *testing.T) {
	sc, err := ParseCompact("topo=random:4,3,3 n=100 size=uniform:1,16 load=0.73 policy=sjf assigner=greedy-unrelated " +
		"seed=5441 round=0.5 unrelated=0.5,2 maxweight=4 instrument slices")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Jobs[15].Completion; c != 101.93077957255329 {
		t.Fatalf("job 15 completes at %v, want 101.93077957255329", c)
	}
}

// Runner.Run must reproduce a cold scenario.Run exactly, round after
// round, including for stateful assigners (rebuilt per call).
func TestRunnerMatchesColdRun(t *testing.T) {
	for _, asg := range []string{"greedy", "roundrobin", "random"} {
		sc := &Scenario{
			Topology: NewSpec("fattree", 2, 2, 2),
			Workload: Workload{N: 300, Size: NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.9},
			Assigner: asg,
			Seed:     5,
		}
		cold, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", asg, err)
		}
		r, err := NewRunner(sc)
		if err != nil {
			t.Fatalf("%s: %v", asg, err)
		}
		for round := 0; round < 3; round++ {
			warm, err := r.Run()
			if err != nil {
				t.Fatalf("%s round %d: %v", asg, round, err)
			}
			if warm.Stats != cold.Stats {
				t.Fatalf("%s round %d: warm stats %+v != cold %+v", asg, round, warm.Stats, cold.Stats)
			}
		}
	}
}

// A built trace is collected into a slice sized once, whole-trace
// passes included: it holds no spare capacity.
func TestBuiltTraceSizedOnce(t *testing.T) {
	for _, spec := range []string{
		"topo=fattree:2,5,1 n=20000 size=uniform:1,16 load=0.95",
		"topo=fattree:2,2,2 process=bursty:5 n=3001 size=uniform:1,4 load=0.8 maxweight=10",
		"topo=fattree:2,2,2 process=adversarial:32 n=3001",
		"topo=fattree:2,2,2 n=3001 size=uniform:1,4 load=0.8 unrelated=0.5,2 round=0.5",
	} {
		sc, err := ParseCompact(spec)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if jobs := in.Trace.Jobs; len(jobs) != sc.Workload.N || cap(jobs) != len(jobs) {
			t.Errorf("%s: trace len %d cap %d, want both %d", spec, len(jobs), cap(jobs), sc.Workload.N)
		}
	}
}

func TestServeScenarios(t *testing.T) {
	serve := func() *Scenario {
		return &Scenario{Topology: NewSpec("fattree", 2, 2, 2), Engine: Engine{Serve: true}}
	}

	in, err := serve().Build()
	if err != nil {
		t.Fatalf("serve Build: %v", err)
	}
	if in.Trace != nil {
		t.Fatal("serve build materialized a trace")
	}
	if in.Assigner == nil {
		t.Fatal("serve build resolved no assigner")
	}
	if _, err := in.Run(); err == nil {
		t.Fatal("Instance.Run accepted a serve scenario")
	}
	if _, err := NewRunner(serve()); err == nil {
		t.Fatal("NewRunner accepted a serve scenario")
	}

	// The daemon owns the workload: any workload spec here would be
	// silently ignored, so Build rejects it.
	gen := serve()
	gen.Workload = Workload{N: 10, Size: NewSpec("uniform", 1, 4), Load: 0.5}
	if _, err := gen.Build(); err == nil {
		t.Fatal("serve scenario with a generated workload accepted")
	}
	inline := serve()
	inline.Workload.Jobs = []workload.Job{{ID: 0, Size: 1}}
	if _, err := inline.Build(); err == nil {
		t.Fatal("serve scenario with inline jobs accepted")
	}

	// Plan-based faults scale to a trace span that does not exist
	// online; explicit events know their own times and pass through.
	planned := serve()
	planned.Faults = &FaultSpec{Plan: NewSpec("outages", 2, 5)}
	if _, err := planned.Build(); err == nil {
		t.Fatal("serve scenario with a fault plan accepted")
	}
	explicit := serve()
	explicit.Faults = &FaultSpec{Events: []faults.Event{{Kind: faults.Outage, Node: 1, Start: 0, End: 1}}}
	if in, err := explicit.Build(); err != nil {
		t.Fatalf("serve scenario with explicit fault events rejected: %v", err)
	} else if in.Opts.Faults == nil {
		t.Fatal("explicit fault events not compiled into Opts")
	}

	pk := serve()
	pk.Engine.Packetized = true
	if _, err := pk.Build(); err == nil {
		t.Fatal("serve+packetized accepted")
	}
}
