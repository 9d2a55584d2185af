package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

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
		{Topologies(), "fattree|star|line|caterpillar|broomstick|random"},
		{Sizes(), "uniform|bimodal|pareto"},
		{Processes(), "poisson|bursty|adversarial"},
		{Policies(), "sjf|fifo|srpt|lcfs|ps|wsjf"},
		{Assigners(), "greedy|greedy-identical|greedy-unrelated|shadow|closest|random|roundrobin|leastvolume|minpath|jsq"},
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

// TestParserErrorMessages pins the registries' spec-parsing errors
// byte for byte: they are what the command-line tools print.
func TestParserErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		got  func() error
		want string
	}{
		{"topo empty", func() error { _, err := ParseTopo(""); return err },
			`empty spec`},
		{"topo bad int", func() error { _, err := ParseTopo("fattree:a,b,c"); return err },
			`topology "fattree:a,b,c": arg "a" is not an integer`},
		{"topo float arg", func() error { _, err := ParseTopo("fattree:2.5,2,2"); return err },
			`topology "fattree:2.5,2,2": arg "2.5" is not an integer`},
		{"topo arg count", func() error { _, err := ParseTopo("fattree:2,2"); return err },
			`topology fattree needs 3 args, got 2`},
		{"topo extra args", func() error { _, err := ParseTopo("star:1,2"); return err },
			`topology star needs 1 args, got 2`},
		{"topo unknown", func() error { _, err := ParseTopo("mesh:2"); return err },
			`unknown topology "mesh" (want fattree|star|line|caterpillar|broomstick|random)`},
		{"size arg count", func() error { _, err := ParseSize("uniform:1"); return err },
			`uniform needs lo,hi`},
		{"size bimodal count", func() error { _, err := ParseSize("bimodal:1,100"); return err },
			`bimodal needs small,big,pbig`},
		{"size pareto count", func() error { _, err := ParseSize("pareto:1,1.5"); return err },
			`pareto needs min,alpha,cap`},
		{"size bad number", func() error { _, err := ParseSize("uniform:x,16"); return err },
			`size "uniform:x,16": arg "x" is not a number`},
		{"size unknown", func() error { _, err := ParseSize("normal:0,1"); return err },
			`unknown size distribution "normal" (want uniform|bimodal|pareto)`},
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
