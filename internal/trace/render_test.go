package trace

import (
	"bytes"
	"strings"
	"testing"

	"treesched/internal/sched"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

func TestRenderTree(t *testing.T) {
	tr := tree.FatTree(2, 1, 2)
	out := RenderTree(tr)
	if !strings.Contains(out, "[root: job distribution center]") {
		t.Fatalf("missing root marker:\n%s", out)
	}
	if strings.Count(out, "[machine]") != 4 {
		t.Fatalf("want 4 machines:\n%s", out)
	}
	if strings.Count(out, "[router]") != 2 {
		t.Fatalf("want 2 routers:\n%s", out)
	}
}

func TestRenderTreeSpeeds(t *testing.T) {
	tr := tree.Star(1).WithSpeeds(1.5, 1.5, 2)
	out := RenderTree(tr)
	if !strings.Contains(out, "speed 1.5") || !strings.Contains(out, "speed 2") {
		t.Fatalf("speeds not rendered:\n%s", out)
	}
}

func TestRenderReduction(t *testing.T) {
	bs, err := tree.Reduce(tree.FatTree(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	out := RenderReduction(bs)
	for _, want := range []string{"Original tree T:", "Broomstick T'", "Leaf correspondence"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func runInstrumented(t *testing.T) *sim.Result {
	t.Helper()
	tr := tree.Star(2)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 1, Size: 1},
	}}
	res, err := sim.Run(tr, trace, &sched.RoundRobin{}, sim.Options{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExtractSchedule(t *testing.T) {
	res := runInstrumented(t)
	s := ExtractSchedule(res)
	// 2 jobs x 2 hops = 4 spans.
	if len(s.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(s.Spans))
	}
	for _, sp := range s.Spans {
		if sp.End < sp.Start {
			t.Fatalf("span ends before start: %+v", sp)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"job"`) {
		t.Fatal("JSON missing fields")
	}
}

func TestGantt(t *testing.T) {
	res := runInstrumented(t)
	out := Gantt(res, 40)
	if !strings.Contains(out, "time 0 ..") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "0") {
		t.Fatalf("job 0 never drawn:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + relay + 2 leaves
		t.Fatalf("rows = %d:\n%s", len(lines), out)
	}
}

func TestExtractRequiresInstrument(t *testing.T) {
	tr := tree.Star(1)
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 1}}}
	res, err := sim.Run(tr, trace, &sched.RoundRobin{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without instrumentation")
		}
	}()
	ExtractSchedule(res)
}

func TestDOT(t *testing.T) {
	tr := tree.Star(2).WithSpeeds(1.5, 1.5, 1)
	out := DOT(tr)
	for _, want := range []string{"digraph tree", "doublecircle", "shape=box", "->", "1.5x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// One edge per non-root node.
	if got, want := strings.Count(out, "->"), tr.NumNodes()-1; got != want {
		t.Fatalf("DOT edges = %d, want %d", got, want)
	}
}
