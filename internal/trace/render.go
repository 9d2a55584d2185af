// Package trace renders topologies and schedules for human
// inspection: ASCII tree drawings (regenerating the paper's Figures 1
// and 2), per-node Gantt charts extracted from instrumented runs, and
// JSON schedule dumps.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"treesched/internal/sim"
	"treesched/internal/tree"
)

// RenderTree draws the topology as an ASCII tree, marking the root,
// routers and machines — the structure of the paper's Figure 1.
func RenderTree(t *tree.Tree) string {
	var sb strings.Builder
	var walk func(v tree.NodeID, prefix string, last bool)
	walk = func(v tree.NodeID, prefix string, last bool) {
		n := t.Node(v)
		connector := "├─ "
		childPrefix := prefix + "│  "
		if last {
			connector = "└─ "
			childPrefix = prefix + "   "
		}
		if v == t.Root() {
			connector, childPrefix = "", ""
			sb.WriteString(describe(t, v) + "\n")
		} else {
			sb.WriteString(prefix + connector + describe(t, v) + "\n")
		}
		kids := n.Children
		for i, c := range kids {
			walk(c, childPrefix, i == len(kids)-1)
		}
	}
	walk(t.Root(), "", true)
	return sb.String()
}

func describe(t *tree.Tree, v tree.NodeID) string {
	n := t.Node(v)
	label := n.Label
	if label == "" {
		label = fmt.Sprintf("n%d", v)
	}
	switch n.Kind {
	case tree.KindRoot:
		return fmt.Sprintf("%s [root: job distribution center]", label)
	case tree.KindLeaf:
		if n.Speed != 1 {
			return fmt.Sprintf("%s [machine, speed %.3g]", label, n.Speed)
		}
		return fmt.Sprintf("%s [machine]", label)
	default:
		if n.Speed != 1 {
			return fmt.Sprintf("%s [router, speed %.3g]", label, n.Speed)
		}
		return fmt.Sprintf("%s [router]", label)
	}
}

// DOT renders the topology in Graphviz dot format: the root as a
// double circle, routers as circles, machines as boxes; non-unit
// speeds annotate the labels.
func DOT(t *tree.Tree) string {
	var sb strings.Builder
	sb.WriteString("digraph tree {\n  rankdir=TB;\n")
	for i := 0; i < t.NumNodes(); i++ {
		v := tree.NodeID(i)
		n := t.Node(v)
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("n%d", v)
		}
		if n.Speed != 1 {
			label = fmt.Sprintf("%s\\n%.3gx", label, n.Speed)
		}
		shape := "circle"
		switch n.Kind {
		case tree.KindRoot:
			shape = "doublecircle"
		case tree.KindLeaf:
			shape = "box"
		}
		fmt.Fprintf(&sb, "  %d [label=%q shape=%s];\n", v, label, shape)
	}
	for i := 0; i < t.NumNodes(); i++ {
		v := tree.NodeID(i)
		for _, c := range t.Children(v) {
			fmt.Fprintf(&sb, "  %d -> %d;\n", v, c)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// RenderReduction draws T and its broomstick T' side by side with the
// leaf correspondence — the paper's Figure 2.
func RenderReduction(bs *tree.Broomstick) string {
	var sb strings.Builder
	sb.WriteString("Original tree T:\n")
	sb.WriteString(RenderTree(bs.Original))
	sb.WriteString("\nBroomstick T' (every leaf 2 deeper, per-branch handle):\n")
	sb.WriteString(RenderTree(bs.Reduced))
	sb.WriteString("\nLeaf correspondence (T' -> T):\n")
	for _, rl := range bs.Reduced.Leaves() {
		ol := bs.ToOriginal[bs.Reduced.LeafIndex(rl)]
		fmt.Fprintf(&sb, "  leaf %d (depth %d) -> leaf %d (depth %d)\n",
			rl, bs.Reduced.Depth(rl), ol, bs.Original.Depth(ol))
	}
	return sb.String()
}

// Span is one contiguous occupancy of a node by a job.
type Span struct {
	Job   int     `json:"job"`
	Node  int32   `json:"node"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Schedule is a per-node view of an instrumented run: for every node,
// the (job, arrive, complete) hop records. Completion intervals are
// hop-level (arrival to completion on the node), not preemption-exact:
// the engine does not retain every preemption boundary, and the hop
// picture is what the Lemma analyses consume.
type Schedule struct {
	Spans []Span `json:"spans"`
}

// ExtractSchedule reads an instrumented run into a Schedule.
func ExtractSchedule(res *sim.Result) *Schedule {
	sched := &Schedule{}
	tasks := res.Sim.Tasks()
	if len(tasks) < len(res.Jobs) {
		// The engine recycled its task state at completion.
		panic("trace: ExtractSchedule requires an instrumented run")
	}
	for _, js := range tasks {
		if js.HopArrive == nil {
			panic("trace: ExtractSchedule requires an instrumented run")
		}
		for h, v := range js.Path {
			sched.Spans = append(sched.Spans, Span{
				Job: js.ID, Node: int32(v),
				Start: js.HopArrive[h], End: js.HopComplete[h],
			})
		}
	}
	sort.Slice(sched.Spans, func(a, b int) bool {
		sa, sb := sched.Spans[a], sched.Spans[b]
		if sa.Node != sb.Node {
			return sa.Node < sb.Node
		}
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Job < sb.Job
	})
	return sched
}

// WriteJSON dumps the schedule.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// ExactGantt renders a preemption-exact ASCII Gantt chart from a run
// recorded with sim.Options.RecordSlices: each cell shows the job
// (ID mod 10) actually being processed at the cell midpoint.
func ExactGantt(res *sim.Result, cols int) string {
	slices := res.Sim.Slices()
	spans := make([]Span, len(slices))
	for i, sl := range slices {
		spans[i] = Span{Job: sl.Job, Node: int32(sl.Node), Start: sl.From, End: sl.To}
	}
	return gantt(res, spans, cols, " (exact slices)")
}

// Gantt renders a coarse ASCII Gantt chart of node occupancy: one row
// per node, time quantized into the given number of columns over the
// makespan. Cells show the job ID (mod 10) whose hop interval covers
// the cell midpoint (latest-arriving hop wins ties).
func Gantt(res *sim.Result, cols int) string {
	return gantt(res, ExtractSchedule(res).Spans, cols, "")
}

// gantt draws one row per node that carries a span, in node order,
// over cols columns (60 below 10) of [0, makespan): a cell shows the
// job (ID mod 10) of the last span that covers its midpoint.
func gantt(res *sim.Result, spans []Span, cols int, kind string) string {
	if cols < 10 {
		cols = 60
	}
	makespan := res.Stats.Makespan
	if makespan <= 0 {
		return "(empty schedule)\n"
	}
	rows := make(map[int32][]byte)
	for _, sp := range spans {
		row, ok := rows[sp.Node]
		if !ok {
			row = []byte(strings.Repeat(".", cols))
			rows[sp.Node] = row
		}
		for c := 0; c < cols; c++ {
			mid := (float64(c) + 0.5) / float64(cols) * makespan
			if mid >= sp.Start && mid < sp.End {
				row[c] = byte('0' + sp.Job%10)
			}
		}
	}
	ids := make([]int32, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	t := res.Sim.Tree()
	var sb strings.Builder
	fmt.Fprintf(&sb, "time 0 .. %.3g, %d columns%s\n", makespan, cols, kind)
	for _, id := range ids {
		fmt.Fprintf(&sb, "%-18s %s\n", describe(t, tree.NodeID(id)), rows[id])
	}
	return sb.String()
}
