package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"treesched/internal/tree"
)

// maxErrDump bounds how many task snapshots an engine error carries;
// beyond it only the count is reported.
const maxErrDump = 8

// TaskDump is one task's state snapshot carried by engine errors, so
// a failed run reports where each stuck task was instead of a bare
// panic string.
type TaskDump struct {
	Job       int
	Seq       int64
	Node      tree.NodeID // current node; tree.None when completed
	Hop       int
	PathLen   int
	Remaining float64
	Release   float64
	Leaf      tree.NodeID
}

func (d TaskDump) String() string {
	return fmt.Sprintf("task %d (seq %d) at node %d (hop %d/%d, %.6g remaining, released %.6g, leaf %d)",
		d.Job, d.Seq, d.Node, d.Hop+1, d.PathLen, d.Remaining, d.Release, d.Leaf)
}

func dumpTask(js *JobState) TaskDump {
	return TaskDump{
		Job: js.ID, Seq: js.seq, Node: js.CurrentNode(),
		Hop: js.Hop, PathLen: len(js.Path),
		Remaining: js.Remaining, Release: js.Release, Leaf: js.Leaf,
	}
}

// dumpActive snapshots the first maxErrDump live tasks in injection
// order and counts them all. Every live task sits in exactly one
// leaf's assigned list, which reaches it whether or not the engine
// keeps completed tasks.
func dumpActive(s *Sim) (dumps []TaskDump, total int) {
	var live []*JobState
	for _, lst := range s.assigned {
		live = append(live, lst...)
	}
	slices.SortFunc(live, func(a, b *JobState) int { return cmp.Compare(a.seq, b.seq) })
	for _, js := range live[:min(len(live), maxErrDump)] {
		dumps = append(dumps, dumpTask(js))
	}
	return dumps, len(live)
}

func formatDumps(b *strings.Builder, dumps []TaskDump, total int) {
	for _, d := range dumps {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	if total > len(dumps) {
		fmt.Fprintf(b, "\n  ... and %d more", total-len(dumps))
	}
}

// StuckError reports a Drain that ran out of events with tasks still
// active: with fault injection this means tasks were held on (or
// upstream of) a permanently lost leaf; without faults it indicates
// an engine bug.
type StuckError struct {
	Now    float64
	Active int
	Tasks  []TaskDump
}

func (e *StuckError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: drained with %d active task(s) stuck at t=%.6g", e.Active, e.Now)
	formatDumps(&b, e.Tasks, e.Active)
	return b.String()
}

// InternalError reports a violated engine invariant (a bug, not a
// user error) or a completion time past math.MaxFloat64: the failing
// operation, the simulation time, and a
// snapshot of the active tasks. The engine panics with *InternalError
// at the point of detection; Drain, ReplayOn, ReplayStreamOn and
// RunPacketized recover it into an ordinary error return.
type InternalError struct {
	Op    string
	Now   float64
	Msg   string
	Tasks []TaskDump
	// ActiveTotal is the full active-task count when len(Tasks) was
	// capped at maxErrDump.
	ActiveTotal int
}

func (e *InternalError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: internal error in %s at t=%.6g: %s", e.Op, e.Now, e.Msg)
	formatDumps(&b, e.Tasks, e.ActiveTotal)
	return b.String()
}

// internalErr builds an InternalError with the active-task snapshot.
func (s *Sim) internalErr(op, format string, args ...interface{}) *InternalError {
	dumps, total := dumpActive(s)
	return &InternalError{Op: op, Now: s.now, Msg: fmt.Sprintf(format, args...), Tasks: dumps, ActiveTotal: total}
}

// recoverInternal converts a typed engine panic into an error return;
// any other panic propagates unchanged.
func recoverInternal(err *error) {
	if r := recover(); r != nil {
		ie, ok := r.(*InternalError)
		if !ok {
			panic(r)
		}
		*err = ie
	}
}
