package sim

import (
	"reflect"
	"sort"
	"testing"

	"treesched/internal/tree"
	"treesched/internal/workload"
)

// TestCompletedTasksRecycled pins the memory model: an engine that is
// neither instrumented nor recording slices keeps a completed task's
// JobMetrics record, not its JobState, and its one task arena reuses
// freed JobStates before carving new ones, so the JobStates it has
// carved are bounded by the run's peak number of live tasks (rounded
// up to whole arena chunks) instead of the trace length — or the
// tree's branch count: the 32-branch input would need 32 chunks if
// every root branch had an arena of its own. Instrumented, the same
// run still lists every task with its hop records.
func TestCompletedTasksRecycled(t *testing.T) {
	for _, c := range []struct {
		name  string
		tr    *tree.Tree
		trace *workload.Trace
	}{
		{"fattree:2,5,1", tree.FatTree(2, 5, 1), resetTestTrace(t, 50000)},
		{"fattree:32,1,32", tree.FatTree(32, 1, 32), shardTestTrace(t, 14, 20000, 32)},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.tr, c.trace, &rrAssigner{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := res.Sim

			// Peak live tasks, from the [release, completion) intervals.
			// At equal instants completions go first: AdvanceTo processes
			// them before the arrival is injected.
			type edge struct {
				at    float64
				delta int
			}
			var es []edge
			for _, m := range res.Jobs {
				es = append(es, edge{m.Release, 1}, edge{m.Completion, -1})
			}
			sort.Slice(es, func(i, j int) bool {
				if es[i].at != es[j].at {
					return es[i].at < es[j].at
				}
				return es[i].delta < es[j].delta
			})
			live, peak := 0, 0
			for _, e := range es {
				live += e.delta
				peak = max(peak, live)
			}
			// Every JobState carved so far: held as live or kept task
			// state, on the freelist, or left in the current chunk.
			carved := len(s.tasks) + s.Active() + len(s.free) + len(s.block)
			limit := (peak + taskBlockSize - 1) / taskBlockSize * taskBlockSize
			if carved > limit {
				t.Fatalf("the engine carved %d JobStates for %d jobs; peak live %d allows %d",
					carved, len(res.Jobs), peak, limit)
			}
			if n := len(s.Tasks()); n != 0 {
				t.Fatalf("uninstrumented run kept %d tasks", n)
			}

			inst, err := Run(c.tr, c.trace, &rrAssigner{}, Options{Instrument: true})
			if err != nil {
				t.Fatal(err)
			}
			tasks := inst.Sim.Tasks()
			if len(tasks) != len(c.trace.Jobs) {
				t.Fatalf("instrumented run lists %d tasks, want %d", len(tasks), len(c.trace.Jobs))
			}
			for i, js := range tasks {
				if js.ID != i || !js.Completed || len(js.HopArrive) != len(js.Path) || len(js.HopComplete) != len(js.Path) {
					t.Fatalf("task %d: job %d, completed %v, %d/%d hop records for a %d-node path",
						i, js.ID, js.Completed, len(js.HopArrive), len(js.HopComplete), len(js.Path))
				}
			}
			if !reflect.DeepEqual(inst.Jobs, res.Jobs) || inst.Stats != res.Stats {
				t.Fatal("instrumented run diverged from the uninstrumented one")
			}
		})
	}
}
