package sim

import (
	"reflect"
	"sort"
	"testing"

	"treesched/internal/tree"
)

// TestCompletedTasksRecycled pins the memory model: an engine that is
// neither instrumented nor recording slices keeps a completed task's
// JobMetrics record, not its JobState, so the JobStates each shard
// arena hands out are bounded by the shard's peak number of live
// tasks (rounded up to whole arena chunks) instead of the trace
// length. Instrumented, the same run still lists every task with its
// hop records.
func TestCompletedTasksRecycled(t *testing.T) {
	tr := tree.FatTree(2, 5, 1)
	trace := resetTestTrace(t, 50000)
	res, err := Run(tr, trace, &rrAssigner{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sim

	// Peak live tasks per shard, from the [release, completion)
	// intervals. At equal instants completions go first: AdvanceTo
	// processes them before the arrival is injected.
	type edge struct {
		at    float64
		delta int
	}
	edges := make([][]edge, len(s.shards))
	for _, m := range res.Jobs {
		k := s.shardOf[m.Leaf]
		edges[k] = append(edges[k], edge{m.Release, 1}, edge{m.Completion, -1})
	}
	held := make([]int, len(s.shards)) // every JobState the engine still references
	for _, js := range s.tasks {
		held[s.shardOf[js.Leaf]]++
	}
	for k, es := range edges {
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
		held[k] += len(s.shards[k].free)
		limit := (peak + taskBlockSize - 1) / taskBlockSize * taskBlockSize
		if held[k] > limit {
			t.Fatalf("shard %d holds %d JobStates for %d jobs; peak live %d allows %d",
				k, held[k], len(es)/2, peak, limit)
		}
	}
	if n := len(s.Tasks()); n != 0 {
		t.Fatalf("uninstrumented run kept %d tasks", n)
	}

	inst, err := Run(tr, trace, &rrAssigner{}, Options{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	tasks := inst.Sim.Tasks()
	if len(tasks) != len(trace.Jobs) {
		t.Fatalf("instrumented run lists %d tasks, want %d", len(tasks), len(trace.Jobs))
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
}
