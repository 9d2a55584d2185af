package sim

import (
	"fmt"
	"math"

	"treesched/internal/tree"
)

// CheckInvariants cross-validates the engine's internal bookkeeping:
// queue membership and back-indices, leaf assignment sets, pending
// sets (when instrumented), the active-task counter and the running
// fractional-flow sum. It reaches the live tasks through the leaf
// assigned lists, is O(live tasks · depth) and intended for tests; it
// returns the first inconsistency found.
func (s *Sim) CheckInvariants() error {
	// Sync every node so Remaining values are current.
	for v := tree.NodeID(1); int(v) < s.tree.NumNodes(); v++ {
		s.sync(v)
	}
	active := 0
	var fracSum float64
	onNode := make(map[*JobState]tree.NodeID)
	// Every live task sits in exactly one leaf's assigned list.
	for li, lst := range s.assigned {
		for i, js := range lst {
			active++
			cur := js.CurrentNode()
			if cur == tree.None {
				return fmt.Errorf("sim: incomplete task %d has no current node", js.ID)
			}
			onNode[js] = cur
			if js.Remaining < -1e-9 || js.Remaining > js.OrigOnCur+1e-9 {
				return fmt.Errorf("sim: task %d remaining %v outside [0,%v]", js.ID, js.Remaining, js.OrigOnCur)
			}
			// Fractional contribution.
			rem := js.LeafWork
			if js.Hop == len(js.Path)-1 {
				rem = js.Remaining
			}
			fracSum += js.FracWeight * rem / js.LeafWork
			// Leaf assignment membership.
			if js.leafIdx != i || s.tree.LeafIndex(js.Leaf) != li {
				return fmt.Errorf("sim: task %d missing from its leaf's assigned set", js.ID)
			}
			// Pending sets mirror the remaining path. (Keyed on the
			// option, not pendingOn's nil-ness: Reset keeps the buffers
			// allocated after instrumentation is switched off.)
			if s.opts.Instrument {
				for h := js.Hop; h < len(js.Path); h++ {
					v := js.Path[h]
					idx := js.pendIdx[h]
					if idx < 0 || idx >= len(s.pendingOn[v]) || s.pendingOn[v][idx] != js {
						return fmt.Errorf("sim: task %d missing from pendingOn[%d]", js.ID, v)
					}
				}
			}
		}
	}
	trackedActive := 0
	var trackedFrac float64
	for k := range s.shards {
		trackedActive += s.shards[k].activeTasks
		trackedFrac += s.shards[k].fracSum
	}
	if active != trackedActive {
		return fmt.Errorf("sim: activeTasks=%d but %d incomplete tasks exist", trackedActive, active)
	}
	if math.Abs(fracSum-trackedFrac) > 1e-6*math.Max(1, fracSum)+1e-6 {
		return fmt.Errorf("sim: fracSum drifted: tracked %v, recomputed %v", trackedFrac, fracSum)
	}
	// Queue membership: every avail task sits on that node; the
	// running task is the queue minimum (except under processor
	// sharing, where running is the min-remaining task).
	for v := tree.NodeID(1); int(v) < s.tree.NumNodes(); v++ {
		n := &s.nodes[v]
		count := 0
		for _, js := range n.avail.tasks() {
			count++
			if onNode[js] != v {
				return fmt.Errorf("sim: task %d queued on node %d but current node is %d", js.ID, v, onNode[js])
			}
		}
		if n.running != nil {
			if onNode[n.running] != v {
				return fmt.Errorf("sim: node %d running a task that is elsewhere", v)
			}
			// Reschedule always sets running to the queue minimum, and
			// cached keys do not move between reschedules, so the
			// identity must still hold (PS picks by live remaining
			// instead, which sync may have changed).
			if !s.ps && n.avail.min() != n.running {
				return fmt.Errorf("sim: node %d running task %d but the queue minimum is task %d",
					v, n.running.ID, n.avail.min().ID)
			}
		}
		if count == 0 && n.running != nil {
			return fmt.Errorf("sim: node %d running with an empty queue", v)
		}
	}
	return nil
}
