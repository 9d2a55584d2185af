package sim

import (
	"fmt"
	"math"

	"treesched/internal/tree"
)

// CheckInvariants cross-validates the engine's internal bookkeeping:
// queue membership and back-indices, leaf assignment sets, pending
// sets (when instrumented), the active-task counter, the running
// fractional-flow sum and the event heap. It reaches the live tasks
// through the leaf assigned lists, is O(live tasks · depth + nodes)
// and intended for tests; it returns the first inconsistency found.
// Like a query it reads remaining work as computed at the engine clock
// and writes nothing, so calling it (from an Observer, say) never
// changes a run.
func (s *Sim) CheckInvariants() error {
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
			rem := s.remainingAt(&s.nodes[cur], js)
			if rem < -1e-9 || rem > js.OrigOnCur+1e-9 {
				return fmt.Errorf("sim: task %d remaining %v outside [0,%v]", js.ID, rem, js.OrigOnCur)
			}
			// Fractional contribution.
			leafRem := js.LeafWork
			if js.Hop == len(js.Path)-1 {
				leafRem = rem
			}
			fracSum += js.FracWeight * leafRem / js.LeafWork
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
	if active != s.activeTasks {
		return fmt.Errorf("sim: activeTasks=%d but %d incomplete tasks exist", s.activeTasks, active)
	}
	if math.Abs(fracSum-s.fracSum) > 1e-6*math.Max(1, fracSum)+1e-6 {
		return fmt.Errorf("sim: fracSum drifted: tracked %v, recomputed %v", s.fracSum, fracSum)
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
			// Reschedule sets running to the queue minimum, and cached
			// keys do not move between reschedules, so the identity
			// must still hold (PS picks by remaining work instead) —
			// but for a task with no work left, which keeps the node
			// until its finish event, due at this instant, completes
			// it (rescheduleWith).
			if !s.ps && n.avail.min() != n.running && n.running.Remaining != 0 {
				return fmt.Errorf("sim: node %d running task %d but the queue minimum is task %d",
					v, n.running.ID, n.avail.min().ID)
			}
		}
		if count == 0 && n.running != nil {
			return fmt.Errorf("sim: node %d running with an empty queue", v)
		}
	}
	return s.checkEvents()
}

// checkEvents verifies the event heap: heap order, every entry's
// back-index, every deadline not NaN and not before now (the key's
// precondition), exactly one entry per node that runs a task at
// positive speed (none for an idle or stalled node), and every
// deadline equal to now + remaining/speed (× the share count under
// processor sharing) within timeEps.
func (s *Sim) checkEvents() error {
	h := &s.events
	for i, ev := range h.evs {
		if at := ev.time(); !(at >= s.now) {
			return fmt.Errorf("sim: node %d's finish event at %v is NaN or before now=%v", ev.node, at, s.now)
		}
		if i > 0 && before(ev, h.evs[(i-1)/2]) != 0 {
			return fmt.Errorf("sim: event heap out of order at index %d (node %d)", i, ev.node)
		}
		if int(h.pos[ev.node]) != i {
			return fmt.Errorf("sim: node %d's event sits at heap index %d but its index reads %d", ev.node, i, h.pos[ev.node])
		}
	}
	for v := range s.nodes {
		n := &s.nodes[v]
		i := int(h.pos[v])
		if i >= len(h.evs) || (i >= 0 && int(h.evs[i].node) != v) {
			return fmt.Errorf("sim: node %d's heap index %d points at no entry of its own", v, i)
		}
		busy := n.running != nil && n.speed > 0
		if busy != (i >= 0) {
			return fmt.Errorf("sim: node %d has heap entry %v while busy=%v (running=%v, speed %v)",
				v, i >= 0, busy, n.running != nil, n.speed)
		}
		if !busy {
			continue
		}
		share := 1.0
		if s.ps {
			share = float64(n.avail.len())
		}
		want := s.now + s.remainingAt(n, n.running)*share/n.speed
		if at := h.evs[i].time(); math.Abs(at-want) > timeEps*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("sim: node %d's finish event at %v, want now + remaining/speed = %v", v, at, want)
		}
	}
	return nil
}
