package sim

import "treesched/internal/tree"

// finishEvent is the scheduled completion of a node's running task.
type finishEvent struct {
	at   float64
	node tree.NodeID
}

// eventHeap is the engine's event queue: a binary min-heap of finish
// events ordered by time, ties by node, holding one entry for each
// node that runs a task at positive speed and none for any other.
// pos[v] is node v's entry's index in evs (-1 when it has none), so a
// reschedule moves the entry in place, a finish followed by the
// node's next task is one sift, and no entry ever goes stale.
type eventHeap struct {
	evs []finishEvent
	pos []int32
}

// reset empties the heap for a tree of n nodes, keeping capacity.
func (h *eventHeap) reset(n int) {
	h.evs = h.evs[:0]
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
	}
	h.pos = h.pos[:n]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// eventBefore orders finish events by time, ties by node; with one
// entry per node the order is total.
func eventBefore(a, b finishEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.node < b.node
}

// set schedules node v's finish at at, moving v's entry if it has one.
func (h *eventHeap) set(v tree.NodeID, at float64) {
	i := int(h.pos[v])
	if i < 0 {
		h.evs = append(h.evs, finishEvent{at: at, node: v})
		h.up(len(h.evs) - 1)
		return
	}
	h.evs[i].at = at
	h.fix(i)
}

// clear removes node v's entry, if any.
func (h *eventHeap) clear(v tree.NodeID) {
	i := int(h.pos[v])
	if i < 0 {
		return
	}
	h.pos[v] = -1
	last := len(h.evs) - 1
	moved := h.evs[last]
	h.evs = h.evs[:last]
	if i == last {
		return
	}
	h.evs[i] = moved
	h.fix(i)
}

// fix restores heap order after the entry at i changed.
func (h *eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// up and down sift hole-style: the moving entry is held in a register
// and placed once, and every entry that moves has its index rewritten.
func (h *eventHeap) up(i int) {
	evs := h.evs
	ev := evs[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(ev, evs[p]) {
			break
		}
		evs[i] = evs[p]
		h.pos[evs[i].node] = int32(i)
		i = p
	}
	evs[i] = ev
	h.pos[ev.node] = int32(i)
}

// down reports whether the entry at i moved.
func (h *eventHeap) down(i int) bool {
	evs := h.evs
	n := len(evs)
	i0 := i
	ev := evs[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small, se := l, evs[l]
		if r := l + 1; r < n && eventBefore(evs[r], se) {
			small, se = r, evs[r]
		}
		if !eventBefore(se, ev) {
			break
		}
		evs[i] = se
		h.pos[se.node] = int32(i)
		i = small
	}
	evs[i] = ev
	h.pos[ev.node] = int32(i)
	return i > i0
}
