package sim

import (
	"math"
	"math/bits"

	"treesched/internal/tree"
)

// finishEvent is the scheduled completion of a node's running task.
// at holds the finish time's IEEE-754 bits. A deadline is
// now + remaining/speed with now ≥ +0, remaining ≥ +0 and the speed
// positive and finite, so it is never negative, −0 or NaN, and its
// bits order exactly as the times do: +Inf, a clock overflow, sorts
// after every finite time.
type finishEvent struct {
	at   uint64
	node tree.NodeID
}

func (e finishEvent) time() float64 { return math.Float64frombits(e.at) }

// before is 1 when a's key sorts below b's and 0 otherwise, the key
// being the 128-bit unsigned (time bits, node). The borrow chain of
// a − b decides it with no branch: the sift loops pay no
// mispredictions on data-dependent float compares and tie-breaks.
// With one entry per node the order is total.
func before(a, b finishEvent) uint64 {
	_, borrow := bits.Sub64(uint64(uint32(a.node)), uint64(uint32(b.node)), 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
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

// set schedules node v's finish at at, moving v's entry if it has one.
func (h *eventHeap) set(v tree.NodeID, at float64) {
	ev := finishEvent{at: math.Float64bits(at), node: v}
	i := int(h.pos[v])
	if i < 0 {
		h.evs = append(h.evs, ev)
		h.up(len(h.evs)-1, ev)
		return
	}
	h.replace(i, ev)
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
	if i < last {
		h.replace(i, moved)
	}
}

// replace puts ev in the slot at i. An entry that sorts before the
// one it replaces is below that one's children, so it can only rise;
// any other is above that one's parent, so it can only sink.
func (h *eventHeap) replace(i int, ev finishEvent) {
	if before(ev, h.evs[i]) != 0 {
		h.up(i, ev)
	} else {
		h.down(i, ev)
	}
}

// up and down sift ev hole-style from slot i: ev is held in a
// register and placed once, and every entry that moves has its index
// rewritten.
func (h *eventHeap) up(i int, ev finishEvent) {
	evs := h.evs
	for i > 0 {
		p := (i - 1) / 2
		if before(ev, evs[p]) == 0 {
			break
		}
		evs[i] = evs[p]
		h.pos[evs[i].node] = int32(i)
		i = p
	}
	evs[i] = ev
	h.pos[ev.node] = int32(i)
}

func (h *eventHeap) down(i int, ev finishEvent) {
	evs := h.evs
	n := len(evs)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if l+1 < n {
			l += int(before(evs[l+1], evs[l]))
		}
		if before(evs[l], ev) == 0 {
			break
		}
		evs[i] = evs[l]
		h.pos[evs[i].node] = int32(i)
		i = l
	}
	evs[i] = ev
	h.pos[ev.node] = int32(i)
}
