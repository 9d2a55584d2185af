package sim

import "treesched/internal/faults"

// shardState is the event machinery of one root-child subtree. The
// root performs no processing and every task's path lies inside one
// subtree (tree.Path starts at the root-adjacent ancestor), so after
// dispatch the shards share no mutable state: each owns its clock,
// event heap, fault-boundary cursor, flow-time accumulators, slice
// log and task arena. The engine steps the shards one after another
// (or, when it needs one global event order, interleaved by time), and
// every quantity it reports is either per-task or merged across shards
// in shard-index order.
type shardState struct {
	now float64
	// events is a min-heap of scheduled node-finish events with lazy
	// invalidation via nodeState.finishSeq.
	events []finishEvent
	// bounds is the shard's slice of the compiled fault boundaries
	// (sorted by time, node); faultIdx is the applied-prefix cursor.
	bounds   []faults.Boundary
	faultIdx int

	activeTasks int
	// Running totals (see Sim.Stats; summed across shards in index
	// order when reported).
	fracSum        float64 // Σ weight * remainingLeafFraction over active tasks
	fracRate       float64 // d(fracSum)/dt from leaves currently processing
	fracIntegral   float64
	activeIntegral float64 // ∫ activeTasks dt (integral-flow cross-check)
	eventCount     int64

	// slices holds the shard's exact processing record when
	// RecordSlices; entries below mergeFloor predate the latest
	// migration and must not be extended by sync's merge.
	slices     []Slice
	mergeFloor int

	// free holds recycled JobStates (returned at completion, or by
	// Reset); block is the tail of the current arena chunk fresh tasks
	// are carved from.
	free  []*JobState
	block []JobState
}

// peekBoundary returns the shard's next unapplied fault boundary.
func (sh *shardState) peekBoundary() (faults.Boundary, bool) {
	if sh.faultIdx >= len(sh.bounds) {
		return faults.Boundary{}, false
	}
	return sh.bounds[sh.faultIdx], true
}

// --- per-shard event heap (min by time, then node for determinism) ---

// eventBefore orders finish events by time, ties by node. The order
// is total across distinct (at, node) pairs; two events can share both
// only when one is stale (a node keeps one live finishSeq), and either
// pop order discards the stale one identically.
func eventBefore(a, b finishEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.node < b.node
}

func (sh *shardState) pushEvent(ev finishEvent) {
	sh.events = append(sh.events, ev)
	sh.upEvent(len(sh.events) - 1)
}

// upEvent and downEvent sift hole-style: the moving event is held in a
// register and placed once, halving the writes of the swap-based form
// (this is the hottest loop after dispatch itself — every finish event
// passes through here twice).
func (sh *shardState) upEvent(i int) {
	evs := sh.events
	ev := evs[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(ev, evs[p]) {
			break
		}
		evs[i] = evs[p]
		i = p
	}
	evs[i] = ev
}

func (sh *shardState) downEvent(i int) {
	evs := sh.events
	n := len(evs)
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
		i = small
	}
	evs[i] = ev
}

func (sh *shardState) popEvent() finishEvent {
	top := sh.events[0]
	n := len(sh.events) - 1
	sh.events[0] = sh.events[n]
	sh.events = sh.events[:n]
	if n > 0 {
		sh.downEvent(0)
	}
	return top
}
