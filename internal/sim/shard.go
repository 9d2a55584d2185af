package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"treesched/internal/faults"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// shardState is the event machinery of one root-child subtree. The
// root performs no processing and every task's path lies inside one
// subtree (tree.Path starts at the root-adjacent ancestor), so after
// dispatch the shards share no mutable state: each owns its clock,
// event heap, fault-boundary cursor, flow-time accumulators, slice
// log and task arena. Both execution modes step the identical
// per-shard machines; only the stepping order differs, and every
// quantity the engine reports is either per-task or merged across
// shards in shard-index order — which is what makes parallel output
// bit-identical to sequential output.
type shardState struct {
	now float64
	// epoch counts the shard's dispatch-relevant state changes (queue
	// membership, running-task switches, clock movement); the per-node
	// dispatchScratch memos stamp their answers with it. Only the
	// owning goroutine writes it, and dispatch reads happen after the
	// barrier joins, so it needs no synchronization. Reset bumps rather
	// than zeroes it so stale stamps can never match.
	epoch uint64
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
	// are carved from. Per shard so parallel workers never contend.
	free  []*JobState
	block []JobState

	// err and panicVal collect a worker's failure for deterministic
	// (shard-index-ordered) propagation after the join.
	err      error
	panicVal interface{}

	// parent is the head shard feeding this sub-shard (-1 for
	// top-level shards; see Sim.buildPartition). inbox is the
	// time-sorted queue of tasks handed off by the parent, inboxIdx
	// the consumed-prefix cursor. The parent is the only writer and
	// runs strictly before this shard in parallel mode, so the inbox
	// needs no synchronization.
	parent   int32
	inbox    []handoff
	inboxIdx int
}

// handoff is one task in flight from a head shard to a child
// sub-shard: the task finished on the head's node at time at and joins
// its next node's queue at the same instant on the consumer side.
type handoff struct {
	at float64
	js *JobState
}

// peekHandoff returns the shard's next unconsumed parent handoff.
func (sh *shardState) peekHandoff() (handoff, bool) {
	if sh.inboxIdx >= len(sh.inbox) {
		return handoff{}, false
	}
	return sh.inbox[sh.inboxIdx], true
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

// --- parallel execution ---

// workerCount resolves Options.Workers against the shard count and
// the configuration's eligibility: 1 means sequential.
func (s *Sim) workerCount() int {
	w := s.opts.Workers
	if w <= 1 {
		return 1
	}
	if s.stream != nil {
		// Streaming hooks (accumulator, sink, retention ring) must
		// observe completions in a single global order.
		return 1
	}
	if w > len(s.shards) {
		w = len(s.shards)
	}
	if w > 1 && !s.parallelOK() {
		return 1
	}
	return w
}

// runShardsParallel executes run(k) for every shard on up to `workers`
// goroutines (the caller participates; extra workers try-acquire
// Options.WorkerTokens when set and are skipped if the pool is
// exhausted). Worker panics are captured per shard and re-raised on
// the calling goroutine for the lowest panicking shard index, so
// failure propagation is deterministic and *InternalError panics reach
// the usual recoverInternal conversion.
func (s *Sim) runShardsParallel(workers int, run func(k int)) {
	s.par = true
	defer func() { s.par = false }()
	for k := range s.shards {
		s.shards[k].err = nil
		s.shards[k].panicVal = nil
	}
	if s.split() {
		// Sub-shards consume handoffs their head shards emit, so the
		// waves are barrier-separated: every head finishes before any
		// child starts, making each child's inbox complete and
		// immutable when read.
		s.runWave(workers, s.wave0, run)
		s.runWave(workers, s.wave1, run)
	} else {
		s.runWave(workers, s.waveAll, run)
	}
	for k := range s.shards {
		if r := s.shards[k].panicVal; r != nil {
			s.shards[k].panicVal = nil
			panic(r)
		}
	}
}

// runWave executes run(k) for every shard index in idxs on up to
// `workers` goroutines, returning after all complete.
func (s *Sim) runWave(workers int, idxs []int32, run func(k int)) {
	if len(idxs) == 0 {
		return
	}
	if workers > len(idxs) {
		workers = len(idxs)
	}
	var next int64
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= len(idxs) {
				return
			}
			k := int(idxs[i])
			func() {
				defer func() {
					if r := recover(); r != nil {
						s.shards[k].panicVal = r
					}
				}()
				run(k)
			}()
		}
	}
	tok := s.opts.WorkerTokens
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		if tok != nil {
			acquired := false
			select {
			case tok <- struct{}{}:
				acquired = true
			default:
			}
			if !acquired {
				break // shared pool exhausted: run with the helpers we got
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tok != nil {
				defer func() { <-tok }()
			}
			work()
		}()
	}
	work()
	wg.Wait()
}

// drainParallel is Drain with the per-shard event loops running on the
// worker pool, followed by the shared end-of-run merge and checks.
func (s *Sim) drainParallel(workers int) (err error) {
	defer recoverInternal(&err)
	s.runShardsParallel(workers, s.drainShard)
	return s.finishDrain()
}

// shardPending reports whether shard k has work due at or before
// target: a live finish event, an unapplied fault boundary, or an
// unconsumed parent handoff. Stale events encountered while peeking
// are popped, which is semantically a no-op (they would be skipped by
// the event loop anyway).
func (s *Sim) shardPending(k int, target float64) bool {
	sh := &s.shards[k]
	if ev, ok := s.nextEvent(sh); ok && ev.at <= target {
		return true
	}
	if s.opts.Faults != nil {
		if b, ok := sh.peekBoundary(); ok && b.At <= target {
			return true
		}
	}
	if h, ok := sh.peekHandoff(); ok && h.at <= target {
		return true
	}
	return false
}

// advanceAllTo is AdvanceTo with the per-shard event loops running on
// the worker pool — the epoch step of the parallel querying-dispatch
// replay. Each shard processes exactly the per-shard event sequence it
// would process sequentially, so the post-advance state is identical;
// the fan-out is skipped when fewer than two shards have due work (the
// common case between closely spaced arrivals), where goroutine
// handoff would cost more than the events themselves.
func (s *Sim) advanceAllTo(target float64, workers int) {
	if target < s.now-timeEps {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now=%v", target, s.now))
	}
	busy := 0
	for k := range s.shards {
		if s.shardPending(k, target) {
			if busy++; busy >= 2 {
				break
			}
		}
	}
	if workers > 1 && busy >= 2 {
		s.runShardsParallel(workers, func(k int) { s.advanceShardTo(k, target) })
	} else {
		for k := range s.shards {
			s.advanceShardTo(k, target)
		}
	}
	s.now = target
}

// replayQueryingParallel runs a trace with a state-querying assigner
// on the worker pool: the commit sequence — query, Assign, Inject —
// stays sequential in arrival order (the assigner must observe engine
// state at each arrival exactly as in a sequential run), while the
// event processing between consecutive arrivals fans out per shard via
// advanceAllTo, as does the final drain. Queries run only between
// epochs, when no worker is in flight, so the per-node F-statistic
// snapshots are refreshed single-threaded; the per-shard event
// machines see the same event sequences as the sequential engine, so
// metrics, logs and error strings are bit-identical.
func (s *Sim) replayQueryingParallel(trace *workload.Trace, asg Assigner, workers int) (err error) {
	defer recoverInternal(&err)
	t := s.tree
	a := &s.scratchArrival
	for i := range trace.Jobs {
		j := &trace.Jobs[i]
		if j.LeafSizes != nil && len(j.LeafSizes) != len(t.Leaves()) {
			return fmt.Errorf("sim: job %d has %d leaf sizes for a %d-leaf tree", j.ID, len(j.LeafSizes), len(t.Leaves()))
		}
		s.advanceAllTo(j.Release, workers)
		*a = Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin), Weight: j.Weight}
		leaf := asg.Assign(s.Query(), a)
		if _, err := s.Inject(a, leaf); err != nil {
			return fmt.Errorf("sim: assigner %q: %w", asg.Name(), err)
		}
	}
	return s.drainParallel(workers)
}

// replayParallel runs a full trace with both injection and draining
// parallel per shard. It requires an ObliviousAssigner: dispatch
// decisions are precomputed sequentially in arrival order (the
// assigner reads no time-varying engine state, so the decisions equal
// the sequential ones, and stateful rules — round-robin cursors,
// seeded rngs — still observe arrivals in order), then every shard
// worker walks the full arrival list, advancing its shard's clock at
// every release instant and injecting only the jobs assigned to its
// own subtree. Advancing at every release keeps the integral
// quadrature points identical to the sequential engine's.
func (s *Sim) replayParallel(trace *workload.Trace, asg Assigner, workers int) (err error) {
	defer recoverInternal(&err)
	t := s.tree
	n := len(trace.Jobs)
	s.assignBuf = grow(s.assignBuf, n)
	q := s.Query()
	a := &s.scratchArrival
	for i := range trace.Jobs {
		j := &trace.Jobs[i]
		if j.LeafSizes != nil && len(j.LeafSizes) != len(t.Leaves()) {
			return fmt.Errorf("sim: job %d has %d leaf sizes for a %d-leaf tree", j.ID, len(j.LeafSizes), len(t.Leaves()))
		}
		*a = Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin), Weight: j.Weight}
		leaf := asg.Assign(q, a)
		if t.LeafIndex(leaf) < 0 {
			return fmt.Errorf("sim: assigner %q: sim: assignment to non-leaf node %d", asg.Name(), leaf)
		}
		s.assignBuf[i] = leaf
		s.records = append(s.records, JobMetrics{ID: j.ID})
	}
	if s.keepsTasks() {
		s.tasks = grow(s.tasks, n)
	}
	s.nextSeq = int64(n)
	s.runShardsParallel(workers, func(k int) { s.replayShard(k, trace, asg) })
	for k := range s.shards {
		if e := s.shards[k].err; e != nil {
			return e
		}
	}
	return s.finishDrain()
}

// replayShard is one worker's whole-trace pass for shard k: advance
// the shard through every release instant, inject the shard's own
// jobs, then drain the shard.
func (s *Sim) replayShard(k int, trace *workload.Trace, asg Assigner) {
	sh := &s.shards[k]
	for i := range trace.Jobs {
		j := &trace.Jobs[i]
		s.advanceShardTo(k, j.Release)
		leaf := s.assignBuf[i]
		if int(s.startShardOf(leaf, tree.NodeID(j.Origin))) != k {
			continue
		}
		w := j.Weight
		if w <= 0 {
			w = 1
		}
		li := s.tree.LeafIndex(leaf)
		js := s.newTask(sh)
		js.ID = j.ID
		js.seq = int64(i)
		js.Release = j.Release
		js.RouterSize = j.Size
		js.LeafWork = j.Size
		if j.LeafSizes != nil {
			js.LeafWork = j.LeafSizes[li]
		}
		js.FracWeight = 1
		js.Weight = w
		js.Leaf = leaf
		js.leafSizes = j.LeafSizes
		if err := s.inject(js, tree.NodeID(j.Origin)); err != nil {
			sh.err = fmt.Errorf("sim: assigner %q: %w", asg.Name(), err)
			return
		}
	}
	s.drainShard(k)
}
