package sim

import (
	"math"

	"treesched/internal/tree"
)

// Query is the read-only view of engine state handed to Assigners and
// to the instrumentation (potential function, Lemma validators).
// Queries are pure: remaining work is computed at the engine clock
// exactly as a sync at that instant would leave it
// (Sim.remainingAt), but nothing is written, so which queries run, how
// often and on which nodes never changes a run.
type Query struct {
	s *Sim
}

// Query returns the read-only state view. The view is owned by the
// engine and reused across calls, so the accessor does not allocate on
// the per-arrival assignment path.
func (s *Sim) Query() *Query {
	s.query.s = s
	return &s.query
}

// Tree returns the topology.
func (q *Query) Tree() *tree.Tree { return q.s.tree }

// Now returns the current simulation time.
func (q *Query) Now() float64 { return q.s.now }

// AvailVolumeHigher returns Σ p^A_{i,v}(t) over the jobs currently
// available on node v with strictly higher SJF priority than a
// hypothetical job with the given (size, release, id) — the volume
// term of the paper's F(j,v) (S_{v,j} minus J_j itself; the caller
// adds p_j for J_j's own membership in S).
func (q *Query) AvailVolumeHigher(v tree.NodeID, size, release float64, id int) float64 {
	n := &q.s.nodes[v]
	if q.s.ps {
		// Processor sharing drains every available task at once, so no
		// snapshot aggregate stays fixed between events; scan.
		var sum float64
		for _, js := range n.avail.tasks() {
			if higherPriority(js.PrioOnCur, js.Release, js.ID, js.seq, size, release, id, maxSeq) {
				sum += q.s.remainingAt(n, js)
			}
		}
		return sum
	}
	f := n.snapshot()
	h := searchTask(f.tasks[f.off:], f.keys[f.off:], size, release, id, maxSeq)
	return q.s.volumeHigher(n, f, h, size, release, id)
}

// AvailCountLarger returns |{J_i available on v : p_{i,v} > size}| —
// the displacement term of F(j,v). Distinct jobs are counted once even
// when split into packets; the de-duplication scratch lives on the
// engine so the per-arrival assignment path stays allocation-free.
func (q *Query) AvailCountLarger(v tree.NodeID, size float64) int {
	n := &q.s.nodes[v]
	if !q.s.ps {
		f := n.snapshot()
		return int(f.sufCnt[f.off+searchLargerPrio(f.keys[f.off:], size)])
	}
	// PS fallback: collect the qualifying IDs into the engine-owned
	// scratch, sort it, and count adjacency groups — O(k log k) instead
	// of the quadratic linear-probe the scratch used to be scanned
	// with, still allocation-free.
	seen := q.s.scratchIDs[:0]
	for _, js := range n.avail.tasks() {
		if js.PrioOnCur > size {
			seen = append(seen, js.ID)
		}
	}
	count := countDistinct(seen)
	q.s.scratchIDs = seen[:0]
	return count
}

// countDistinct sorts ids in place (insertion sort: the scratch is
// small and often nearly sorted, and the routine must not allocate)
// and counts distinct values.
func countDistinct(ids []int) int {
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
	count := 0
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			count++
		}
	}
	return count
}

// AvailVolume returns the total remaining volume available on v.
func (q *Query) AvailVolume(v tree.NodeID) float64 {
	n := &q.s.nodes[v]
	if q.s.ps {
		var sum float64
		for _, js := range n.avail.tasks() {
			sum += q.s.remainingAt(n, js)
		}
		return sum
	}
	f := n.snapshot()
	vol := f.sufVol[f.off]
	if n.running != nil {
		vol += q.s.remainingAt(n, n.running)
	}
	return vol
}

// AvailStats returns AvailVolumeHigher and AvailCountLarger of v in
// one call — the two node-local terms of the paper's F(j,v), answered
// from one snapshot search. The greedy assigners read it on
// root-adjacent nodes; the identical rule only where AvailStatsBound
// is not exact.
func (q *Query) AvailStats(v tree.NodeID, size, release float64, id int) (volHigher float64, countLarger int) {
	if q.s.ps {
		return q.AvailVolumeHigher(v, size, release, id), q.AvailCountLarger(v, size)
	}
	return q.s.availStats(&q.s.nodes[v], size, release, id)
}

// AvailStatsBound returns lower bounds of AvailStats' two terms, read
// from v's running task alone in O(1) and without activating v's
// snapshot. exact reports that the bounds are AvailStats' answers bit
// for bit: v holds no task, or (outside processor sharing) holds only
// its running task. Processor sharing and a node with queued tasks but
// none running give (0, 0, false).
//
// The bounds hold on any node. The stored volume of the snapshot's
// qualifying prefix is a difference of a non-increasing suffix sum, so
// it is ≥ +0, and volumeHigher adds the running task's work to it when
// the task outranks the probe; a running task with PrioOnCur above size
// is one of the jobs AvailCountLarger counts. Float addition and
// multiplication are monotone on non-negative operands, so F(j,v)
// formed from the bounds is at most F(j,v) formed from AvailStats.
func (q *Query) AvailStatsBound(v tree.NodeID, size, release float64, id int) (volHigher float64, countLarger int, exact bool) {
	n := &q.s.nodes[v]
	k := n.avail.len()
	if k == 0 {
		return 0, 0, true
	}
	r := n.running
	if q.s.ps || r == nil {
		return 0, 0, false
	}
	exact = k == 1
	switch {
	case r.PrioOnCur > size:
		countLarger = 1
	case higherPriority(r.PrioOnCur, r.Release, r.ID, r.seq, size, release, id, maxSeq):
		// As volumeHigher: the stored prefix volume (+0 here) plus the
		// running task's work.
		volHigher += q.s.remainingAt(n, r)
	}
	return volHigher, countLarger, exact
}

// RootWorkBound returns, in O(1) and without reading any node, a
// lower bound w of the work every busy root-adjacent node's running
// task has left at the engine clock (remainingAt, as AvailStats reads
// it), and a bound that holds only for a probe (release, id) following
// every task injected since the last Reset in (release, ID) order:
// each queued task with PrioOnCur at most a probe size then outranks
// the probe, so such a root's AvailVolumeHigher is at least w. A w of
// 0 or less certifies nothing; that is the answer under processor
// sharing, with a fault schedule (an outage leaves a running task
// without a finish event), for any other probe, and for a heap top
// below 2^-960 or 2^-960/speed, where rounding loses its relative
// bound. The identical greedy rule reads it to end its scan at the
// first empty branch root.
//
// The bound, proved in DESIGN §3.4: a root's running task whose finish
// event is t_f, on a node of speed s synced m times since that event
// was set, has at least s·(t_f·(1−k) − t) left at clock t ≤ t_f, with
// k = (m+7)·2^-53 covering the rounding of the event time, of each
// sync's elapsed work and remainder, and of the query's own. The node
// is synced only when a task is pushed onto it, a push that preempts
// sets a new event, and every pushed task is still queued there, so
// m < Active(). Every such event is in the heap, so t_f is at least
// the heap top, and s at least rootSpeed; k = (Active()+2)·2^-51 also
// absorbs the rounding of the bound's own evaluation.
func (q *Query) RootWorkBound(release float64, id int) float64 {
	s := q.s
	if s.ps || s.opts.Faults != nil ||
		!(release > s.maxRelease || release == s.maxRelease && id >= s.maxID) {
		return 0
	}
	evs := s.events.evs
	if len(evs) == 0 {
		return math.Inf(1) // no node is busy
	}
	top := evs[0].time()
	if !(top >= 0x1p-960 && top*s.rootSpeed >= 0x1p-960) {
		return 0
	}
	k := float64(s.activeTasks+2) * 0x1p-51
	return s.rootSpeed * (top - s.now - k*top)
}

// AvailCount returns the number of jobs available on v.
func (q *Query) AvailCount(v tree.NodeID) int {
	return q.s.nodes[v].avail.len()
}

// AssignedUpstreamWork returns Σ LeafWork over the jobs assigned to
// leaf that have not yet arrived at it — the store-and-forward backlog
// still in flight down the path. Together with AvailVolume(leaf) it
// gives the leaf's total committed volume in O(1), replacing the
// per-leaf LeafQueue scan (the sum is maintained incrementally, so its
// float rounding may differ from a scan's by final ulps).
func (q *Query) AssignedUpstreamWork(leaf tree.NodeID) float64 {
	return q.s.upstreamWork[q.s.tree.LeafIndex(leaf)]
}

// remainingOnLeaf returns p^A_{i,leaf}(t): the task's remaining work
// on its assigned leaf (full leaf work while still upstream).
func (q *Query) remainingOnLeaf(js *JobState) float64 {
	if js.Hop == len(js.Path)-1 {
		return q.s.remainingAt(&q.s.nodes[js.Leaf], js)
	}
	return js.LeafWork
}

// LeafQueue describes the paper's Q_v(t) for a leaf v: all incomplete
// jobs assigned to it, wherever they currently are on the path.
// The returned slice is live engine state; do not mutate.
func (q *Query) LeafQueue(leaf tree.NodeID) []*JobState {
	return q.s.assigned[q.s.tree.LeafIndex(leaf)]
}

// LeafVolumeHigher returns Σ_{J_i ∈ S_{v,j}(t)} p^A_{i,v}(t) over jobs
// assigned to leaf v with higher priority than (sizeOnLeaf, release,
// id), excluding J_j itself — the first term of the paper's F'(j,v).
func (q *Query) LeafVolumeHigher(leaf tree.NodeID, sizeOnLeaf, release float64, id int) float64 {
	var sum float64
	for _, js := range q.LeafQueue(leaf) {
		if higherPriority(js.PrioLeaf, js.Release, js.ID, js.seq, sizeOnLeaf, release, id, maxSeq) {
			sum += q.remainingOnLeaf(js)
		}
	}
	return sum
}

// LeafFracLarger returns Σ_{J_i ∈ Q_v(t), p_{i,v} > sizeOnLeaf}
// p^A_{i,v}(t)/p_{i,v} — the fractional displacement term of F'(j,v).
func (q *Query) LeafFracLarger(leaf tree.NodeID, sizeOnLeaf float64) float64 {
	var sum float64
	for _, js := range q.LeafQueue(leaf) {
		if js.PrioLeaf > sizeOnLeaf {
			sum += js.FracWeight * q.remainingOnLeaf(js) / js.LeafWork
		}
	}
	return sum
}

// BranchFracRemaining returns Σ_{v'∈L(v)} Σ_{J_i∈Q_{v'}(t)}
// p^A_{i,v'}(t)/p_{i,v'}: the total remaining leaf-work fraction of
// jobs routed into the subtree of v — the α_{v,t} dual variable of
// the paper's Section 3.5 for root-adjacent v.
func (q *Query) BranchFracRemaining(v tree.NodeID) float64 {
	var sum float64
	for _, leaf := range q.s.tree.SubtreeLeaves(v) {
		for _, js := range q.LeafQueue(leaf) {
			sum += js.FracWeight * q.remainingOnLeaf(js) / js.LeafWork
		}
	}
	return sum
}

// PendingOn returns the paper's Q_v(t) for any node v: tasks routed
// through v that have not completed processing on v. Requires
// Options.Instrument. Live engine state; do not mutate.
func (q *Query) PendingOn(v tree.NodeID) []*JobState {
	// Checked via the options, not pendingOn's nil-ness: a Reset from
	// instrumented to uninstrumented keeps the buffers allocated.
	if !q.s.opts.Instrument {
		panic("sim: PendingOn requires Options.Instrument")
	}
	return q.s.pendingOn[v]
}

// RemainingOn returns p^A_{i,v}(t): js's remaining processing on node
// v, assuming v is on js's path at or after its current hop.
func (q *Query) RemainingOn(js *JobState, v tree.NodeID) float64 {
	if js.Hop < len(js.Path) && js.Path[js.Hop] == v {
		return q.s.remainingAt(&q.s.nodes[v], js)
	}
	// Not yet reached: full requirement.
	if v == js.Leaf {
		return js.LeafWork
	}
	return js.RouterSize
}

// SizeOn returns the full (original) processing requirement of js on v.
func (q *Query) SizeOn(js *JobState, v tree.NodeID) float64 {
	if v == js.Leaf {
		return js.LeafWork
	}
	return js.RouterSize
}

// PrioSizeOn returns the priority size (the original job's size) of
// js on node v; equals SizeOn for whole jobs.
func (q *Query) PrioSizeOn(js *JobState, v tree.NodeID) float64 {
	if v == js.Leaf {
		return js.PrioLeaf
	}
	return js.PrioRouter
}

// HigherPriorityOn reports whether task i precedes a hypothetical job
// (size, release, id) in SJF order on node v.
func (q *Query) HigherPriorityOn(i *JobState, v tree.NodeID, size, release float64, id int) bool {
	return higherPriority(q.PrioSizeOn(i, v), i.Release, i.ID, i.seq, size, release, id, maxSeq)
}

// maxSeq stands in for the engine sequence number of a job that has
// not been injected yet: already-injected tasks with identical keys
// and ID (packet siblings) keep priority over it.
const maxSeq = int64(1) << 62
