package sim

import (
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
// from one snapshot search. The greedy assigners use this on the
// root-adjacent node of every candidate branch.
func (q *Query) AvailStats(v tree.NodeID, size, release float64, id int) (volHigher float64, countLarger int) {
	if q.s.ps {
		return q.AvailVolumeHigher(v, size, release, id), q.AvailCountLarger(v, size)
	}
	return q.s.availStats(&q.s.nodes[v], size, release, id)
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
