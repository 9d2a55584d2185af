// Package sim implements a continuous-time, event-driven simulator of
// the bandwidth-constrained tree network scheduling model of
// Im & Moseley (SPAA 2015).
//
// Jobs arrive at the root, are immediately dispatched to a leaf
// machine by an Assigner, and then travel store-and-forward down the
// root-to-leaf path: each node processes at most one job at a time at
// its configured speed, preempting according to a node Policy, and a
// job cannot begin on a node until it has fully completed on the
// parent node. The engine tracks exact integral and fractional flow
// time, per-node utilization, and exposes the state queries
// (Q_v(t), S_{v,j}(t), remaining work) that the paper's greedy
// assignment rule and potential-function analysis consume.
package sim

import "treesched/internal/tree"

// Policy orders the jobs available on a node; the node always runs the
// available job with the smallest key, preempting when a smaller-key
// job appears. Keys are compared lexicographically as (K1, K2, task
// sequence number), so every policy is a total, deterministic order.
type Policy interface {
	Name() string
	// Key returns the priority of task js on its current node.
	// Smaller runs first.
	Key(js *JobState) (k1, k2 float64)
}

// StaticKeyPolicy marks a Policy whose Key is fixed while a task stays
// on one node (it never reads Remaining, the only field that drifts
// between events). The engine then skips the per-reschedule key
// refresh and heap fix-up for the running task — a pure fast path,
// since re-deriving an unchanged key cannot move it in the heap.
// SRPT and PS keys follow Remaining, so they must not carry the marker.
type StaticKeyPolicy interface {
	Policy
	// StaticKeyPolicy is a marker method with no behavior.
	StaticKeyPolicy()
}

// SJF is Shortest-Job-First by original processing time on the node,
// breaking ties by release time ("the oldest job in the class") — the
// node policy used by all of the paper's algorithms.
type SJF struct{}

func (SJF) Name() string { return "SJF" }

func (SJF) Key(js *JobState) (float64, float64) {
	return js.PrioOnCur, js.Release
}

// StaticKeyPolicy implements the marker: the key reads only fields
// fixed for the task's stay on the node.
func (SJF) StaticKeyPolicy() {}

// FIFO runs jobs in order of arrival at the node. Because the earliest
// arrival always has the smallest key, FIFO never preempts in practice.
type FIFO struct{}

func (FIFO) Name() string { return "FIFO" }

func (FIFO) Key(js *JobState) (float64, float64) {
	return js.NodeArrive, js.Release
}

// StaticKeyPolicy implements the marker.
func (FIFO) StaticKeyPolicy() {}

// SRPT is Shortest-Remaining-Processing-Time on the current node. The
// running job's remaining time only shrinks, so it keeps its place
// until a strictly shorter job arrives.
type SRPT struct{}

func (SRPT) Name() string { return "SRPT" }

func (SRPT) Key(js *JobState) (float64, float64) {
	return js.Remaining, js.Release
}

// WSJF (a.k.a. Highest-Density-First) orders by size/weight on the
// current node: among equal sizes, heavier jobs run first; among equal
// weights it degrades to SJF. This is the classic rule for weighted
// flow time (the X3 extension).
type WSJF struct{}

// Name implements Policy.
func (WSJF) Name() string { return "WSJF" }

// Key implements Policy.
func (WSJF) Key(js *JobState) (float64, float64) {
	return js.PrioOnCur / js.Weight, js.Release
}

// StaticKeyPolicy implements the marker.
func (WSJF) StaticKeyPolicy() {}

// PS is (egalitarian) processor sharing: every job available on a
// node progresses at rate speed/k where k is the number of available
// jobs — the idealized fair-queueing router. PS is handled specially
// by the engine (the Key method exists only to satisfy Policy and
// orders completions by remaining work).
type PS struct{}

// Name implements Policy.
func (PS) Name() string { return "PS" }

// Key implements Policy (unused for scheduling decisions; PS shares).
func (PS) Key(js *JobState) (float64, float64) {
	return js.Remaining, js.Release
}

// LCFS preempts in favor of the most recently arrived job.
type LCFS struct{}

func (LCFS) Name() string { return "LCFS" }

func (LCFS) Key(js *JobState) (float64, float64) {
	return -js.NodeArrive, -js.Release
}

// StaticKeyPolicy implements the marker.
func (LCFS) StaticKeyPolicy() {}

// higherPriority reports whether key (k1,k2,id,seq) precedes
// (l1,l2,lid,lseq). The job ID breaks ties before the engine task
// sequence number so that packets of the same job stay contiguous and
// assigner queries about not-yet-injected jobs are order-consistent.
//
// The float tiers must stay plain comparisons (LCFS keys are
// negative, so order-preserving bit tricks are out), but the integer
// tail packs both tie-breaks into one signed difference: IDs are
// dense non-negative ints and seqs non-negative int64s, so the
// subtractions cannot overflow and d's sign decides both tiers in a
// single branch. This is the hottest comparison in the engine (every
// heap sift calls it).
func higherPriority(k1, k2 float64, kid int, kseq int64, l1, l2 float64, lid int, lseq int64) bool {
	if k1 != l1 {
		return k1 < l1
	}
	if k2 != l2 {
		return k2 < l2
	}
	d := int64(kid) - int64(lid)
	if d == 0 {
		d = kseq - lseq
	}
	return d < 0
}

// Assigner decides, at a job's arrival instant, which leaf machine
// will process it (immediate dispatch). Implementations range from the
// paper's greedy rule (internal/core) to the baselines in
// internal/sched.
type Assigner interface {
	Name() string
	// Assign inspects the simulator state through q and returns the
	// chosen leaf. It must return a leaf of q.Tree(); for jobs with a
	// non-root Origin it must choose a leaf below the origin.
	Assign(q *Query, j *Arrival) tree.NodeID
}

// RootOnlyAssigner marks an Assigner that places root arrivals only:
// it does not implement the arbitrary-origin extension, so
// CheckArrival refuses a job with a non-root Origin before Assign
// sees it.
type RootOnlyAssigner interface {
	Assigner
	// RootOnly is a marker method with no behavior.
	RootOnly()
}

// Arrival is the assigner's view of an arriving job.
type Arrival struct {
	ID      int
	Release float64
	Size    float64 // router size p_j
	// LeafSizes is indexed by leaf index; nil in the identical case.
	LeafSizes []float64
	Origin    tree.NodeID // 0 (root) unless the arbitrary-origin extension is used
	// Weight is the job's importance (0 means 1) for weighted flow.
	Weight float64
}

// LeafSize returns p_{j,v} for the leaf with the given leaf index.
func (a *Arrival) LeafSize(leafIndex int) float64 {
	if a.LeafSizes == nil {
		return a.Size
	}
	return a.LeafSizes[leafIndex]
}
