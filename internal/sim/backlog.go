// The incremental backlog/stability probe. A scheduler serving an
// online arrival stream needs an O(1)-per-event estimate of how far
// behind the system is before it can decide whether to admit the next
// job: an unstable system accumulates an O(n) backlog of live tasks
// that no amount of completion recycling bounds (the constant-memory
// streaming pipeline only holds for stable systems — see DESIGN.md
// §3.3), so overload has to surface as explicit load shedding before
// the work is accepted, not as memory growth after.
//
// The estimator is the same fluid model the fleet front door routes
// by: offered work drains at the tree's root capacity (the sum of the
// root-adjacent speeds — the paper's root bandwidth bound, which no
// schedule can beat), and whatever has not drained by the current
// release frontier is backlog. It deliberately never observes
// execution: feeding it only the admitted arrival sequence keeps the
// estimate a pure function of that sequence, so an admission
// controller built on it makes deterministic, replayable decisions.
package sim

import (
	"fmt"
	"math"

	"treesched/internal/tree"
)

// RootCapacity returns the tree's fluid drain capacity: the sum of
// the root-adjacent node speeds. The root performs no processing and
// every job crosses exactly one root-adjacent node, so this is the
// hard ceiling on sustainable offered work per unit time.
func RootCapacity(t *tree.Tree) float64 {
	var c float64
	for _, v := range t.RootAdjacent() {
		c += t.Speed(v)
	}
	return c
}

// BacklogEstimator tracks a fluid backlog estimate over an arrival
// sequence with non-decreasing release times: offered work accumulates
// at each Offer and drains at Capacity between releases. All methods
// are O(1); the zero value is unusable — construct with
// NewBacklogEstimator.
type BacklogEstimator struct {
	cap     float64
	now     float64 // release frontier the estimate is advanced to
	backlog float64
	offered float64 // cumulative offered work
	first   float64 // earliest release observed
	seen    bool
}

// NewBacklogEstimator returns an estimator draining at the given
// capacity (work units per unit time). It panics on a non-positive
// capacity, mirroring the engine's constructor discipline.
func NewBacklogEstimator(capacity float64) *BacklogEstimator {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("sim: BacklogEstimator needs a positive finite capacity, got %v", capacity))
	}
	return &BacklogEstimator{cap: capacity}
}

// AdvanceTo drains the estimate to time t. Times before the current
// frontier are ignored (the estimate never runs backwards), so
// callers may probe with any monotone-or-stale release.
func (e *BacklogEstimator) AdvanceTo(t float64) {
	if t <= e.now && e.seen {
		return
	}
	if !e.seen {
		e.seen = true
		e.first = t
		e.now = t
		return
	}
	d := e.backlog - (t-e.now)*e.cap
	if d < 0 {
		d = 0
	}
	e.backlog = d
	e.now = t
}

// Offer advances the estimate to the job's release, charges its work,
// and returns the new backlog. Releases may repeat or lag the
// frontier (the drain simply does not run backwards).
func (e *BacklogEstimator) Offer(release, size float64) float64 {
	e.AdvanceTo(release)
	e.backlog += size
	e.offered += size
	return e.backlog
}

// Backlog returns the current backlog estimate (work units not yet
// drained at the frontier).
func (e *BacklogEstimator) Backlog() float64 { return e.backlog }

// Capacity returns the drain rate the estimator was built with.
func (e *BacklogEstimator) Capacity() float64 { return e.cap }

// Now returns the release frontier the estimate is advanced to.
func (e *BacklogEstimator) Now() float64 { return e.now }

// DrainTime returns how long clearing the current backlog plus extra
// additional work would take at capacity.
func (e *BacklogEstimator) DrainTime(extra float64) float64 {
	return (e.backlog + extra) / e.cap
}

// Utilization returns the long-run offered load relative to capacity:
// cumulative offered work over capacity x elapsed release span.
// Before any time has elapsed it reports +Inf when work has been
// offered (everything at one instant is an overload) and 0 otherwise.
func (e *BacklogEstimator) Utilization() float64 {
	span := e.now - e.first
	if span <= 0 {
		if e.offered > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return e.offered / (e.cap * span)
}

// Stable reports whether the observed arrival sequence is sustainable:
// long-run offered rate strictly below capacity. An unstable sequence
// is the regime where backlog — and with it live engine state — grows
// without bound, which is what an admission controller must refuse.
func (e *BacklogEstimator) Stable() bool { return e.Utilization() < 1 }
