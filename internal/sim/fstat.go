// Per-node F-statistic snapshots: the aggregates behind the paper's
// greedy dispatch rule. The F(j,v) terms an assigner queries —
// AvailVolumeHigher, AvailCountLarger, AvailVolume — are sums over the
// tasks available on one node, ordered by the SJF priority comparator.
// Instead of rescanning the queue per arrival, each node keeps a
// snapshot of its available set sorted by that comparator with suffix
// aggregates. The first query seeds the sorted set with one full sort;
// afterwards queue membership changes (push/remove at event
// boundaries) maintain it — a task's sort key is fixed between
// memberships, so a binary-searched insert or delete keeps the order
// exact.
//
// sufVol[i] sums Remaining over tasks[i:] except the node's running
// task, and sufCnt[i] counts the distinct job IDs among tasks[i:]. A
// non-running task's Remaining only changes while it runs, so the
// aggregates change only at membership changes and when the running
// task changes, and then only at and below the changed rank; the
// running task's work is computed at query time (Sim.remainingAt),
// never stored. Each entry is the same fold from the window end over
// the tasks at and after its rank, so a snapshot first activated by a
// late query holds the same bits as one maintained from time zero, and
// queries never write it. Removing the window head — the common case,
// since non-PS nodes complete the queue head — advances off and
// touches no aggregate; the buffer compacts once the dead prefix
// dominates the live window, so memory stays proportional to the live
// set.
//
// Because the comparator is a total order, the qualifying set of
// AvailVolumeHigher is a prefix of the snapshot and the qualifying set
// of AvailCountLarger a suffix, turning both queries into binary
// searches. Packets of one job share (PrioOnCur, Release, ID), so
// equal-ID tasks are adjacent in the sort and the distinct-job counts
// de-duplicate them exactly.
//
// Processor sharing drains every available task at once, so no task's
// Remaining is fixed between events; PS mode bypasses the snapshots.
package sim

import (
	"slices"
)

// fstatCompactMin is the dead-prefix length below which remove never
// compacts: keeping a small slack absorbs the head-trim/head-insert
// churn of steady-state dispatch without any copying.
const fstatCompactMin = 32

// fstat is one node's snapshot. Zero value = inactive: nodes pay
// nothing until first queried (only root-adjacent nodes and leaves are
// queried by the shipped assigners).
type fstat struct {
	active bool
	// off is the live window start: tasks[off:] is the sorted
	// available set. Entries below off are dead (nil).
	off int
	// tasks[off:] is the node's available set sorted by the SJF
	// priority comparator (highest priority first).
	tasks []*JobState
	// keys mirrors tasks with each task's PrioOnCur — the comparator's
	// first tier, fixed for a task's stay on the node. Binary searches
	// probe this contiguous array and dereference a *JobState only on
	// first-tier ties, instead of chasing a pointer per probe.
	keys []float64
	// sufVol and sufCnt are the suffix aggregates (see the file
	// comment), raw-indexed like tasks, with a zero entry at
	// len(tasks).
	sufVol []float64
	sufCnt []int32
}

// activate seeds an inactive snapshot from n's available set: one full
// sort, then the aggregates folded from the window end.
func (f *fstat) activate(n *nodeState) {
	f.active = true
	f.off = 0
	f.tasks = append(f.tasks[:0], n.avail.tasks()...)
	slices.SortFunc(f.tasks, func(a, b *JobState) int {
		if higherPriority(a.PrioOnCur, a.Release, a.ID, a.seq, b.PrioOnCur, b.Release, b.ID, b.seq) {
			return -1
		}
		return 1 // comparator is total (seq is unique): no equal pairs
	})
	k := len(f.tasks)
	f.keys = slices.Grow(f.keys[:0], k)[:k]
	for i, js := range f.tasks {
		f.keys[i] = js.PrioOnCur
	}
	f.sufVol = slices.Grow(f.sufVol[:0], k+1)[:k+1]
	f.sufCnt = slices.Grow(f.sufCnt[:0], k+1)[:k+1]
	f.sufVol[k], f.sufCnt[k] = 0, 0
	f.fold(n, k-1)
}

// fold recomputes the aggregates at raw indices hi down to off from
// the entry above hi, excluding n's running task from the volume.
func (f *fstat) fold(n *nodeState, hi int) {
	if hi < f.off {
		return
	}
	v, c := f.sufVol[hi+1], f.sufCnt[hi+1]
	var above *JobState
	if hi+1 < len(f.tasks) {
		above = f.tasks[hi+1]
	}
	for i := hi; i >= f.off; i-- {
		js := f.tasks[i]
		if js != n.running {
			v += js.Remaining
		}
		// Packets of one job are adjacent: js's group is new to the
		// suffix unless the task above it shares its ID.
		if above == nil || above.ID != js.ID {
			c++
		}
		f.sufVol[i], f.sufCnt[i] = v, c
		above = js
	}
}

// indexOf returns js's raw index in the window. Every caller passes a
// task queued on the node, whose sort key has not changed since it was
// inserted.
func (f *fstat) indexOf(js *JobState) int {
	w := f.tasks[f.off:]
	if len(w) > 0 && w[0] == js {
		// The window head: completions under SJF and most preemptions
		// land here, so skip the search.
		return f.off
	}
	i := searchTask(w, f.keys[f.off:], js.PrioOnCur, js.Release, js.ID, js.seq)
	if i >= len(w) || w[i] != js {
		panic("sim: fstat: task absent from the snapshot")
	}
	return f.off + i
}

// insert adds js (not running) to the sorted set and refolds the
// aggregates at and below its rank.
func (f *fstat) insert(n *nodeState, js *JobState) {
	i := searchTask(f.tasks[f.off:], f.keys[f.off:], js.PrioOnCur, js.Release, js.ID, js.seq)
	if i == 0 && f.off > 0 {
		// Head insert into a slot freed by an earlier head removal: the
		// window grows downward and only the new entry needs folding.
		f.off--
		f.tasks[f.off] = js
		f.keys[f.off] = js.PrioOnCur
		f.fold(n, f.off)
		return
	}
	raw := f.off + i
	f.tasks = slices.Insert(f.tasks, raw, js)
	f.keys = slices.Insert(f.keys, raw, js.PrioOnCur)
	f.sufVol = slices.Insert(f.sufVol, raw, 0)
	f.sufCnt = slices.Insert(f.sufCnt, raw, 0)
	f.fold(n, raw)
}

// remove deletes js from the sorted set. Removing the window head is
// O(1) — no aggregate above it includes it — and otherwise the
// aggregates below its rank are refolded.
func (f *fstat) remove(n *nodeState, js *JobState) {
	raw := f.indexOf(js)
	if raw == f.off {
		f.tasks[raw] = nil
		f.off++
		f.compact()
		return
	}
	f.tasks = slices.Delete(f.tasks, raw, raw+1)
	f.keys = slices.Delete(f.keys, raw, raw+1)
	f.sufVol = slices.Delete(f.sufVol, raw, raw+1)
	f.sufCnt = slices.Delete(f.sufCnt, raw, raw+1)
	f.fold(n, raw-1)
}

// runningChanged refolds the aggregates after n.running changed from
// old to n.running without a membership change (a preemption, or a
// task starting on an idle node): the two tasks swap between counted
// and computed at query time. Either may be nil.
func (f *fstat) runningChanged(n *nodeState, old *JobState) {
	hi := -1
	if old != nil {
		hi = f.indexOf(old)
	}
	if n.running != nil {
		hi = max(hi, f.indexOf(n.running))
	}
	f.fold(n, hi)
}

// compact drops the dead prefix once it dominates the live window,
// bounding the buffer at ~2× the live set. Aggregates depend only on
// the tasks after them, so they move unchanged.
func (f *fstat) compact() {
	if f.off <= fstatCompactMin || f.off <= len(f.tasks)-f.off {
		return
	}
	k := copy(f.tasks, f.tasks[f.off:])
	clear(f.tasks[k:])
	f.tasks = f.tasks[:k]
	copy(f.keys, f.keys[f.off:])
	f.keys = f.keys[:k]
	copy(f.sufVol, f.sufVol[f.off:])
	f.sufVol = f.sufVol[:k+1]
	copy(f.sufCnt, f.sufCnt[f.off:])
	f.sufCnt = f.sufCnt[:k+1]
	f.off = 0
}

// clear returns the snapshot to the inactive state (Reset), retaining
// capacity.
func (f *fstat) clear() {
	f.active = false
	f.off = 0
	f.tasks = f.tasks[:0]
	f.keys = f.keys[:0]
	f.sufVol = f.sufVol[:0]
	f.sufCnt = f.sufCnt[:0]
}

// snapshot returns node n's snapshot, activating it on first use.
// Callers must not use it in PS mode.
func (n *nodeState) snapshot() *fstat {
	f := &n.fsnap
	if !f.active {
		f.activate(n)
	}
	return f
}

// searchTask returns the first window index whose task does NOT have
// strictly higher priority than the probe key — sort.Search over the
// priority order, hand-inlined: the closure-based form dominated the
// dispatch profile (closure call + capture loads per probe). keys is
// the PrioOnCur mirror of w: most probes resolve on the contiguous
// first-tier array without touching a *JobState, so the search walks
// one cache line per level instead of chasing a pointer per level.
func searchTask(w []*JobState, keys []float64, size, release float64, id int, seq int64) int {
	lo, hi := 0, len(w)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k := keys[m]; k != size {
			if k < size {
				lo = m + 1
			} else {
				hi = m
			}
		} else if t := w[m]; higherPriority(k, t.Release, t.ID, t.seq, size, release, id, seq) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchLargerPrio returns the first window index with PrioOnCur >
// size (the AvailCountLarger boundary; PrioOnCur is the comparator's
// first tier, so these form a suffix). It probes the contiguous keys
// mirror only — no task pointer is ever dereferenced.
func searchLargerPrio(keys []float64, size float64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] > size {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// volumeHigher answers AvailVolumeHigher: the stored volume of the
// qualifying prefix [off, off+h), plus the running task's computed
// work when it qualifies. Both terms are non-negative, so the sum is.
func (s *Sim) volumeHigher(n *nodeState, f *fstat, h int, size, release float64, id int) float64 {
	v := f.sufVol[f.off] - f.sufVol[f.off+h]
	if r := n.running; r != nil && higherPriority(r.PrioOnCur, r.Release, r.ID, r.seq, size, release, id, maxSeq) {
		v += s.remainingAt(n, r)
	}
	return v
}

// availStats answers AvailVolumeHigher and AvailCountLarger of node n
// from its snapshot, sharing the priority search: every task below the
// hypothetical job's rank h has PrioOnCur ≤ size (it beats the
// hypothetical job, whose tie-breaks lose only at equal PrioOnCur), so
// the countLarger boundary lies at or after h and its search is
// restricted to the window suffix [h:).
func (s *Sim) availStats(n *nodeState, size, release float64, id int) (volHigher float64, count int) {
	f := n.snapshot()
	kw := f.keys[f.off:]
	h := searchTask(f.tasks[f.off:], kw, size, release, id, maxSeq)
	b := h + searchLargerPrio(kw[h:], size)
	return s.volumeHigher(n, f, h, size, release, id), int(f.sufCnt[f.off+b])
}
