// Per-node F-statistic snapshots: the mergeable aggregates behind the
// paper's greedy dispatch rule. The F(j,v) terms an assigner queries —
// AvailVolumeHigher, AvailCountLarger, AvailVolume — are sums over the
// tasks available on one node, ordered by the SJF priority comparator.
// Instead of rescanning the queue per arrival, each node keeps a
// snapshot of its available set sorted by that comparator with prefix
// aggregates. The first query seeds the sorted set with one full sort;
// afterwards queue membership changes (push/remove at event
// boundaries) maintain it incrementally — a task's sort key is fixed
// between memberships, so a binary-searched insert or delete keeps the
// order exact — and only mark the prefix aggregates stale from the
// changed rank on, which the next query patches in one comparator-free
// pass over the suffix. Between membership changes the only value that
// drifts is the running task's Remaining (non-PS nodes progress one
// task at a time), which the query corrects against the stored value;
// when a preemption switches the running task without a membership
// change (possible under SRPT, whose key drifts with Remaining), the
// engine marks the preempted task's rank stale explicitly
// (markStale), so answers are exact at every instant.
//
// The snapshot stores its sorted set in tasks[off:]: removing the
// highest-priority task — the common case, since non-PS nodes complete
// the queue head — just advances off, leaving every prefix aggregate
// valid, and queries subtract the prefix base at off. The buffer
// compacts once the dead prefix dominates the live window, so memory
// stays proportional to the live set.
//
// Because the comparator is a total order, the qualifying set of
// AvailVolumeHigher is a prefix of the snapshot and the qualifying set
// of AvailCountLarger a suffix, turning both queries into binary
// searches over the refreshed snapshot. Packets of one job share
// (PrioOnCur, Release, ID), so equal-ID tasks are adjacent in the sort
// and the distinct-job prefix counts de-duplicate them exactly.
//
// The snapshots decompose over the engine's shards: a node's snapshot
// depends only on its own queue, so the per-subtree aggregates the
// greedy rule reads are maintained shard-locally and any dispatch
// prepass can refresh them without cross-shard state. Processor
// sharing drains every available task at once, invalidating the
// stored-Remaining correction, so PS mode bypasses the snapshots.
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
	// dirtyFrom bounds the valid chain: stored/prefix entries are
	// consistent on [off, dirtyFrom) (together with the base entry at
	// off), and stale from dirtyFrom on. Queries extend the chain
	// lazily (ensure) only as far as they read — an insert past the
	// read boundary never costs a patch at all.
	dirtyFrom int
	// distinct is the number of distinct job IDs in the live window,
	// maintained O(1) per membership change (packets of one job are
	// always adjacent, so a neighbor check suffices). It lets
	// countLarger answer from a chain prefix instead of forcing the
	// chain to the window end.
	distinct int32
	// tasks[off:] is the node's available set sorted by the SJF
	// priority comparator (highest priority first); stored[i] is
	// tasks[i]'s Remaining captured at refresh time.
	tasks  []*JobState
	stored []float64
	// keys mirrors tasks with each task's PrioOnCur — the comparator's
	// first tier, fixed for a task's stay on the node. Binary searches
	// probe this contiguous array and dereference a *JobState only on
	// first-tier ties, instead of chasing a pointer per probe.
	keys []float64
	// prefixVol[i] − prefixVol[off] = Σ stored[off:i]; prefixCnt[i] −
	// prefixCnt[off] = number of distinct job IDs among tasks[off:i].
	// Both are raw-indexed, valid through index dirtyFrom.
	prefixVol []float64
	prefixCnt []int32
}

// markDirtyAt records that stored/prefix entries from raw index i on
// are stale.
func (f *fstat) markDirtyAt(i int) {
	if i < f.dirtyFrom {
		f.dirtyFrom = i
	}
}

// invalidate marks the whole live window's aggregates stale (the
// sorted set itself stays valid; it is maintained by insert/remove).
func (f *fstat) invalidate() { f.markDirtyAt(f.off) }

// insert adds js to the sorted set of an active snapshot and patches
// the aggregate chain in place: the entries at and above the insertion
// rank shift one slot and each prefix sum gains js's Remaining — a
// sequential pass over floats with no task dereferences, so the chain
// stays fully valid and the next query's ensure is a no-op. (The
// shifted sums differ from a ground-up recurrence by float
// reassociation; every engine mode runs this same code on the same
// operation sequence, so the bits agree across modes, which is the
// contract — see DESIGN.md §3.4.)
func (f *fstat) insert(js *JobState) {
	w := f.tasks[f.off:]
	i := searchTask(w, f.keys[f.off:], js.PrioOnCur, js.Release, js.ID, js.seq)
	headSlot := i == 0 && f.off > 0
	var raw int
	if headSlot {
		// Head insert into a slot freed by an earlier head removal:
		// no shifting, the window grows downward.
		f.off--
		raw = f.off
		f.tasks[raw] = js
		f.keys[raw] = js.PrioOnCur
	} else {
		raw = f.off + i
		f.tasks = append(f.tasks, nil)
		copy(f.tasks[raw+1:], f.tasks[raw:])
		f.tasks[raw] = js
		f.keys = append(f.keys, 0)
		copy(f.keys[raw+1:], f.keys[raw:])
		f.keys[raw] = js.PrioOnCur
	}
	// Packets of one job sort adjacently (they share the full priority
	// key up to seq), so js starts a new distinct-ID group exactly when
	// neither neighbor carries its ID — and it can never split an
	// existing group (a foreign task cannot sort between equal keys).
	joinsLeft := raw > f.off && f.tasks[raw-1].ID == js.ID
	joinsRight := raw+1 < len(f.tasks) && f.tasks[raw+1].ID == js.ID
	if !joinsLeft && !joinsRight {
		f.distinct++
	}
	if headSlot {
		// The window head grew downward: extend the chain down one slot
		// by giving the new base entry a sum R below the old base, so
		// every difference against it gains exactly js's Remaining.
		if f.dirtyFrom <= raw+1 {
			// No valid entries above the old head to anchor against.
			f.markDirtyAt(raw)
			return
		}
		f.stored[raw] = js.Remaining
		f.prefixVol[raw] = f.prefixVol[raw+1] - js.Remaining
		var dc int32
		if !joinsRight {
			dc = 1 // js starts a group below the old head's
		}
		f.prefixCnt[raw] = f.prefixCnt[raw+1] - dc
		return
	}
	od := f.dirtyFrom
	if raw >= od {
		// Inserted at or past the chain's valid extent: the valid
		// prefix is untouched and the new entry is in the lazy zone.
		return
	}
	if cap(f.stored) <= od || cap(f.prefixVol) <= od+1 || cap(f.prefixCnt) <= od+1 {
		// The grown chain does not fit the current arrays; fall back to
		// lazy rebuilding (extend reallocates on its next run).
		f.markDirtyAt(raw)
		return
	}
	f.stored = f.stored[:od+1]
	f.prefixVol = f.prefixVol[:od+2]
	f.prefixCnt = f.prefixCnt[:od+2]
	vol := js.Remaining
	// Group-count deltas: the slot right after js counts js's own group
	// start (unless it continues the left neighbor's group); the
	// shifted tail keeps its relative counts unless js's group is new
	// outright (joining the right neighbor promotes js to that group's
	// start, demoting the old start — net zero for the tail).
	var dcFirst, dcTail int32
	if !joinsLeft {
		dcFirst = 1
	}
	if !joinsLeft && !joinsRight {
		dcTail = 1
	}
	for j := od; j > raw; j-- {
		f.stored[j] = f.stored[j-1]
		f.prefixVol[j+1] = f.prefixVol[j] + vol
		f.prefixCnt[j+1] = f.prefixCnt[j] + dcTail
	}
	f.stored[raw] = vol
	f.prefixVol[raw+1] = f.prefixVol[raw] + vol
	f.prefixCnt[raw+1] = f.prefixCnt[raw] + dcFirst
	f.dirtyFrom = od + 1
}

// remove deletes js from the sorted set of an active snapshot. The
// binary search keys off js's current sort key; if a caller ever
// mutated the key before removing (none do today), the linear fallback
// keeps removal correct anyway. Removing the window head — the common
// case, completions take the highest-priority task — is O(1): the
// prefix chain stays valid and queries subtract the base at off.
func (f *fstat) remove(js *JobState) {
	w := f.tasks[f.off:]
	var i int
	if len(w) > 0 && w[0] == js {
		// Completion of the window head: the search would land here
		// anyway (the comparator is strict, so js never outranks
		// itself), skip it.
		i = 0
	} else {
		i = searchTask(w, f.keys[f.off:], js.PrioOnCur, js.Release, js.ID, js.seq)
		if i >= len(w) || w[i] != js {
			i = slices.Index(w, js)
			if i < 0 {
				panic("sim: fstat: removing a task absent from the snapshot")
			}
		}
	}
	raw := f.off + i
	// js leaves a distinct-ID group behind exactly when a packet
	// sibling stays adjacent (groups never merge across a removal: the
	// neighbors were already adjacent-but-distinct, see insert).
	if (raw == f.off || f.tasks[raw-1].ID != js.ID) &&
		(raw+1 == len(f.tasks) || f.tasks[raw+1].ID != js.ID) {
		f.distinct--
	}
	if i == 0 {
		f.tasks[raw] = nil
		f.off++
		if f.off < len(f.tasks) && f.tasks[f.off].ID == js.ID && f.off <= f.dirtyFrom {
			// The removed head had packet siblings: the new window head
			// is promoted to its group's start, which the chain counted
			// at the removed entry. Lowering the new base count by one
			// restores every difference against it — no invalidation.
			f.prefixCnt[f.off]--
		}
		f.compact()
		return
	}
	f.tasks = append(f.tasks[:raw], f.tasks[raw+1:]...)
	f.keys = append(f.keys[:raw], f.keys[raw+1:]...)
	f.markDirtyAt(raw)
}

// compact drops the dead prefix once it dominates the live window,
// bounding the buffer at ~2× the live set. Raw indices shift, so the
// whole window's aggregates are rebuilt on the next query.
func (f *fstat) compact() {
	if f.off <= fstatCompactMin || f.off <= len(f.tasks)-f.off {
		return
	}
	n := copy(f.tasks, f.tasks[f.off:])
	clear(f.tasks[n:])
	f.tasks = f.tasks[:n]
	copy(f.keys, f.keys[f.off:])
	f.keys = f.keys[:n]
	f.off = 0
	f.dirtyFrom = 0
}

// markStale re-anchors js's stored Remaining after a preemption that
// keeps its queue membership: its Remaining drifted from the stored
// value, and once it is no longer n.running the query-time correction
// stops covering it. The caller (rescheduleWith) has already synced
// the node, so js.Remaining is current — the chain is patched in
// place by adding the drift to every prefix sum above js, keeping it
// fully valid instead of invalidating the whole suffix on every
// preemption.
func (f *fstat) markStale(js *JobState) {
	w := f.tasks[f.off:]
	i := searchTask(w, f.keys[f.off:], js.PrioOnCur, js.Release, js.ID, js.seq)
	if i >= len(w) || w[i] != js {
		return
	}
	raw := f.off + i
	if raw >= f.dirtyFrom {
		return // beyond the valid chain; extend re-captures it
	}
	d := js.Remaining - f.stored[raw]
	if d == 0 {
		return
	}
	f.stored[raw] = js.Remaining
	for j := raw + 1; j <= f.dirtyFrom; j++ {
		f.prefixVol[j] += d
	}
}

// clear returns the snapshot to the inactive state (Reset), retaining
// capacity.
func (f *fstat) clear() {
	f.active = false
	f.off = 0
	f.dirtyFrom = 0
	f.distinct = 0
	f.tasks = f.tasks[:0]
	f.keys = f.keys[:0]
	f.stored = f.stored[:0]
	f.prefixVol = f.prefixVol[:0]
	f.prefixCnt = f.prefixCnt[:0]
}

// refreshFStat returns node v's snapshot, activated and synced to the
// shard clock (so stored Remaining values and the later running
// correction share an anchor). The first call on a node pays one full
// sort to seed the sorted set; from then on insert/remove keep it
// ordered. The aggregate chain is NOT patched here: the query methods
// extend it lazily (ensure) only as far as they read. Callers must not
// use it in PS mode.
func (s *Sim) refreshFStat(n *nodeState) *fstat {
	s.syncNode(n)
	f := &n.fsnap
	if !f.active {
		f.active = true
		f.off = 0
		f.dirtyFrom = 0
		f.tasks = append(f.tasks[:0], n.avail.tasks()...)
		slices.SortFunc(f.tasks, func(a, b *JobState) int {
			if higherPriority(a.PrioOnCur, a.Release, a.ID, a.seq, b.PrioOnCur, b.Release, b.ID, b.seq) {
				return -1
			}
			return 1 // comparator is total (seq is unique): no equal pairs
		})
		f.distinct = 0
		f.keys = slices.Grow(f.keys[:0], len(f.tasks))[:len(f.tasks)]
		for i, js := range f.tasks {
			f.keys[i] = js.PrioOnCur
			if i == 0 || f.tasks[i-1].ID != js.ID {
				f.distinct++
			}
		}
	}
	return f
}

// ensure extends the valid aggregate chain through raw index k:
// afterwards prefixVol[j]/prefixCnt[j] are consistent for j ≤ k and
// stored[j] for j < k. The patch is one comparator-free pass over
// [dirtyFrom, k) — empty when membership changed only at the window
// head or past every index the queries read. Entries patched at
// different refresh instants still chain exactly: between membership
// changes (which mark the changed rank dirty) only the running task's
// Remaining drifts, and queries correct it against its stored capture
// whatever instant that was.
func (f *fstat) ensure(k int) {
	if f.dirtyFrom >= k && len(f.prefixVol) > k {
		// Chain already valid through k (the length guard only trips on
		// a never-patched snapshot, whose arrays need their reslice).
		// This early-out inlines into the query methods; extend is the
		// cold patching body.
		return
	}
	f.extend(k)
}

func (f *fstat) extend(k int) {
	n2 := len(f.tasks)
	if cap(f.prefixVol) < n2+1 {
		// Growing realloc: the old chain is gone, rebuild the window.
		f.stored = make([]float64, 0, cap(f.tasks))
		f.prefixVol = make([]float64, 0, cap(f.tasks)+1)
		f.prefixCnt = make([]int32, 0, cap(f.tasks)+1)
		f.dirtyFrom = 0
	}
	f.stored = f.stored[:n2]
	f.prefixVol = f.prefixVol[:n2+1]
	f.prefixCnt = f.prefixCnt[:n2+1]
	start := f.dirtyFrom
	if start < f.off {
		start = f.off
	}
	if start == f.off {
		f.prefixVol[f.off] = 0
		f.prefixCnt[f.off] = 0
	}
	for i := start; i < k; i++ {
		js := f.tasks[i]
		f.stored[i] = js.Remaining
		f.prefixVol[i+1] = f.prefixVol[i] + js.Remaining
		c := f.prefixCnt[i]
		if i == f.off || f.tasks[i-1].ID != js.ID {
			c++
		}
		f.prefixCnt[i+1] = c
	}
	f.dirtyFrom = k
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

// hypoRank returns the number of snapshot tasks with strictly higher
// priority than a hypothetical not-yet-injected job (size, release,
// id) — the length of the qualifying prefix of AvailVolumeHigher.
func (f *fstat) hypoRank(size, release float64, id int) int {
	return searchTask(f.tasks[f.off:], f.keys[f.off:], size, release, id, maxSeq)
}

// runCorrection returns the running task's progress since the last
// refresh (current Remaining − stored) when the running task falls in
// the qualifying window prefix [0, rank). Membership changes and
// preemptions mark the snapshot stale, so between refreshes exactly
// one task's Remaining can drift: the one running now — which under
// the SJF-ordered window is almost always the window head, checked
// first to skip the binary search.
func (f *fstat) runCorrection(n *nodeState, rank int) float64 {
	r := n.running
	if r == nil || rank == 0 {
		return 0
	}
	w := f.tasks[f.off:]
	if w[0] == r {
		return r.Remaining - f.stored[f.off]
	}
	i := searchTask(w, f.keys[f.off:], r.PrioOnCur, r.Release, r.ID, r.seq)
	if i >= rank || i >= len(w) || w[i] != r {
		return 0
	}
	return r.Remaining - f.stored[f.off+i]
}

// volumeHigher answers AvailVolumeHigher from the snapshot. The
// result is clamped at 0: the base subtraction and running correction
// can round a mathematically zero sum to a tiny negative, and a volume
// of remaining work is never negative.
func (f *fstat) volumeHigher(n *nodeState, size, release float64, id int) float64 {
	rank := f.hypoRank(size, release, id)
	f.ensure(f.off + rank)
	v := f.prefixVol[f.off+rank] - f.prefixVol[f.off] + f.runCorrection(n, rank)
	if v < 0 {
		v = 0
	}
	return v
}

// volume answers AvailVolume from the snapshot (the whole window
// qualifies, so the correction always applies when a task runs).
func (f *fstat) volume(n *nodeState) float64 {
	f.ensure(len(f.tasks))
	rank := len(f.tasks) - f.off
	v := f.prefixVol[len(f.tasks)] - f.prefixVol[f.off] + f.runCorrection(n, rank)
	if v < 0 {
		v = 0
	}
	return v
}

// countLarger answers AvailCountLarger from the snapshot: tasks with
// PrioOnCur > size form a suffix of the priority order (PrioOnCur is
// the comparator's first tier), and equal-ID packets never straddle
// the boundary (they share PrioOnCur), so the distinct-job count of
// the suffix is the window total minus the distinct count of the
// prefix — integer arithmetic, so answering from the maintained total
// is exact.
func (f *fstat) countLarger(size float64) int {
	i := searchLargerPrio(f.keys[f.off:], size)
	f.ensure(f.off + i)
	return int(f.distinct) - int(f.prefixCnt[f.off+i]-f.prefixCnt[f.off])
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

// stats answers volumeHigher and countLarger in one pass, sharing the
// priority search: every task below the hypothetical job's rank h has
// PrioOnCur ≤ size (it beats the hypothetical job, whose tie-breaks
// lose only at equal PrioOnCur), so the countLarger boundary lies at
// or after h and its search is restricted to the window suffix [h:).
// Bit-identical to calling volumeHigher and countLarger separately.
func (f *fstat) stats(n *nodeState, size, release float64, id int) (volHigher float64, count int) {
	w := f.tasks[f.off:]
	kw := f.keys[f.off:]
	h := searchTask(w, kw, size, release, id, maxSeq)
	b := h + searchLargerPrio(kw[h:], size)
	f.ensure(f.off + b)
	v := f.prefixVol[f.off+h] - f.prefixVol[f.off] + f.runCorrection(n, h)
	if v < 0 {
		v = 0
	}
	return v, int(f.distinct) - int(f.prefixCnt[f.off+b]-f.prefixCnt[f.off])
}
