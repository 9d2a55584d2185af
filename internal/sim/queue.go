package sim

// taskQueue holds the jobs available on one node and yields the
// highest-priority (smallest-key) one. Two implementations exist: a
// binary heap (default, O(log n) updates) and a linear scan, which
// processor sharing runs on (it shares work out over tasks() in the
// scan queue's order) and which the property tests use as the heap's
// reference.
type taskQueue interface {
	push(js *JobState)
	remove(js *JobState)
	// fix restores ordering after js's key fields changed (SRPT).
	fix(js *JobState)
	min() *JobState
	len() int
	// tasks exposes all queued tasks in unspecified (but
	// deterministic) order. Callers iterate the returned slice
	// directly — unlike a visitor callback this never forces captured
	// accumulator variables to escape, keeping hot queries
	// allocation-free. Read-only; valid until the next queue mutation.
	tasks() []*JobState
	// clear empties the queue in place, retaining capacity (Reset).
	clear()
}

// heapQueue is a binary min-heap over (key1, key2, seq).
type heapQueue struct {
	items []*JobState
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (h *heapQueue) len() int { return len(h.items) }

func (h *heapQueue) min() *JobState {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *heapQueue) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return higherPriority(a.key1, a.key2, a.ID, a.seq, b.key1, b.key2, b.ID, b.seq)
}

func (h *heapQueue) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].qidx = i
	h.items[j].qidx = j
}

func (h *heapQueue) push(js *JobState) {
	js.qidx = len(h.items)
	h.items = append(h.items, js)
	h.up(js.qidx)
}

func (h *heapQueue) remove(js *JobState) {
	i := js.qidx
	n := len(h.items) - 1
	if i < 0 || i > n || h.items[i] != js {
		panic("sim: removing task not in queue")
	}
	h.swap(i, n)
	h.items = h.items[:n]
	js.qidx = -1
	if i < n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h *heapQueue) fix(js *JobState) {
	if !h.down(js.qidx) {
		h.up(js.qidx)
	}
}

// up and down sift hole-style: the moving task is held locally (its
// four comparison fields load once) and placed exactly once, and each
// displaced task costs one pointer write plus its qidx update instead
// of a full swap. The comparison path matches the swap-based form, so
// the heap layout — which tasks() exposes to the PS scans — is
// unchanged entry for entry.
func (h *heapQueue) up(i int) {
	items := h.items
	js := items[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := items[parent]
		if !higherPriority(js.key1, js.key2, js.ID, js.seq, p.key1, p.key2, p.ID, p.seq) {
			break
		}
		items[i] = p
		p.qidx = i
		i = parent
	}
	items[i] = js
	js.qidx = i
}

func (h *heapQueue) down(i int) bool {
	items := h.items
	n := len(items)
	js := items[i]
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small, c := l, items[l]
		if r := l + 1; r < n {
			if cr := items[r]; higherPriority(cr.key1, cr.key2, cr.ID, cr.seq, c.key1, c.key2, c.ID, c.seq) {
				small, c = r, cr
			}
		}
		if !higherPriority(c.key1, c.key2, c.ID, c.seq, js.key1, js.key2, js.ID, js.seq) {
			break
		}
		items[i] = c
		c.qidx = i
		i = small
	}
	items[i] = js
	js.qidx = i
	return i != i0
}

func (h *heapQueue) tasks() []*JobState { return h.items }

func (h *heapQueue) clear() { h.items = h.items[:0] }

// scanQueue is the O(n)-per-operation reference implementation.
type scanQueue struct {
	items []*JobState
}

func newScanQueue() *scanQueue { return &scanQueue{} }

func (s *scanQueue) len() int { return len(s.items) }

func (s *scanQueue) push(js *JobState) {
	js.qidx = len(s.items)
	s.items = append(s.items, js)
}

func (s *scanQueue) remove(js *JobState) {
	i := js.qidx
	n := len(s.items) - 1
	if i < 0 || i > n || s.items[i] != js {
		panic("sim: removing task not in queue")
	}
	s.items[i] = s.items[n]
	s.items[i].qidx = i
	s.items = s.items[:n]
	js.qidx = -1
}

func (s *scanQueue) fix(*JobState) {}

func (s *scanQueue) min() *JobState {
	if len(s.items) == 0 {
		return nil
	}
	best := s.items[0]
	for _, js := range s.items[1:] {
		if higherPriority(js.key1, js.key2, js.ID, js.seq, best.key1, best.key2, best.ID, best.seq) {
			best = js
		}
	}
	return best
}

func (s *scanQueue) tasks() []*JobState { return s.items }

func (s *scanQueue) clear() { s.items = s.items[:0] }
