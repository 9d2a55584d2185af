package sim

import (
	"math"
	"slices"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
)

// Naive references: per-query scans over the raw queue, read-only like
// the queries, kept here as the ground truth the fstat fast path must
// match.

func naiveVolumeHigher(s *Sim, v tree.NodeID, size, release float64, id int) float64 {
	n := &s.nodes[v]
	var sum float64
	for _, js := range n.avail.tasks() {
		if higherPriority(js.PrioOnCur, js.Release, js.ID, js.seq, size, release, id, maxSeq) {
			sum += s.remainingAt(n, js)
		}
	}
	return sum
}

func naiveCountLarger(s *Sim, v tree.NodeID, size float64) int {
	count := 0
	var seen []int
	for _, js := range s.nodes[v].avail.tasks() {
		if js.PrioOnCur <= size {
			continue
		}
		dup := false
		for _, id := range seen {
			if id == js.ID {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, js.ID)
			count++
		}
	}
	return count
}

func naiveVolume(s *Sim, v tree.NodeID) float64 {
	n := &s.nodes[v]
	var sum float64
	for _, js := range n.avail.tasks() {
		sum += s.remainingAt(n, js)
	}
	return sum
}

// volumesClose compares two volume sums up to summation-order float
// noise (the snapshot sums in priority order, the scan in heap order).
func volumesClose(a, b float64) bool {
	const eps = 1e-9
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// fstatChecker is a querying assigner that cross-checks every snapshot
// query against the naive scan at each arrival instant, on every
// root-adjacent node and every leaf, then routes by least volume so the
// queues it perturbs keep mixing.
type fstatChecker struct {
	t *testing.T
}

func (c *fstatChecker) Name() string { return "fstatChecker" }

func (c *fstatChecker) Assign(q *Query, a *Arrival) tree.NodeID {
	t := c.t
	tr := q.Tree()
	s := q.s
	nodes := append(append([]tree.NodeID(nil), tr.RootAdjacent()...), tr.Leaves()...)
	for _, v := range nodes {
		wantVH := naiveVolumeHigher(s, v, a.Size, a.Release, a.ID)
		wantCL := naiveCountLarger(s, v, a.Size)
		wantVol := naiveVolume(s, v)
		gotVH, gotCL := q.AvailStats(v, a.Size, a.Release, a.ID)
		if !volumesClose(gotVH, wantVH) {
			t.Errorf("job %d node %d: AvailStats volHigher=%v, scan=%v", a.ID, v, gotVH, wantVH)
		}
		if gotCL != wantCL {
			t.Errorf("job %d node %d: AvailStats countLarger=%d, scan=%d", a.ID, v, gotCL, wantCL)
		}
		if got := q.AvailVolumeHigher(v, a.Size, a.Release, a.ID); !volumesClose(got, wantVH) {
			t.Errorf("job %d node %d: AvailVolumeHigher=%v, scan=%v", a.ID, v, got, wantVH)
		}
		if got := q.AvailCountLarger(v, a.Size); got != wantCL {
			t.Errorf("job %d node %d: AvailCountLarger=%d, scan=%d", a.ID, v, got, wantCL)
		}
		if got := q.AvailVolume(v); !volumesClose(got, wantVol) {
			t.Errorf("job %d node %d: AvailVolume=%v, scan=%v", a.ID, v, got, wantVol)
		}
		// Half-size probe: exercises hypoRank/countLarger boundaries in
		// the middle of the queue, not just at the arrival's own size.
		if got, want := q.AvailCountLarger(v, a.Size/2), naiveCountLarger(s, v, a.Size/2); got != want {
			t.Errorf("job %d node %d: AvailCountLarger(half)=%d, scan=%d", a.ID, v, got, want)
		}
	}
	best, bestV := tree.None, math.Inf(1)
	for _, l := range tr.Leaves() {
		if v := q.AvailVolume(l); v < bestV {
			best, bestV = l, v
		}
	}
	return best
}

// TestFStatMatchesScan drives loaded runs under every policy (PS takes
// the scan fallback; the rest take the snapshot) and cross-checks each
// query against the naive scan at every arrival.
func TestFStatMatchesScan(t *testing.T) {
	tr := tree.FatTree(4, 2, 2)
	trace := shardTestTrace(t, 11, 300, 4)
	for _, pol := range []Policy{nil, FIFO{}, SRPT{}, WSJF{}, LCFS{}, PS{}} {
		name := "SJF"
		if pol != nil {
			name = pol.Name()
		}
		t.Run(name, func(t *testing.T) {
			if _, err := Run(tr, trace, &fstatChecker{t: t}, Options{Policy: pol}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFStatMatchesScanPacketized repeats the cross-check with jobs
// split into packets: packet siblings share (PrioOnCur, Release, ID),
// exercising the snapshot's distinct-ID de-duplication.
func TestFStatMatchesScanPacketized(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := shardTestTrace(t, 12, 150, 2)
	if _, err := RunPacketized(tr, trace, &fstatChecker{t: t}, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestFStatQueriesAllocFree pins both AvailCountLarger paths —
// snapshot and PS sorted-scratch fallback — at zero allocations once
// warm, including a forced re-activation (clear, then the next query
// sorts and folds again into the retained slices).
func TestFStatQueriesAllocFree(t *testing.T) {
	tr := tree.FatTree(2, 1, 2)
	leaf := tr.Leaves()[0]
	br := tr.Branch(leaf)
	for _, ps := range []bool{false, true} {
		var opts Options
		if ps {
			opts.Policy = PS{}
		}
		s := New(tr, opts)
		for i := 0; i < 64; i++ {
			if _, err := s.Inject(&Arrival{ID: i, Release: 0, Size: 1 + float64(i%7)}, leaf); err != nil {
				t.Fatal(err)
			}
		}
		q := s.Query()
		q.AvailCountLarger(br, 3.5) // warm the scratch / snapshot
		allocs := testing.AllocsPerRun(100, func() {
			s.nodes[br].fsnap.clear()
			q.AvailCountLarger(br, 3.5)
			q.AvailVolumeHigher(br, 3.5, 0, 1<<30)
			q.AvailVolume(br)
		})
		if allocs != 0 {
			t.Errorf("ps=%v: %v allocs per warm query round, want 0", ps, allocs)
		}
	}
}

// TestFStatLateActivation runs two engines in lockstep through the
// same injections (round-robin placement, a mix of whole jobs and
// packetized ones, brown-outs): one queries every node from the first
// arrival on, so its snapshots are maintained from time zero, the
// other activates each node's snapshot at a random later arrival. From
// then on both must hold the same window and aggregates and answer
// every query with the same bits, under every snapshot policy.
func TestFStatLateActivation(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := shardTestTrace(t, 13, 300, 2)
	var evs []faults.Event
	for i, v := range []tree.NodeID{tr.RootAdjacent()[0], tr.Leaves()[3]} {
		evs = append(evs, faults.Event{Kind: faults.Brownout, Node: v, Start: 20 + 40*float64(i), End: 50 + 40*float64(i), Factor: 0.5})
	}
	fs, err := faults.Compile(tr, &faults.Plan{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{SJF{}, FIFO{}, SRPT{}, WSJF{}, LCFS{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			opts := Options{Policy: pol, Faults: fs}
			early, late := New(tr, opts), New(tr, opts)
			r := rng.New(77)
			wake := make([]int, tr.NumNodes())
			for v := range wake {
				wake[v] = r.Intn(len(trace.Jobs))
			}
			leaves := tr.Leaves()
			for i := range trace.Jobs {
				j := &trace.Jobs[i]
				a := Arrival{ID: j.ID, Release: j.Release, Size: j.Size}
				for _, s := range []*Sim{early, late} {
					s.AdvanceTo(j.Release)
				}
				for v := tree.NodeID(1); int(v) < tr.NumNodes(); v++ {
					if i < wake[v] {
						early.Query().AvailVolume(v)
						continue
					}
					requireSameSnapshot(t, early, late, v, &a)
				}
				leaf := leaves[i%len(leaves)]
				for _, s := range []*Sim{early, late} {
					if i%3 == 0 {
						err = s.injectPackets(&a, leaf)
					} else {
						_, err = s.Inject(&a, leaf)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// requireSameSnapshot queries node v on both engines (activating the
// snapshot on first use) and fails unless the answers agree bit for
// bit and the snapshots hold the same window and aggregates.
func requireSameSnapshot(t *testing.T, a, b *Sim, v tree.NodeID, arr *Arrival) {
	t.Helper()
	qa, qb := a.Query(), b.Query()
	vha, cla := qa.AvailStats(v, arr.Size, arr.Release, arr.ID)
	vhb, clb := qb.AvailStats(v, arr.Size, arr.Release, arr.ID)
	if math.Float64bits(vha) != math.Float64bits(vhb) || cla != clb {
		t.Fatalf("job %d node %d: AvailStats (%v, %d) vs late-activated (%v, %d)", arr.ID, v, vha, cla, vhb, clb)
	}
	if x, y := qa.AvailVolume(v), qb.AvailVolume(v); math.Float64bits(x) != math.Float64bits(y) {
		t.Fatalf("job %d node %d: AvailVolume %v vs late-activated %v", arr.ID, v, x, y)
	}
	fa, fb := &a.nodes[v].fsnap, &b.nodes[v].fsnap
	if len(fa.tasks)-fa.off != len(fb.tasks)-fb.off {
		t.Fatalf("job %d node %d: window lengths differ", arr.ID, v)
	}
	for i := range fa.tasks[fa.off:] {
		ta, tb := fa.tasks[fa.off+i], fb.tasks[fb.off+i]
		if ta.seq != tb.seq {
			t.Fatalf("job %d node %d: rank %d holds task %d vs %d", arr.ID, v, i, ta.seq, tb.seq)
		}
	}
	bits := func(f *fstat) []uint64 {
		var out []uint64
		for _, x := range f.sufVol[f.off:] {
			out = append(out, math.Float64bits(x))
		}
		return out
	}
	if !slices.Equal(bits(fa), bits(fb)) || !slices.Equal(fa.sufCnt[fa.off:], fb.sufCnt[fb.off:]) {
		t.Fatalf("job %d node %d: aggregates differ from a late-activated snapshot", arr.ID, v)
	}
}

// benchCountLarger measures AvailCountLarger with n tasks queued on a
// root-adjacent node. churn forces a snapshot re-activation (full sort
// and fold) per query, the worst case; without churn the query is a
// binary search on the maintained snapshot. ps selects the
// sorted-scratch fallback path.
func benchCountLarger(b *testing.B, n int, churn, ps bool) {
	tr := tree.FatTree(2, 1, 2)
	var opts Options
	if ps {
		opts.Policy = PS{}
	}
	s := New(tr, opts)
	leaf := tr.Leaves()[0]
	br := tr.Branch(leaf)
	for i := 0; i < n; i++ {
		if _, err := s.Inject(&Arrival{ID: i, Release: 0, Size: 1 + float64(i%7)}, leaf); err != nil {
			b.Fatal(err)
		}
	}
	q := s.Query()
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if churn {
			s.nodes[br].fsnap.clear()
		}
		sink += q.AvailCountLarger(br, 3.5)
	}
	_ = sink
}

func BenchmarkAvailCountLarger(b *testing.B) {
	for _, n := range []int{4, 16, 128, 1024} {
		b.Run("snapshot/n="+itoa(n), func(b *testing.B) { benchCountLarger(b, n, false, false) })
		b.Run("snapshot-churn/n="+itoa(n), func(b *testing.B) { benchCountLarger(b, n, true, false) })
		b.Run("ps-scan/n="+itoa(n), func(b *testing.B) { benchCountLarger(b, n, false, true) })
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
