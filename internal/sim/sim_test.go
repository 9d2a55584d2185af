package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// fixedAssigner always picks the same leaf.
type fixedAssigner struct{ leaf tree.NodeID }

func (f fixedAssigner) Name() string                        { return "fixed" }
func (f fixedAssigner) Assign(*Query, *Arrival) tree.NodeID { return f.leaf }

// rrAssigner cycles through leaves.
type rrAssigner struct{ i int }

func (r *rrAssigner) Name() string { return "roundrobin" }
func (r *rrAssigner) Assign(q *Query, _ *Arrival) tree.NodeID {
	ls := q.Tree().Leaves()
	l := ls[r.i%len(ls)]
	r.i++
	return l
}

// byLeafAssigner maps job ID -> leaf index.
type byLeafAssigner struct{ idx []int }

func (b byLeafAssigner) Name() string { return "byleaf" }
func (b byLeafAssigner) Assign(q *Query, a *Arrival) tree.NodeID {
	return q.Tree().Leaves()[b.idx[a.ID]]
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestSingleJobLine(t *testing.T) {
	tr := tree.Line(2) // root -> r1 -> r2 -> leaf: 3 processing nodes
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 1, Size: 4}}}
	res, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Jobs[0].Completion, 13, 1e-9, "completion") // 1 + 3*4
	approx(t, res.Jobs[0].Flow, 12, 1e-9, "flow")
	approx(t, res.Jobs[0].PathWork, 12, 1e-9, "pathwork")
	// Fractional flow: 1 while on routers (8 time units), then a
	// linear drain over the 4 leaf units: 8 + 2 = 10.
	approx(t, res.Stats.FracFlow, 10, 1e-6, "fractional flow")
	approx(t, res.Stats.ActiveIntegral, res.Stats.TotalFlow, 1e-6, "active integral")
}

// Two jobs on a star; SJF preempts the big job on the relay.
func TestSJFPreemption(t *testing.T) {
	tr := tree.Star(2)
	leafA, leafB := tr.Leaves()[0], tr.Leaves()[1]
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: 1},
	}}
	res, err := Run(tr, trace, byLeafAssigner{idx: []int{tr.LeafIndex(leafA), tr.LeafIndex(leafB)}}, Options{Policy: SJF{}, SelfCheck: true, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	// Relay: A 0-0.5 (0.5 done), B 0.5-1.5, A 1.5-3. Leaves: A 3-5, B 1.5-2.5.
	approx(t, res.Jobs[0].Completion, 5, 1e-9, "A completion")
	approx(t, res.Jobs[1].Completion, 2.5, 1e-9, "B completion")
	approx(t, res.Stats.TotalFlow, 5+2, 1e-9, "total flow")
	approx(t, res.Stats.FracFlow, 4+1.5, 1e-6, "fractional flow")
	approx(t, res.Stats.MaxFlow, 5, 1e-9, "max flow")
}

func TestFIFONoPreemption(t *testing.T) {
	tr := tree.Star(2)
	leafA, leafB := tr.Leaves()[0], tr.Leaves()[1]
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: 1},
	}}
	res, err := Run(tr, trace, byLeafAssigner{idx: []int{tr.LeafIndex(leafA), tr.LeafIndex(leafB)}}, Options{Policy: FIFO{}, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	// Relay: A 0-2, B 2-3. Leaves: A 2-4, B 3-4.
	approx(t, res.Jobs[0].Completion, 4, 1e-9, "A completion")
	approx(t, res.Jobs[1].Completion, 4, 1e-9, "B completion")
}

func TestLCFSPreempts(t *testing.T) {
	tr := tree.Star(2)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 1, Size: 2},
	}}
	res, err := Run(tr, trace, byLeafAssigner{idx: []int{0, 1}}, Options{Policy: LCFS{}, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	// Relay: A 0-1 (1 left), B 1-3, A 3-4. B's leaf: 3-5. A's leaf: 4-6.
	approx(t, res.Jobs[1].Completion, 5, 1e-9, "B completion")
	approx(t, res.Jobs[0].Completion, 6, 1e-9, "A completion")
}

func TestSRPTUsesRemaining(t *testing.T) {
	tr := tree.Star(2)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 3},
		{ID: 1, Release: 2.5, Size: 1},
	}}
	res, err := Run(tr, trace, byLeafAssigner{idx: []int{0, 1}}, Options{Policy: SRPT{}, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	// At t=2.5 job A has 0.5 remaining on the relay < 1, so SRPT does
	// NOT preempt: A finishes relay at 3, B runs 3-4.
	approx(t, res.Jobs[0].Completion, 6, 1e-9, "A completion") // leaf 3-6
	approx(t, res.Jobs[1].Completion, 5, 1e-9, "B completion") // leaf 4-5
}

func TestStoreAndForward(t *testing.T) {
	tr := tree.Line(3)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.1, Size: 2},
	}}
	res, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{Instrument: true, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range res.Sim.Tasks() {
		for h := 1; h < len(js.Path); h++ {
			if js.HopArrive[h] < js.HopComplete[h-1]-1e-9 {
				t.Fatalf("job %d hop %d started before parent finished", js.ID, h)
			}
			if js.HopComplete[h] < js.HopArrive[h]+js.RouterSize/2-1 {
				// loose sanity: completion after arrival
				t.Fatalf("job %d hop %d completes before arriving", js.ID, h)
			}
		}
	}
}

func TestSpeedScaling(t *testing.T) {
	tr := tree.Line(2)
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}
	res1, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(tr.WithUniformSpeed(2), trace, fixedAssigner{tr.Leaves()[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res2.Stats.TotalFlow, res1.Stats.TotalFlow/2, 1e-9, "speed-2 flow")
}

func TestUnrelatedLeafSizes(t *testing.T) {
	tr := tree.Star(2)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 1, LeafSizes: []float64{10, 3}},
	}}
	res, err := Run(tr, trace, byLeafAssigner{idx: []int{1}}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	// Relay 0-1, leaf B 1-4.
	approx(t, res.Jobs[0].Completion, 4, 1e-9, "completion")
	approx(t, res.Jobs[0].PathWork, 4, 1e-9, "pathwork")
}

func TestWrongLeafSizesLength(t *testing.T) {
	tr := tree.Star(3)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 1, LeafSizes: []float64{1, 2}},
	}}
	if _, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{}); err == nil {
		t.Fatal("accepted mismatched leaf sizes")
	}
}

func TestInjectToNonLeafFails(t *testing.T) {
	tr := tree.Star(2)
	s := New(tr, Options{})
	_, err := s.Inject(&Arrival{ID: 0, Size: 1}, tr.RootAdjacent()[0])
	if err == nil {
		t.Fatal("accepted router assignment")
	}
}

func TestInjectBeforeReleaseFails(t *testing.T) {
	tr := tree.Star(2)
	s := New(tr, Options{})
	_, err := s.Inject(&Arrival{ID: 0, Release: 5, Size: 1}, tr.Leaves()[0])
	if err == nil {
		t.Fatal("accepted injection before release")
	}
}

func TestAdvanceBackwardPanics(t *testing.T) {
	tr := tree.Star(2)
	s := New(tr, Options{})
	s.AdvanceTo(5)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backward did not panic")
		}
	}()
	s.AdvanceTo(1)
}

func TestOriginExtension(t *testing.T) {
	tr := tree.Line(3) // root -> r1 -> r2 -> r3 -> leaf
	leaf := tr.Leaves()[0]
	path := tr.Path(leaf)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2, Origin: int32(path[1])}, // skip r1, r2 remains
	}}
	res, err := Run(tr, trace, fixedAssigner{leaf}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	// Path below origin r2: [r3, leaf]: 2 nodes * 2 = 4.
	approx(t, res.Jobs[0].Completion, 4, 1e-9, "origin completion")
}

func TestOriginAtLeafParentAndInvalid(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	relay := tr.RootAdjacent()[0]
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 3, Origin: int32(relay)},
	}}
	res, err := Run(tr, trace, fixedAssigner{leaf}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Jobs[0].Completion, 3, 1e-9, "leaf-only completion")

	// Origin that is not an ancestor of the chosen leaf.
	other := tr.Leaves()[1]
	trace2 := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 1, Origin: int32(other)},
	}}
	if _, err := Run(tr, trace2, fixedAssigner{leaf}, Options{}); err == nil {
		t.Fatal("accepted origin not on path")
	}
}

func TestPacketizedPipelines(t *testing.T) {
	tr := tree.Line(2) // 3 processing nodes
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}
	sf, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := RunPacketized(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sf.Jobs[0].Completion, 12, 1e-9, "store-and-forward")
	// 4 unit packets pipeline: last packet completes at 4 + 2 = 6.
	approx(t, pk.Jobs[0].Completion, 6, 1e-6, "packetized")
	// Total work identical.
	approx(t, pk.Jobs[0].PathWork, sf.Jobs[0].PathWork, 1e-9, "pathwork")
}

func TestNodeUtilization(t *testing.T) {
	tr := tree.Star(1)
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 3}}}
	res, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	busy, work := res.Sim.NodeUtilization(tr.RootAdjacent()[0])
	approx(t, busy, 3, 1e-9, "relay busy")
	approx(t, work, 3, 1e-9, "relay work")
	busy, work = res.Sim.NodeUtilization(tr.Leaves()[0])
	approx(t, busy, 3, 1e-9, "leaf busy")
	approx(t, work, 3, 1e-9, "leaf work")
}

func TestDeterminism(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	r := rng.New(77)
	trace, err := workload.Poisson(r, workload.GenConfig{N: 300, Size: workload.UniformSize{Lo: 1, Hi: 8}, Load: 0.9, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func() Stats {
		res, err := Run(tr, trace, &rrAssigner{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic stats: %+v vs %+v", a, b)
	}
}

// useScanQueues swaps every node queue of a fresh engine for the
// linear-scan reference, so a run on it checks the heap's schedule.
func useScanQueues(s *Sim) {
	for i := range s.nodes {
		s.nodes[i].avail = newScanQueue()
	}
}

func TestHeapVsScanQueueEquivalence(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		tr := tree.Random(r, tree.RandomConfig{Branches: 1 + r.Intn(3), MaxDepth: 2 + r.Intn(3), MaxChildren: 2, LeafProb: 0.5})
		trace, err := workload.Poisson(r, workload.GenConfig{N: 60, Size: workload.UniformSize{Lo: 1, Hi: 6}, Load: 1.2, Capacity: float64(len(tr.RootAdjacent()))})
		if err != nil {
			return false
		}
		pols := []Policy{SJF{}, FIFO{}, SRPT{}, LCFS{}}
		pol := pols[r.Intn(len(pols))]
		h, err := Run(tr, trace, &rrAssigner{}, Options{Policy: pol})
		if err != nil {
			return false
		}
		s := New(tr, Options{Policy: pol})
		useScanQueues(s)
		sc, err := RunOn(s, trace, &rrAssigner{})
		if err != nil {
			return false
		}
		return math.Abs(h.Stats.TotalFlow-sc.Stats.TotalFlow) < 1e-6 &&
			math.Abs(h.Stats.FracFlow-sc.Stats.FracFlow) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Conservation and ordering invariants on random workloads.
func TestEngineInvariantsProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		tr := tree.Random(r, tree.RandomConfig{Branches: 1 + r.Intn(3), MaxDepth: 2 + r.Intn(4), MaxChildren: 2, LeafProb: 0.5})
		tr = tr.WithSpeeds(1, 1.5, 1.25)
		trace, err := workload.Poisson(r, workload.GenConfig{N: 80, Size: workload.UniformSize{Lo: 0.5, Hi: 5}, Load: 1.0, Capacity: float64(len(tr.RootAdjacent()))})
		if err != nil {
			return false
		}
		if r.Bool(0.5) {
			if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{Leaves: len(tr.Leaves()), Lo: 0.5, Hi: 2}); err != nil {
				return false
			}
		}
		res, err := Run(tr, trace, &rrAssigner{}, Options{Instrument: true, SelfCheck: true})
		if err != nil {
			return false
		}
		// (1) Integral of active count equals total flow.
		if math.Abs(res.Stats.ActiveIntegral-res.Stats.TotalFlow) > 1e-6*math.Max(1, res.Stats.TotalFlow) {
			return false
		}
		// (2) Fractional flow never exceeds integral flow.
		if res.Stats.FracFlow > res.Stats.TotalFlow*(1+1e-9)+1e-6 {
			return false
		}
		// (3) Per-job flow at least the speed-adjusted path work.
		for i := range res.Jobs {
			m := &res.Jobs[i]
			var minTime float64
			js := res.Sim.Tasks()[i]
			for h, v := range js.Path {
				var sz float64
				if h == len(js.Path)-1 {
					sz = js.LeafWork
				} else {
					sz = js.RouterSize
				}
				minTime += sz / tr.Speed(v)
			}
			if m.Flow < minTime-1e-6 {
				return false
			}
		}
		// (4) Per-node processed work equals total volume demanded of it.
		for v := tree.NodeID(0); int(v) < tr.NumNodes(); v++ {
			if v == tr.Root() {
				continue
			}
			var demand float64
			for _, js := range res.Sim.Tasks() {
				for h, u := range js.Path {
					if u == v {
						if h == len(js.Path)-1 {
							demand += js.LeafWork
						} else {
							demand += js.RouterSize
						}
					}
				}
			}
			_, work := res.Sim.NodeUtilization(v)
			if math.Abs(work-demand) > 1e-6*math.Max(1, demand) {
				return false
			}
		}
		// (5) Store-and-forward respected.
		for _, js := range res.Sim.Tasks() {
			for h := 1; h < len(js.Path); h++ {
				if js.HopArrive[h] < js.HopComplete[h-1]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMidRun(t *testing.T) {
	tr := tree.Star(1)
	s := New(tr, Options{})
	s.AdvanceTo(0)
	if _, err := s.Inject(&Arrival{ID: 0, Release: 0, Size: 4}, tr.Leaves()[0]); err != nil {
		t.Fatal(err)
	}
	s.AdvanceTo(2)
	st := s.Stats()
	if st.Completed != 0 {
		t.Fatal("job completed too early")
	}
	approx(t, st.ActiveIntegral, 2, 1e-9, "mid-run active integral")
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Completed != 1 {
		t.Fatal("job did not complete")
	}
	approx(t, st.TotalFlow, 8, 1e-9, "total flow")
}

func TestQueryLeafQueue(t *testing.T) {
	tr := tree.Star(2)
	s := New(tr, Options{})
	leaf := tr.Leaves()[0]
	s.AdvanceTo(0)
	if _, err := s.Inject(&Arrival{ID: 0, Release: 0, Size: 2}, leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Inject(&Arrival{ID: 1, Release: 0, Size: 4}, leaf); err != nil {
		t.Fatal(err)
	}
	q := s.Query()
	if got := len(q.LeafQueue(leaf)); got != 2 {
		t.Fatalf("LeafQueue = %d, want 2", got)
	}
	// Both jobs still upstream: remaining-on-leaf is the full size.
	// A hypothetical job of size 3 released at 0.5 is preceded only by
	// job 0 (size 2).
	if v := q.LeafVolumeHigher(leaf, 3, 0.5, 2); math.Abs(v-2) > 1e-9 {
		t.Fatalf("LeafVolumeHigher = %v, want 2", v)
	}
	// Size-4 probe: job 1 (size 4, earlier release) also precedes it.
	if v := q.LeafVolumeHigher(leaf, 4, 0.5, 2); math.Abs(v-6) > 1e-9 {
		t.Fatalf("LeafVolumeHigher = %v, want 6", v)
	}
	if v := q.LeafFracLarger(leaf, 2); math.Abs(v-1) > 1e-9 {
		t.Fatalf("LeafFracLarger = %v, want 1 (job 1 fully remaining)", v)
	}
	// Relay queries.
	relay := tr.RootAdjacent()[0]
	if v := q.AvailVolumeHigher(relay, 3, 0.5, 2); math.Abs(v-2) > 1e-9 {
		t.Fatalf("AvailVolumeHigher = %v, want 2", v)
	}
	if c := q.AvailCountLarger(relay, 2); c != 1 {
		t.Fatalf("AvailCountLarger = %d, want 1", c)
	}
	if c := q.AvailCount(relay); c != 2 {
		t.Fatalf("AvailCount = %d, want 2", c)
	}
	if v := q.AvailVolume(relay); math.Abs(v-6) > 1e-9 {
		t.Fatalf("AvailVolume = %v, want 6", v)
	}
}

func TestPendingOnRequiresInstrument(t *testing.T) {
	tr := tree.Star(1)
	s := New(tr, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("PendingOn without Instrument did not panic")
		}
	}()
	s.Query().PendingOn(tr.Leaves()[0])
}

func TestPendingOnTracksQv(t *testing.T) {
	tr := tree.Line(2)
	leaf := tr.Leaves()[0]
	path := tr.Path(leaf)
	s := New(tr, Options{Instrument: true})
	s.AdvanceTo(0)
	if _, err := s.Inject(&Arrival{ID: 0, Release: 0, Size: 2}, leaf); err != nil {
		t.Fatal(err)
	}
	q := s.Query()
	for _, v := range path {
		if len(q.PendingOn(v)) != 1 {
			t.Fatalf("PendingOn(%d) = %d, want 1", v, len(q.PendingOn(v)))
		}
	}
	s.AdvanceTo(3) // finished on path[0] (2 units) and 1 into path[1]
	if len(q.PendingOn(path[0])) != 0 {
		t.Fatal("job still pending on completed node")
	}
	if len(q.PendingOn(path[1])) != 1 || len(q.PendingOn(path[2])) != 1 {
		t.Fatal("job missing from downstream pending sets")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, v := range path {
		if len(q.PendingOn(v)) != 0 {
			t.Fatal("pending sets not empty after drain")
		}
	}
}

func TestLkNorm(t *testing.T) {
	r := &Result{Jobs: []JobMetrics{{Flow: 3}, {Flow: 4}}, Stats: Stats{TotalFlow: 7, MaxFlow: 4}}
	approx(t, r.LkNormFlow(2), 5, 1e-9, "l2 norm")
	approx(t, r.LkNormFlow(math.Inf(1)), 4, 1e-9, "linf norm")
	approx(t, r.AvgFlow(), 3.5, 1e-9, "avg")
}

func TestRecordSlices(t *testing.T) {
	tr := tree.Star(2)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: 1},
	}}
	res, err := Run(tr, trace, byLeafAssigner{idx: []int{0, 1}}, Options{RecordSlices: true, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	slices := res.Sim.Slices()
	// Relay: A [0,0.5), B [0.5,1.5), A [1.5,3); leaves: B [1.5,2.5), A [3,5).
	if len(slices) != 5 {
		t.Fatalf("slices = %d, want 5: %+v", len(slices), slices)
	}
	// Total sliced work per node equals demand.
	perNode := map[tree.NodeID]float64{}
	for _, sl := range slices {
		if sl.To <= sl.From {
			t.Fatalf("degenerate slice %+v", sl)
		}
		perNode[sl.Node] += sl.To - sl.From
	}
	relay := tr.RootAdjacent()[0]
	if math.Abs(perNode[relay]-3) > 1e-9 {
		t.Fatalf("relay sliced work %v, want 3", perNode[relay])
	}
	// The preemption boundary is visible: job 0's relay work is split.
	count0 := 0
	for _, sl := range slices {
		if sl.Node == relay && sl.Job == 0 {
			count0++
		}
	}
	if count0 != 2 {
		t.Fatalf("job 0 relay slices = %d, want 2 (preempted once)", count0)
	}
}

func TestSlicesRequireOption(t *testing.T) {
	tr := tree.Star(1)
	s := New(tr, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Slices without RecordSlices did not panic")
		}
	}()
	s.Slices()
}

func TestResultWriteJSON(t *testing.T) {
	tr := tree.Star(1)
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 2}}}
	res, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Stats Stats
		Jobs  []JobMetrics
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Stats.TotalFlow != res.Stats.TotalFlow || len(decoded.Jobs) != 1 {
		t.Fatalf("round trip lost data: %+v", decoded)
	}
}
