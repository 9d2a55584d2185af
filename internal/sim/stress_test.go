package sim

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// mixAssigner alternates between several assignment strategies to
// exercise unusual queue shapes.
type mixAssigner struct {
	r *rng.Rand
	i int
}

func (m *mixAssigner) Name() string { return "mix" }
func (m *mixAssigner) Assign(q *Query, a *Arrival) tree.NodeID {
	ls := q.Tree().Leaves()
	m.i++
	switch m.i % 3 {
	case 0:
		return ls[m.r.Intn(len(ls))]
	case 1:
		return ls[0] // deliberately pile onto one leaf
	default:
		return ls[m.i%len(ls)]
	}
}

// TestEngineStress runs many randomized configurations with every
// internal assertion enabled: random trees, speeds, policies, heavy
// overload, unrelated endpoints, weights, packetization and origins.
// Any bookkeeping bug (queue indices, pending sets, fractional
// accounting) trips SelfCheck panics or the invariant comparisons.
func TestEngineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	r := rng.New(2026)
	policies := []Policy{SJF{}, FIFO{}, SRPT{}, LCFS{}, WSJF{}, PS{}}
	for iter := 0; iter < 120; iter++ {
		tr := tree.Random(r, tree.RandomConfig{
			Branches:    1 + r.Intn(4),
			MaxDepth:    2 + r.Intn(5),
			MaxChildren: 1 + r.Intn(3),
			LeafProb:    0.3 + 0.4*r.Float64(),
		})
		tr = tr.WithSpeeds(0.5+r.Float64(), 0.5+r.Float64()*2, 0.5+r.Float64()*2)
		n := 20 + r.Intn(150)
		trace, err := workload.Poisson(r, workload.GenConfig{
			N:        n,
			Size:     workload.UniformSize{Lo: 0.1, Hi: 1 + 20*r.Float64()},
			Load:     0.2 + 1.5*r.Float64(), // from light to badly overloaded
			Capacity: float64(len(tr.RootAdjacent())),
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Bool(0.3) {
			if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{
				Leaves: len(tr.Leaves()), Lo: 0.25, Hi: 4, PInfeasible: 0.2, Penalty: 6,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if r.Bool(0.3) {
			workload.AssignWeights(r, trace, 7)
		}
		checkEvery := int64(10 + r.Intn(40))
		var nEvents int64
		opts := Options{
			Policy:       policies[r.Intn(len(policies))],
			Instrument:   r.Bool(0.5),
			UseScanQueue: r.Bool(0.3),
			SelfCheck:    true,
			// With Instrument set too, Drain audits the recorded
			// schedule, so the stress run doubles as a conformance test.
			RecordSlices: r.Bool(0.5),
			Observer: func(s *Sim) {
				nEvents++
				if nEvents%checkEvery == 0 {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("iter %d, event %d: %v", iter, nEvents, err)
					}
				}
			},
		}
		asg := &mixAssigner{r: r.Split()}
		var res *Result
		if r.Bool(0.2) && trace.Jobs[0].LeafSizes == nil {
			res, err = RunPacketized(tr, trace, asg, opts)
		} else {
			res, err = Run(tr, trace, asg, opts)
		}
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		st := res.Stats
		if st.Completed != n {
			t.Fatalf("iter %d: completed %d/%d", iter, st.Completed, n)
		}
		if st.TotalFlow <= 0 || math.IsNaN(st.TotalFlow) || math.IsInf(st.TotalFlow, 0) {
			t.Fatalf("iter %d: bad total flow %v", iter, st.TotalFlow)
		}
		if st.FracFlow < -1e-6 || st.FracFlow > st.TotalFlow*(1+1e-6)+1e-6 {
			t.Fatalf("iter %d: fractional flow %v vs total %v", iter, st.FracFlow, st.TotalFlow)
		}
		if st.WeightedFlow < st.TotalFlow-1e-6 {
			t.Fatalf("iter %d: weighted flow %v below total %v (weights >= 1)", iter, st.WeightedFlow, st.TotalFlow)
		}
		// Flow must respect each job's speed-adjusted path work.
		for i := range res.Jobs {
			if res.Jobs[i].Flow <= 0 {
				t.Fatalf("iter %d: job %d non-positive flow", iter, i)
			}
		}
	}
}

// TestEmptyTrace exercises the degenerate zero-job run.
func TestEmptyTrace(t *testing.T) {
	tr := tree.Star(2)
	res, err := Run(tr, &workload.Trace{}, fixedAssigner{tr.Leaves()[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != 0 || res.Stats.TotalFlow != 0 {
		t.Fatalf("empty trace produced %+v", res.Stats)
	}
}

// TestSimultaneousArrivalOrdering: jobs released at the same instant
// are ordered deterministically by ID.
func TestSimultaneousArrivalOrdering(t *testing.T) {
	tr := tree.Star(1)
	trace := &workload.Trace{Jobs: []workload.Job{
		{ID: 0, Release: 1, Size: 2},
		{ID: 1, Release: 1, Size: 2},
		{ID: 2, Release: 1, Size: 2},
	}}
	res, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Jobs[0].Completion < res.Jobs[1].Completion && res.Jobs[1].Completion < res.Jobs[2].Completion) {
		t.Fatalf("tie-break by ID violated: %v %v %v",
			res.Jobs[0].Completion, res.Jobs[1].Completion, res.Jobs[2].Completion)
	}
}

// TestTinySizes guards the floating-point edge of very small jobs.
func TestTinySizes(t *testing.T) {
	tr := tree.Line(3)
	var jobs []workload.Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, workload.Job{ID: i, Release: float64(i) * 1e-7, Size: 1e-6})
	}
	trace := &workload.Trace{Jobs: jobs}
	res, err := Run(tr, trace, fixedAssigner{tr.Leaves()[0]}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != 50 {
		t.Fatalf("completed %d/50", res.Stats.Completed)
	}
}

// TestCheckInvariantsIsPure runs 30 lockstep runs twice, once with an
// Observer that calls CheckInvariants at every event and once with a
// no-op Observer: checking the engine must not change it, so the
// NDJSON, stats and slice logs must be byte-identical.
func TestCheckInvariantsIsPure(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	policies := []Policy{SJF{}, FIFO{}, SRPT{}, LCFS{}, WSJF{}}
	for i := 0; i < 30; i++ {
		trace := shardTestTrace(t, uint64(i)+1, 200, 2)
		run := func(observe func(*Sim)) ([]byte, Stats, []Slice) {
			res, err := Run(tr, trace, &oblRR{}, Options{Policy: policies[i%len(policies)], RecordSlices: true, Observer: observe})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteNDJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), res.Stats, slices.Clone(res.Sim.Slices())
		}
		quietOut, quietStats, quietSlices := run(func(*Sim) {})
		checkedOut, checkedStats, checkedSlices := run(func(s *Sim) {
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(checkedOut, quietOut) || checkedStats != quietStats || !slices.Equal(checkedSlices, quietSlices) {
			t.Errorf("run %d (%s): CheckInvariants at every event changed the run", i, policies[i%len(policies)].Name())
		}
	}
}
