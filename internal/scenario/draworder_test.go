package scenario

import (
	"reflect"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// TestLegacyDrawOrder pins the exact legacy draw sequence for one
// golden scenario, draw by typed draw, against an independent
// reconstruction from a bare rng.New(seed). This is the contract the
// legacy partition mode promises (DESIGN.md "Legacy draw order"): per
// job one Exp then one size draw, then one weight draw per job, then
// per fault event one Intn and one Float64. If this test breaks, a
// refactor changed the stream consumption order and every historical
// trace changes with it.
func TestLegacyDrawOrder(t *testing.T) {
	sc, err := ParseCompact("topo=fattree:2,2,2 n=40 size=uniform:1,16 load=0.9 seed=7 maxweight=5 faults=outages:3,10")
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct from a parallel stream, naming each draw.
	base, err := BuildTopo(sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	cap := float64(len(base.RootAdjacent()))
	rate := sc.Workload.Load * cap / workload.UniformSize{Lo: 1, Hi: 16}.Mean()
	r := rng.New(7)
	var jobs []workload.Job
	tm := 0.0
	for i := 0; i < 40; i++ {
		tm += r.Exp(rate)      // draw 2i:   interarrival
		size := r.Range(1, 16) // draw 2i+1: size
		jobs = append(jobs, workload.Job{ID: i, Release: tm, Size: size})
	}
	for i := range jobs { // draws 80..119: weights
		jobs[i].Weight = float64(1 + r.Intn(5))
	}
	span := jobs[len(jobs)-1].Release
	var events []faults.Event
	for i := 0; i < 3; i++ { // draws 120..125: fault node, start
		node := tree.NodeID(1 + r.Intn(base.NumNodes()-1))
		start := r.Float64() * span
		events = append(events, faults.Event{Kind: faults.Outage, Node: node, Start: start, End: start + 10})
	}

	if !reflect.DeepEqual(in.Trace.Jobs, jobs) {
		t.Fatal("legacy Build consumed workload draws in a different order than the pinned sequence")
	}
	if !reflect.DeepEqual(in.FaultPlan.Events, events) {
		t.Fatal("legacy Build consumed fault-plan draws in a different order than the pinned sequence")
	}
}

// TestKeyedFaultIsolation checks the whole point of keyed mode:
// perturbing one subsystem's draw count cannot move another
// subsystem's stream. Adding the unrelated transform (which consumes
// extra size-stream draws) leaves the keyed fault plan bit-identical —
// and, as a control, shifts the legacy one.
func TestKeyedFaultIsolation(t *testing.T) {
	build := func(mode string, unrelated bool) *faults.Plan {
		t.Helper()
		sc, err := ParseCompact("topo=fattree:2,2,2 n=60 size=uniform:1,16 load=0.9 seed=13 faults=outages:4,8")
		if err != nil {
			t.Fatal(err)
		}
		sc.RNG = mode
		if unrelated {
			sc.Workload.Unrelated = &Unrelated{Lo: 0.5, Hi: 2}
		}
		in, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		return in.FaultPlan
	}
	if !reflect.DeepEqual(build("keyed", false), build("keyed", true)) {
		t.Fatal("keyed fault plan moved when the workload grew an unrelated transform")
	}
	if reflect.DeepEqual(build("legacy", false), build("legacy", true)) {
		t.Fatal("legacy control: fault plan should shift when upstream draws are added (or this test checks nothing)")
	}

	// Arrivals are likewise pinned across the size-law change in keyed
	// mode (the legacy interleave cannot offer this).
	arrivals := func(size string) []float64 {
		t.Helper()
		sc, err := ParseCompact("topo=star:4 n=80 size=" + size + " load=0.9 seed=21 rng=keyed")
		if err != nil {
			t.Fatal(err)
		}
		in, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		rel := make([]float64, len(in.Trace.Jobs))
		for i, j := range in.Trace.Jobs {
			rel[i] = j.Release
		}
		return rel
	}
	// Both laws have mean 2, so the calibrated rate is identical and
	// any divergence is stream contamination.
	if !reflect.DeepEqual(arrivals("uniform:1,3"), arrivals("bimodal:1,3,0.5")) {
		t.Fatal("keyed arrivals moved when only the size law changed")
	}
}

// TestKeyedStreamEquivalence: the streamed keyed pipeline yields the
// bit-identical job sequence to the materialized keyed build.
func TestKeyedStreamEquivalence(t *testing.T) {
	sc, err := ParseCompact("topo=fattree:2,2,2 n=120 size=uniform:1,16 load=0.9 seed=17 rng=keyed")
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := ParseCompact("topo=fattree:2,2,2 n=120 size=uniform:1,16 load=0.9 seed=17 rng=keyed stream")
	if err != nil {
		t.Fatal(err)
	}
	in2, err := sc2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in2.Trace != nil {
		t.Fatal("streamable keyed scenario materialized its trace")
	}
	src, err := in2.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Jobs, in.Trace.Jobs) {
		t.Fatal("streamed keyed jobs differ from the materialized keyed trace")
	}
}

func TestRNGModeValidation(t *testing.T) {
	sc, err := ParseCompact("topo=star:4 n=10 size=uniform:1,4 load=0.5")
	if err != nil {
		t.Fatal(err)
	}
	sc.RNG = "xorshift"
	if _, err := sc.Build(); err == nil {
		t.Fatal("Build accepted an unknown rng mode")
	}
	if _, err := ParseCompact("topo=star:4 rng=xorshift"); err == nil {
		t.Fatal("ParseCompact accepted an unknown rng mode")
	}
}

func TestBuildRejectsFleet(t *testing.T) {
	sc, err := ParseCompact("topo=star:4 n=10 size=uniform:1,4 load=0.5 fleet=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Build(); err == nil {
		t.Fatal("Build accepted a fleet scenario (must go through the fleet layer)")
	}
}

// BenchmarkGenerateRNG times one workload's generation (2,000 jobs with
// sizes and weights) from each partition mode. Legacy aliases every
// stream name to one shared state; keyed derives one stream per
// subsystem name, so keyed/legacy is the derivation's overhead.
func BenchmarkGenerateRNG(b *testing.B) {
	w := Workload{N: 2000, Size: NewSpec("uniform", 1, 16), Load: 0.95, Capacity: 2, MaxWeight: 5}
	for _, c := range []struct {
		name string
		mk   func() *rng.PartitionedRNG
	}{
		{"legacy", func() *rng.PartitionedRNG { return rng.NewLegacy(62) }},
		{"keyed", func() *rng.PartitionedRNG { return rng.NewPartitioned(62) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.GenerateRNG(c.mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
