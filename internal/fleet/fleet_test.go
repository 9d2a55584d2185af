package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"treesched/internal/scenario"
	"treesched/internal/workload"
)

func fleetScenario(t *testing.T, compact string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.ParseCompact(compact)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRoutingPartition: every front-door job lands on exactly one
// tree, with its release and size intact, and round-robin lands job k
// on tree k mod n.
func TestRoutingPartition(t *testing.T) {
	sc := fleetScenario(t, "topo=fattree:2,2,2 n=200 size=uniform:1,16 load=0.9 seed=3 fleet=3 fleetpolicy=rr")
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the front door exactly as the fleet does to compare.
	p, err := (&scenario.Scenario{Seed: 3, RNG: "keyed", Workload: sc.Workload}).NewPartition()
	if err != nil {
		t.Fatal(err)
	}
	w := sc.Workload
	w.Capacity = 3 * 2 // three fattree:2,2,2 trees, two root-adjacent each
	trace, err := w.GenerateRNG(p)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, len(trace.Jobs))
	for ti := range res.Trees {
		tr := &res.Trees[ti]
		for li, gid := range tr.GlobalIDs {
			seen[gid]++
			if gid%3 != ti {
				t.Fatalf("rr routed front-door job %d to tree %d", gid, ti)
			}
			// The local job is the front-door job renumbered.
			in := trace.Jobs[gid]
			if tr.Result.Jobs[li].Release != in.Release {
				t.Fatalf("tree %d local job %d release %v, front door %v", ti, li, tr.Result.Jobs[li].Release, in.Release)
			}
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("front-door job %d routed %d times", id, c)
		}
	}
	if res.Scorecard.Jobs != len(trace.Jobs) {
		t.Fatalf("scorecard counts %d jobs, front door emitted %d", res.Scorecard.Jobs, len(trace.Jobs))
	}
}

// TestLocalAffinity: under light load the local policy keeps every
// job on its home tree (ID mod n).
func TestLocalAffinity(t *testing.T) {
	sc := fleetScenario(t, "topo=star:4 n=100 size=uniform:1,2 load=0.1 seed=5 fleet=4 fleetpolicy=local")
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range res.Trees {
		for _, gid := range res.Trees[ti].GlobalIDs {
			if gid%4 != ti {
				t.Fatalf("lightly loaded local policy moved job %d off its home tree (got tree %d)", gid, ti)
			}
		}
	}
}

// TestJSQBalances: join-shortest-queue may not starve any tree of a
// uniformly loaded fleet of identical trees.
func TestJSQBalances(t *testing.T) {
	sc := fleetScenario(t, "topo=fattree:2,2,2 n=400 size=uniform:1,16 load=0.9 seed=7 fleet=4 fleetpolicy=jsq")
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range res.Trees {
		if n := len(res.Trees[ti].GlobalIDs); n < 400/4/4 {
			t.Fatalf("jsq starved tree %d: %d of 400 jobs", ti, n)
		}
	}
}

// TestWorkersInvariance: the worker count is a pure speed knob — the
// scorecard and every tree's NDJSON are byte-identical at any value.
// The second scenario is larger: 4,000 class-rounded jobs and longer
// brown-outs.
func TestWorkersInvariance(t *testing.T) {
	for _, spec := range []string{
		"topo=fattree:2,2,2 n=300 size=uniform:1,16 load=0.9 seed=11 maxweight=5 fleet=4 fleetpolicy=jsq faults=brownouts:2,5,0.5",
		"topo=fattree:2,2,2 n=4000 size=uniform:1,16 class=0.5 load=0.9 seed=60 fleet=4 fleetpolicy=jsq faults=brownouts:2,20,0.5",
	} {
		run := func(workers int) ([]byte, [][]byte) {
			t.Helper()
			res, err := Run(fleetScenario(t, spec), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var card bytes.Buffer
			if err := res.Scorecard.WriteJSON(&card); err != nil {
				t.Fatal(err)
			}
			var nd [][]byte
			for i := range res.Trees {
				var b bytes.Buffer
				if err := res.Trees[i].WriteNDJSON(&b); err != nil {
					t.Fatal(err)
				}
				nd = append(nd, b.Bytes())
			}
			return card.Bytes(), nd
		}
		card1, nd1 := run(1)
		card4, nd4 := run(4)
		if !bytes.Equal(card1, card4) {
			t.Fatalf("%s: scorecard changed with worker count:\n workers=1:\n%s\n workers=4:\n%s", spec, card1, card4)
		}
		for i := range nd1 {
			if !bytes.Equal(nd1[i], nd4[i]) {
				t.Fatalf("%s: tree %d NDJSON changed with worker count", spec, i)
			}
		}
	}
}

// TestFaultIsolation pins the acceptance criterion: changing one
// tree's fault plan leaves every sibling's per-job NDJSON
// byte-identical (routing is execution-blind and fault draws are
// tree-scoped).
func TestFaultIsolation(t *testing.T) {
	const spec = "topo=fattree:2,2,2 n=300 size=uniform:1,16 load=0.9 seed=13 fleet=3 fleetpolicy=jsq faults=brownouts:2,5,0.5"
	ndjson := func(opts Options) [][]byte {
		t.Helper()
		res, err := Run(fleetScenario(t, spec), opts)
		if err != nil {
			t.Fatal(err)
		}
		var nd [][]byte
		for i := range res.Trees {
			var b bytes.Buffer
			if err := res.Trees[i].WriteNDJSON(&b); err != nil {
				t.Fatal(err)
			}
			nd = append(nd, b.Bytes())
		}
		return nd
	}
	base := ndjson(Options{})
	harsher, err := scenario.ParseSpec("outages:5,20")
	if err != nil {
		t.Fatal(err)
	}
	edited := ndjson(Options{TreeFaults: map[int]*scenario.FaultSpec{
		0: {Plan: harsher},
	}})
	if bytes.Equal(base[0], edited[0]) {
		t.Fatal("tree 0's output did not change under a harsher fault plan (the edit did nothing)")
	}
	for i := 1; i < len(base); i++ {
		if !bytes.Equal(base[i], edited[i]) {
			t.Fatalf("tree %d's NDJSON changed when only tree 0's fault plan was edited", i)
		}
	}
	// Dropping a tree's faults entirely is likewise isolated.
	cleared := ndjson(Options{TreeFaults: map[int]*scenario.FaultSpec{1: nil}})
	for i := 0; i < len(base); i++ {
		if i == 1 {
			continue
		}
		if !bytes.Equal(base[i], cleared[i]) {
			t.Fatalf("tree %d's NDJSON changed when only tree 1's faults were cleared", i)
		}
	}
}

// TestHeterogeneousTopos: per-tree topologies via fleet.topos, with
// capacity-weighted jsq routing.
func TestHeterogeneousTopos(t *testing.T) {
	sc := fleetScenario(t, "n=200 size=uniform:1,16 load=0.8 seed=17 fleetpolicy=jsq trees=fattree:2,2,2;star:8;line:4")
	res, err := Run(sc, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scorecard.Trees != 3 || len(res.Scorecard.PerTree) != 3 {
		t.Fatalf("scorecard has %d/%d trees, want 3", res.Scorecard.Trees, len(res.Scorecard.PerTree))
	}
	wantTopos := []string{"fattree:2,2,2", "star:8", "line:4"}
	for i, row := range res.Scorecard.PerTree {
		if row.Topology != wantTopos[i] {
			t.Fatalf("tree %d topology %q, want %q", i, row.Topology, wantTopos[i])
		}
	}
	if res.Scorecard.Jobs != 200 {
		t.Fatalf("scorecard counts %d jobs, want 200", res.Scorecard.Jobs)
	}
}

// TestEmptyTree: a fleet with more trees than jobs leaves some trees
// idle; those report empty rows instead of failing.
func TestEmptyTree(t *testing.T) {
	sc := fleetScenario(t, "topo=star:2 n=2 size=uniform:1,2 load=0.5 seed=19 fleet=4 fleetpolicy=rr")
	res, err := Run(sc, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Trees[3].GlobalIDs); n != 0 {
		t.Fatalf("tree 3 should be idle, got %d jobs", n)
	}
	if res.Scorecard.PerTree[3].TotalFlow != 0 {
		t.Fatal("idle tree reported nonzero flow")
	}
	if res.Scorecard.Jobs != 2 {
		t.Fatalf("scorecard counts %d jobs, want 2", res.Scorecard.Jobs)
	}
}

// TestRunValidation: the fleet layer rejects what it cannot keep
// deterministic or meaningful.
func TestRunValidation(t *testing.T) {
	reject := func(typed bool, mutate func(*scenario.Scenario)) {
		t.Helper()
		sc := fleetScenario(t, "topo=star:4 n=10 size=uniform:1,4 load=0.5 fleet=2")
		mutate(sc)
		_, err := Run(sc, Options{})
		if err == nil {
			t.Fatal("Run accepted an invalid fleet scenario")
		}
		var ue *UnsupportedError
		if got := errors.As(err, &ue); got != typed {
			t.Fatalf("errors.As(err, *UnsupportedError) = %v, want %v for %q", got, typed, err)
		}
		if typed && (ue.Feature == "" || ue.Reason == "") {
			t.Fatalf("UnsupportedError missing feature/reason: %+v", ue)
		}
	}
	// Structurally invalid scenarios are plain errors ...
	reject(false, func(sc *scenario.Scenario) { sc.Fleet = nil })
	reject(false, func(sc *scenario.Scenario) { sc.Fleet.Policy = "zeta" })
	reject(false, func(sc *scenario.Scenario) {
		sc.Fleet.Trees = 2
		sc.Fleet.Topos = []scenario.Spec{{Name: "star", Args: []float64{4}}}
	})
	reject(false, func(sc *scenario.Scenario) { sc.Topology = scenario.Spec{}; sc.Fleet.Topos = nil })
	// ... while valid-but-unsupported features carry the typed
	// rejection so callers can branch on it.
	reject(true, func(sc *scenario.Scenario) { sc.RNG = "legacy" })
	reject(true, func(sc *scenario.Scenario) { sc.Engine.Packetized = true })
	reject(true, func(sc *scenario.Scenario) { sc.Workload.Unrelated = &scenario.Unrelated{Lo: 0.5, Hi: 2} })
	reject(true, func(sc *scenario.Scenario) { sc.Workload.RelatedSpeeds = []float64{1, 2} })
	reject(true, func(sc *scenario.Scenario) {
		sc.Workload.Jobs = []workload.Job{{ID: 0, Release: 0, Size: 1}}
		sc.Workload.N = 0
		sc.Workload.Size = scenario.Spec{}
		sc.Workload.MaxWeight = 3
	})
}

// TestPacketizedRejectionIsBranchable pins the contract the ROADMAP's
// packetized-fleet follow-on needs: a caller probing whether this
// build supports packetized fleets can branch on the typed error
// without parsing the message.
func TestPacketizedRejectionIsBranchable(t *testing.T) {
	sc := fleetScenario(t, "topo=star:4 n=10 size=uniform:1,4 load=0.5 fleet=2")
	sc.Engine.Packetized = true
	_, err := Run(sc, Options{})
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("packetized rejection is not an *UnsupportedError: %v", err)
	}
	if ue.Feature != "packetized runs" {
		t.Fatalf("packetized rejection names feature %q", ue.Feature)
	}
}

// TestTreeStreamsDiffer: sibling trees draw genuinely different fault
// plans from the same spec (the scoped streams are not aliases).
func TestTreeStreamsDiffer(t *testing.T) {
	sc := fleetScenario(t, "topo=fattree:2,2,2 n=100 size=uniform:1,16 load=0.9 seed=23 fleet=2 fleetpolicy=rr faults=outages:6,5")
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res.Trees[0].FaultPlan.Events, res.Trees[1].FaultPlan.Events) {
		t.Fatal("both trees drew the identical fault plan — the per-tree streams alias")
	}
}

// TestInlineJobsFleet: an inline workload routes through the fleet
// without any generation draws.
func TestInlineJobsFleet(t *testing.T) {
	sc := fleetScenario(t, "fleet=2 fleetpolicy=rr")
	sc.Topology = scenario.Spec{Name: "star", Args: []float64{4}}
	sc.Workload.Jobs = []workload.Job{
		{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 1, Size: 3}, {ID: 2, Release: 2, Size: 1},
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Trees[0].GlobalIDs); got != 2 {
		t.Fatalf("tree 0 got %d jobs, want 2 (rr over 3 jobs)", got)
	}
	if got := len(res.Trees[1].GlobalIDs); got != 1 {
		t.Fatalf("tree 1 got %d jobs, want 1", got)
	}
}
