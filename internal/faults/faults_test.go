package faults

import (
	"encoding/json"
	"math"
	"testing"

	"treesched/internal/tree"
)

func approx(t *testing.T, got, want float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func TestCompileSegments(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	p := &Plan{Events: []Event{
		{Kind: Outage, Node: leaf, Start: 2, End: 4},
		{Kind: Brownout, Node: leaf, Start: 3, End: 6, Factor: 0.5},
	}}
	s, err := Compile(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ at, want float64 }{
		{0, 1}, {1.9, 1}, {2, 0}, {3.5, 0}, {4, 0.5}, {5.9, 0.5}, {6, 1}, {100, 1},
	}
	for _, c := range cases {
		approx(t, s.FactorAt(leaf, c.at), c.want, "FactorAt")
	}
	// Untouched node stays at factor 1 with no segments.
	other := tr.Leaves()[1]
	if s.Segments(other) != nil {
		t.Fatal("untouched node has segments")
	}
	approx(t, s.FactorAt(other, 3), 1, "untouched FactorAt")
	// Boundaries: factor changes at 2 (→0), 4 (→0.5), 6 (→1).
	bs := s.Boundaries()
	if len(bs) != 3 {
		t.Fatalf("boundaries = %v, want 3 entries", bs)
	}
	for i, at := range []float64{2, 4, 6} {
		if bs[i].At != at || bs[i].Node != leaf {
			t.Fatalf("boundary %d = %+v, want at=%v node=%d", i, bs[i], at, leaf)
		}
	}
}

func TestIntegral(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	s, err := Compile(tr, &Plan{Events: []Event{
		{Kind: Outage, Node: leaf, Start: 2, End: 4},
		{Kind: Brownout, Node: leaf, Start: 4, End: 8, Factor: 0.25},
	}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s.Integral(leaf, 0, 2), 2, "before faults")
	approx(t, s.Integral(leaf, 2, 4), 0, "inside outage")
	approx(t, s.Integral(leaf, 0, 10), 2+0+1+2, "across everything")
	approx(t, s.Integral(leaf, 3, 5), 0.25, "straddling the outage end")
	approx(t, s.Integral(leaf, 5, 5), 0, "empty window")
	approx(t, s.Integral(tr.Leaves()[1], 3, 5), 2, "untouched node")
}

func TestLeafLossAndDeathTime(t *testing.T) {
	tr := tree.Star(3)
	leaf := tr.Leaves()[1]
	s, err := Compile(tr, &Plan{Events: []Event{
		{Kind: LeafLoss, Node: leaf, Start: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s.FactorAt(leaf, 4.9), 1, "before loss")
	approx(t, s.FactorAt(leaf, 5), 0, "at loss")
	approx(t, s.FactorAt(leaf, 1e9), 0, "long after loss")
	at, dead := s.DeathTime(leaf)
	if !dead || at != 5 {
		t.Fatalf("DeathTime = %v,%v, want 5,true", at, dead)
	}
	if _, dead := s.DeathTime(tr.Leaves()[0]); dead {
		t.Fatal("surviving leaf reported dead")
	}
	if len(s.Boundaries()) != 1 {
		t.Fatalf("boundaries = %v, want exactly the loss instant", s.Boundaries())
	}
}

func TestOverlapTakesMinimum(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	s, err := Compile(tr, &Plan{Events: []Event{
		{Kind: Brownout, Node: leaf, Start: 0, End: 10, Factor: 0.8},
		{Kind: Brownout, Node: leaf, Start: 2, End: 6, Factor: 0.3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s.FactorAt(leaf, 1), 0.8, "single brownout")
	approx(t, s.FactorAt(leaf, 3), 0.3, "overlap takes min")
	approx(t, s.FactorAt(leaf, 7), 0.8, "back to outer")
	// A fault active from t=0 must produce a t=0 boundary so the
	// engine (which starts at base speed) applies it.
	if bs := s.Boundaries(); len(bs) == 0 || bs[0].At != 0 {
		t.Fatalf("boundaries = %v, want first at t=0", bs)
	}
}

func TestValidateRejects(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	router := tr.RootAdjacent()[0]
	bad := []Plan{
		{Events: []Event{{Kind: Outage, Node: tr.Root(), Start: 0, End: 1}}},
		{Events: []Event{{Kind: Outage, Node: tree.NodeID(99), Start: 0, End: 1}}},
		{Events: []Event{{Kind: Outage, Node: leaf, Start: 2, End: 2}}},
		{Events: []Event{{Kind: Outage, Node: leaf, Start: -1, End: 2}}},
		{Events: []Event{{Kind: Outage, Node: leaf, Start: 0, End: math.Inf(1)}}},
		{Events: []Event{{Kind: Brownout, Node: leaf, Start: 0, End: 1, Factor: 0}}},
		{Events: []Event{{Kind: Brownout, Node: leaf, Start: 0, End: 1, Factor: 1}}},
		{Events: []Event{{Kind: LeafLoss, Node: router, Start: 1}}},
		{Events: []Event{{Kind: Kind("meteor"), Node: leaf, Start: 0, End: 1}}},
		{Events: []Event{{Kind: Outage, Node: leaf, Start: math.NaN(), End: 1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(tr); err == nil {
			t.Errorf("plan %d (%v) validated", i, bad[i].Events)
		}
		if _, err := Compile(tr, &bad[i]); err == nil {
			t.Errorf("plan %d (%v) compiled", i, bad[i].Events)
		}
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := []Event{
		{Kind: Outage, Node: 3, Start: 1.5, End: 2.25},
		{Kind: Brownout, Node: 4, Start: 0, End: 10, Factor: 0.5},
		{Kind: LeafLoss, Node: 5, Start: 7},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip changed length: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d changed: %+v -> %+v", i, in[i], out[i])
		}
	}
}

// A leaf death masked inside an outage must still emit a boundary at
// the death instant: the speed factor does not change (it is already
// 0), but the engine's recovery policies trigger on the boundary.
func TestDeathBoundaryInsideOutage(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	s, err := Compile(tr, &Plan{Events: []Event{
		{Kind: Outage, Node: leaf, Start: 2, End: 10},
		{Kind: LeafLoss, Node: leaf, Start: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range s.Boundaries() {
		if b.Node == leaf && b.At == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("boundaries %v lack the death instant t=5", s.Boundaries())
	}
	if at, dead := s.DeathTime(leaf); !dead || at != 5 {
		t.Fatalf("DeathTime = %v, %v with a leaf loss compiled at t=5", at, dead)
	}
	// An unmasked death keeps exactly one boundary at the instant (no
	// duplicate from the factor change + the death emission).
	s2, err := Compile(tr, &Plan{Events: []Event{{Kind: LeafLoss, Node: leaf, Start: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, b := range s2.Boundaries() {
		if b.Node == leaf && b.At == 5 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("want exactly one death boundary, got %d in %v", count, s2.Boundaries())
	}
}

// A schedule without a leaf loss reports no death on any node (the
// test keeps the name of the HasDeaths accessor it once covered).
func TestHasDeathsFalseWithoutLoss(t *testing.T) {
	tr := tree.Star(2)
	s, err := Compile(tr, &Plan{Events: []Event{
		{Kind: Outage, Node: tr.Leaves()[0], Start: 2, End: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < tr.NumNodes(); v++ {
		if at, dead := s.DeathTime(tree.NodeID(v)); dead {
			t.Fatalf("node %d dies at %v without any leaf loss", v, at)
		}
	}
}

// Integral's binary-search fast path must agree with a linear
// reference over many windows of a many-segment schedule.
func TestIntegralMatchesLinearReference(t *testing.T) {
	tr := tree.Star(2)
	leaf := tr.Leaves()[0]
	var evs []Event
	for i := 0; i < 50; i++ {
		at := float64(i) * 3
		evs = append(evs, Event{Kind: Brownout, Node: leaf, Start: at, End: at + 2, Factor: 0.5})
	}
	s, err := Compile(tr, &Plan{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments(leaf)
	ref := func(from, to float64) float64 {
		var sum float64
		for i, sg := range segs {
			end := math.Inf(1)
			if i+1 < len(segs) {
				end = segs[i+1].Start
			}
			lo, hi := math.Max(from, sg.Start), math.Min(to, end)
			if hi > lo {
				sum += sg.Factor * (hi - lo)
			}
		}
		return sum
	}
	for _, w := range [][2]float64{{0, 1}, {0, 150}, {7, 11}, {100, 100}, {149, 200}, {2.5, 2.5}, {60.5, 61.5}} {
		got, want := s.Integral(leaf, w[0], w[1]), ref(w[0], w[1])
		if got != want {
			t.Fatalf("Integral(%v,%v) = %v, want %v (bitwise)", w[0], w[1], got, want)
		}
	}
}
