package tree

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"treesched/internal/rng"
)

// twoLevel builds root -> 2 routers -> 2 leaves each.
func twoLevel(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	r1 := b.AddRouter(b.Root())
	r2 := b.AddRouter(b.Root())
	b.AddLeaf(r1)
	b.AddLeaf(r1)
	b.AddLeaf(r2)
	b.AddLeaf(r2)
	tr, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuilderBasics(t *testing.T) {
	tr := twoLevel(t)
	if tr.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7", tr.NumNodes())
	}
	if got := len(tr.Leaves()); got != 4 {
		t.Fatalf("leaves = %d, want 4", got)
	}
	if got := len(tr.RootAdjacent()); got != 2 {
		t.Fatalf("rootAdjacent = %d, want 2", got)
	}
	if tr.Height() != 2 {
		t.Fatalf("Height = %d, want 2", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafAtRootRejected(t *testing.T) {
	b := NewBuilder()
	b.AddLeaf(b.Root())
	if _, err := b.Finalize(); !errors.Is(err, ErrLeafAtRoot) {
		t.Fatalf("err = %v, want ErrLeafAtRoot", err)
	}
}

func TestNoLeavesRejected(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Finalize(); !errors.Is(err, ErrNoLeaves) {
		t.Fatalf("err = %v, want ErrNoLeaves", err)
	}
}

func TestChildlessRouterRejected(t *testing.T) {
	b := NewBuilder()
	r := b.AddRouter(b.Root())
	b.AddLeaf(r)
	b.AddRouter(b.Root()) // dangling router
	if _, err := b.Finalize(); err == nil {
		t.Fatal("childless router accepted")
	}
}

func TestChildUnderLeafRejected(t *testing.T) {
	b := NewBuilder()
	r := b.AddRouter(b.Root())
	l := b.AddLeaf(r)
	b.AddLeaf(l)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("child under leaf accepted")
	}
}

func TestUnknownParentRejected(t *testing.T) {
	b := NewBuilder()
	b.AddRouter(99)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("unknown parent accepted")
	}
}

// A node speed must be positive and finite: the engine divides work
// by it and scales it by fault factors, and NaN passes a `<= 0` test.
// Every way a speed enters a tree refuses the rest, naming the node
// and the value.
func TestSetSpeedValidation(t *testing.T) {
	for _, sp := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := NewBuilder()
		r := b.AddRouter(b.Root())
		b.AddLeaf(r)
		b.SetSpeed(r, sp)
		_, err := b.Finalize()
		want := fmt.Sprintf("tree: SetSpeed(%d): speed %v is not positive and finite", r, sp)
		if err == nil || err.Error() != want {
			t.Errorf("speed %v: Finalize returned %v, want %q", sp, err, want)
		}
	}
}

func TestValidateRejectsNonFiniteSpeed(t *testing.T) {
	for _, sp := range []float64{0, math.NaN(), math.Inf(1)} {
		tr := FatTree(2, 2, 2)
		leaf := tr.Leaves()[1]
		tr.nodes[leaf].Speed = sp
		want := fmt.Sprintf("tree: node %d: speed %v is not positive and finite", leaf, sp)
		if err := tr.Validate(); err == nil || err.Error() != want {
			t.Errorf("speed %v: Validate returned %v, want %q", sp, err, want)
		}
	}
}

func TestBranchAndPath(t *testing.T) {
	tr := twoLevel(t)
	for _, leaf := range tr.Leaves() {
		path := tr.Path(leaf)
		if len(path) != 2 {
			t.Fatalf("path length %d, want 2", len(path))
		}
		if path[0] != tr.Branch(leaf) {
			t.Fatalf("path[0]=%d, Branch=%d", path[0], tr.Branch(leaf))
		}
		if path[1] != leaf {
			t.Fatalf("path does not end at leaf")
		}
		if tr.Depth(leaf) != 2 {
			t.Fatalf("leaf depth %d, want 2", tr.Depth(leaf))
		}
	}
}

func TestPathPanicsOnNonLeaf(t *testing.T) {
	tr := twoLevel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Path on router did not panic")
		}
	}()
	tr.Path(tr.RootAdjacent()[0])
}

func TestSubtreeLeaves(t *testing.T) {
	tr := twoLevel(t)
	r := tr.RootAdjacent()[0]
	got := tr.SubtreeLeaves(r)
	if len(got) != 2 {
		t.Fatalf("SubtreeLeaves = %v, want 2 leaves", got)
	}
	all := tr.SubtreeLeaves(tr.Root())
	if len(all) != 4 {
		t.Fatalf("SubtreeLeaves(root) = %d, want 4", len(all))
	}
}

func TestWithSpeeds(t *testing.T) {
	tr := FatTree(2, 2, 1)
	aug := tr.WithSpeeds(1.1, 1.21, 1.3)
	for i := 0; i < aug.NumNodes(); i++ {
		n := aug.Node(NodeID(i))
		var want float64
		switch {
		case n.Kind == KindRoot:
			want = 1
		case n.Depth == 1:
			want = 1.1
		case n.Kind == KindLeaf:
			want = 1.3
		default:
			want = 1.21
		}
		if n.Speed != want {
			t.Fatalf("node %d speed %v, want %v", i, n.Speed, want)
		}
	}
	// Original must be untouched.
	for i := 0; i < tr.NumNodes(); i++ {
		if tr.Node(NodeID(i)).Speed != 1 {
			t.Fatal("WithSpeeds mutated the original tree")
		}
	}
}

func TestWithSpeedsPanicsOnNonPositive(t *testing.T) {
	for _, c := range []struct {
		rootAdj, router, leaf float64
		want                  string
	}{
		{0, 1, 1, "tree: WithSpeeds: root-adjacent speed 0 is not positive and finite"},
		{1, 1, math.NaN(), "tree: WithSpeeds: leaf speed NaN is not positive and finite"},
		{1, math.Inf(1), 1, "tree: WithSpeeds: router speed +Inf is not positive and finite"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("WithSpeeds(%v, %v, %v) panicked with %v, want %q", c.rootAdj, c.router, c.leaf, got, c.want)
				}
			}()
			FatTree(2, 2, 2).WithSpeeds(c.rootAdj, c.router, c.leaf)
		}()
	}
}

func TestFatTreeShape(t *testing.T) {
	tr := FatTree(2, 3, 2)
	if got, want := len(tr.Leaves()), 2*2*2*2; got != want {
		t.Fatalf("leaves = %d, want %d", got, want)
	}
	for _, l := range tr.Leaves() {
		if tr.Depth(l) != 4 {
			t.Fatalf("leaf depth %d, want 4", tr.Depth(l))
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLineShape(t *testing.T) {
	tr := Line(5)
	if len(tr.Leaves()) != 1 {
		t.Fatalf("Line leaves = %d", len(tr.Leaves()))
	}
	if tr.Depth(tr.Leaves()[0]) != 6 {
		t.Fatalf("Line leaf depth = %d, want 6", tr.Depth(tr.Leaves()[0]))
	}
}

func TestStarShape(t *testing.T) {
	tr := Star(8)
	if len(tr.Leaves()) != 8 {
		t.Fatalf("Star leaves = %d", len(tr.Leaves()))
	}
	for _, l := range tr.Leaves() {
		if tr.Depth(l) != 2 {
			t.Fatalf("Star leaf depth = %d", tr.Depth(l))
		}
	}
}

func TestCaterpillarShape(t *testing.T) {
	tr := Caterpillar(4, 3)
	if len(tr.Leaves()) != 12 {
		t.Fatalf("Caterpillar leaves = %d, want 12", len(tr.Leaves()))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreesValid(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 50; i++ {
		tr := Random(r, RandomConfig{Branches: 1 + r.Intn(4), MaxDepth: 2 + r.Intn(5), MaxChildren: 1 + r.Intn(4), LeafProb: 0.4})
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree %d invalid: %v", i, err)
		}
		if len(tr.Leaves()) == 0 {
			t.Fatalf("random tree %d has no leaves", i)
		}
	}
}

func TestLeafIndexRoundTrip(t *testing.T) {
	tr := FatTree(3, 2, 2)
	for i, l := range tr.Leaves() {
		if tr.LeafIndex(l) != i {
			t.Fatalf("LeafIndex(%d) = %d, want %d", l, tr.LeafIndex(l), i)
		}
	}
	if tr.LeafIndex(tr.Root()) != -1 {
		t.Fatal("LeafIndex(root) != -1")
	}
}

func TestBroomstickReduction(t *testing.T) {
	tr := FatTree(2, 2, 2)
	bs, err := Reduce(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Reduced.Validate(); err != nil {
		t.Fatal(err)
	}
	if !IsBroomstick(bs.Reduced) {
		t.Fatal("Reduce did not produce a broomstick")
	}
	if len(bs.Reduced.Leaves()) != len(tr.Leaves()) {
		t.Fatalf("leaf count changed: %d -> %d", len(tr.Leaves()), len(bs.Reduced.Leaves()))
	}
	// Depth increases by exactly 2 for every leaf.
	for _, rl := range bs.Reduced.Leaves() {
		ol := bs.ToOriginal[bs.Reduced.LeafIndex(rl)]
		if bs.Reduced.Depth(rl) != tr.Depth(ol)+2 {
			t.Fatalf("leaf %d depth %d, original %d depth %d: want +2",
				rl, bs.Reduced.Depth(rl), ol, tr.Depth(ol))
		}
		// Correspondence is a bijection.
		if bs.ToReduced[tr.LeafIndex(ol)] != rl {
			t.Fatal("leaf correspondence is not a bijection")
		}
	}
}

func TestBroomstickHandleLength(t *testing.T) {
	// Single branch, leaves at depth 2 and 4 => ell = 3 edges from v0,
	// handle must have nodes v0..v4 (5 routers).
	b := NewBuilder()
	v0 := b.AddRouter(b.Root())
	b.AddLeaf(v0) // depth 2, ell' = 1
	v1 := b.AddRouter(v0)
	v2 := b.AddRouter(v1)
	b.AddLeaf(v2) // depth 4, ell' = 3
	tr := b.MustFinalize()

	bs, err := Reduce(tr)
	if err != nil {
		t.Fatal(err)
	}
	routers := 0
	for i := 0; i < bs.Reduced.NumNodes(); i++ {
		if bs.Reduced.Node(NodeID(i)).Kind == KindRouter {
			routers++
		}
	}
	if routers != 5 {
		t.Fatalf("handle routers = %d, want 5 (v0..v4)", routers)
	}
}

func TestBroomstickIdempotentShape(t *testing.T) {
	tr := BroomstickTree(2, 3, 2)
	if !IsBroomstick(tr) {
		t.Fatal("BroomstickTree generator did not build a broomstick")
	}
}

func TestIsBroomstickNegative(t *testing.T) {
	if IsBroomstick(FatTree(2, 2, 1)) {
		t.Fatal("fat tree misclassified as broomstick")
	}
}

func TestMapLeafSizes(t *testing.T) {
	tr := FatTree(2, 1, 2)
	bs, err := Reduce(tr)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]float64, len(tr.Leaves()))
	for i := range orig {
		orig[i] = float64(i + 1)
	}
	mapped := bs.MapLeafSizes(orig)
	for ri, rl := range bs.Reduced.Leaves() {
		ol := bs.ToOriginal[bs.Reduced.LeafIndex(rl)]
		if mapped[ri] != orig[tr.LeafIndex(ol)] {
			t.Fatalf("mapped size mismatch at reduced leaf %d", rl)
		}
	}
	if bs.MapLeafSizes(nil) != nil {
		t.Fatal("MapLeafSizes(nil) should stay nil (identical setting)")
	}
}

// Property: reduction preserves leaf count, adds exactly 2 depth, and
// always yields a broomstick, over random trees.
func TestBroomstickPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		tr := Random(r, RandomConfig{Branches: 1 + r.Intn(3), MaxDepth: 2 + r.Intn(4), MaxChildren: 1 + r.Intn(3), LeafProb: 0.5})
		bs, err := Reduce(tr)
		if err != nil {
			return false
		}
		if !IsBroomstick(bs.Reduced) {
			return false
		}
		if len(bs.Reduced.Leaves()) != len(tr.Leaves()) {
			return false
		}
		for _, rl := range bs.Reduced.Leaves() {
			ol := bs.ToOriginal[bs.Reduced.LeafIndex(rl)]
			if bs.Reduced.Depth(rl) != tr.Depth(ol)+2 {
				return false
			}
		}
		return bs.Reduced.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSingleLeafLine(t *testing.T) {
	tr := Line(3)
	bs, err := Reduce(tr)
	if err != nil {
		t.Fatal(err)
	}
	rl := bs.Reduced.Leaves()[0]
	if bs.Reduced.Depth(rl) != tr.Depth(tr.Leaves()[0])+2 {
		t.Fatal("line reduction depth wrong")
	}
}

// Path must equal the parent-walk, and SubtreeLeaves of the root
// branches must partition the leaf set, on random trees.
func TestPathAndPartitionProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		tr := Random(r, RandomConfig{Branches: 1 + r.Intn(4), MaxDepth: 2 + r.Intn(4), MaxChildren: 1 + r.Intn(3), LeafProb: 0.5})
		for _, leaf := range tr.Leaves() {
			path := tr.Path(leaf)
			// Walk parents from the leaf; must mirror the path.
			v := leaf
			for i := len(path) - 1; i >= 0; i-- {
				if path[i] != v {
					return false
				}
				v = tr.Parent(v)
			}
			if v != tr.Root() {
				return false
			}
		}
		seen := map[NodeID]int{}
		for _, b := range tr.RootAdjacent() {
			for _, l := range tr.SubtreeLeaves(b) {
				seen[l]++
			}
		}
		if len(seen) != len(tr.Leaves()) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
