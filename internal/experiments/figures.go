package experiments

import (
	"treesched/internal/table"
	"treesched/internal/trace"
	"treesched/internal/tree"
)

func init() {
	register(&Experiment{
		ID:    "F1",
		Title: "Tree network model illustration",
		Paper: "Figure 1",
		Run:   runF1,
	})
	register(&Experiment{
		ID:    "F2",
		Title: "Tree-to-broomstick reduction illustration",
		Paper: "Figure 2 (Section 3.3)",
		Run:   runF2,
	})
}

// runF1 regenerates the paper's Figure 1: a rooted tree whose root is
// the job distribution center, interior nodes are routers, and leaves
// are machines — rendered as ASCII plus a structural summary.
func runF1(cfg Config) (*Output, error) {
	out := &Output{}
	t := tree.FatTree(2, 2, 2)
	out.addText("Figure 1 — tree network model (2-ary fat tree, 2 router levels, 2 machines per rack)",
		trace.RenderTree(t))

	tb := table.New("F1 structural summary", "quantity", "value")
	tb.AddRow("nodes (incl. root)", t.NumNodes())
	tb.AddRow("routers adjacent to root |R|", len(t.RootAdjacent()))
	tb.AddRow("machines |L|", len(t.Leaves()))
	tb.AddRow("height", t.Height())
	leaf := t.Leaves()[0]
	tb.AddRow("d_v of first machine", t.Depth(leaf))
	tb.AddNote("jobs arrive at the root and must be processed store-and-forward on every node of the path to their machine")
	out.add(tb)
	return out, nil
}

// runF2 regenerates Figure 2: an irregular tree and its broomstick,
// with the invariants the reduction guarantees.
func runF2(cfg Config) (*Output, error) {
	out := &Output{}
	// An irregular tree akin to the paper's sketch: two branches of
	// different shapes.
	b := tree.NewBuilder()
	v0 := b.AddRouter(b.Root())
	b.AddLeaf(v0)
	u := b.AddRouter(v0)
	b.AddLeaf(u)
	b.AddLeaf(u)
	w0 := b.AddRouter(b.Root())
	w1 := b.AddRouter(w0)
	w2 := b.AddRouter(w1)
	b.AddLeaf(w2)
	b.AddLeaf(w1)
	t := b.MustFinalize()

	bs, err := tree.Reduce(t)
	if err != nil {
		return nil, err
	}
	out.addText("Figure 2 — tree reduction to a broomstick", trace.RenderReduction(bs))

	tb := table.New("F2 reduction invariants", "invariant", "value")
	isBroom := tree.IsBroomstick(bs.Reduced)
	kept := len(bs.Reduced.Leaves()) == len(t.Leaves())
	tb.AddRow("is broomstick", isBroom)
	tb.AddRow("leaves preserved", kept)
	ok := true
	for _, rl := range bs.Reduced.Leaves() {
		ol := bs.ToOriginal[bs.Reduced.LeafIndex(rl)]
		if bs.Reduced.Depth(rl) != t.Depth(ol)+2 {
			ok = false
		}
	}
	tb.AddRow("every leaf exactly 2 deeper", ok)
	tb.AddRow("original nodes", t.NumNodes())
	tb.AddRow("broomstick nodes", bs.Reduced.NumNodes())
	out.claim(tb, isBroom && kept && ok, "the reduction yields a broomstick that keeps every leaf, each exactly 2 deeper",
		"%d leaves, %d nodes to %d", len(t.Leaves()), t.NumNodes(), bs.Reduced.NumNodes())
	out.add(tb)
	return out, nil
}
