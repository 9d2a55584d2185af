// Package tree implements the rooted tree network topology of
// Im & Moseley (SPAA 2015): a root that acts as the job distribution
// center, interior router nodes, and leaf machine nodes. It provides
// the structural queries the scheduling algorithms need (R(v), L(v),
// d_v, root-to-leaf paths), topology generators, and the broomstick
// reduction of Section 3.3.
package tree

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node within a Tree. IDs are dense indices into
// Tree.Nodes, assigned in construction order; the root is always 0.
type NodeID int32

// None is the invalid node ID (used for the root's parent).
const None NodeID = -1

// Kind classifies a node's role in the network.
type Kind uint8

const (
	// KindRoot is the job distribution center. It performs no
	// processing; jobs become available at root-adjacent routers.
	KindRoot Kind = iota
	// KindRouter is an interior node that forwards job data.
	KindRouter
	// KindLeaf is a machine that performs the final processing.
	KindLeaf
)

func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindRouter:
		return "router"
	case KindLeaf:
		return "leaf"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is a single vertex of the network tree.
type Node struct {
	ID       NodeID
	Parent   NodeID // None for the root
	Children []NodeID
	Kind     Kind
	// Depth is the number of edges from the root; the root has
	// depth 0 and root-adjacent nodes depth 1. For a leaf v, Depth
	// equals the paper's d_v (the number of nodes on the path from v
	// to R(v), inclusive of both).
	Depth int
	// Speed is the node's processing rate (resource augmentation
	// multiplier). The adversary baseline is speed 1.
	Speed float64
	// Label is an optional human-readable name used in renderings.
	Label string
}

// Tree is an immutable rooted tree network. Construct with Builder.
type Tree struct {
	nodes   []Node
	leaves  []NodeID // all leaf IDs, ascending
	rootAdj []NodeID // nodes adjacent to the root (the set R), ascending
	// branch[v] = R(v): the root-adjacent ancestor of v (None for root).
	branch []NodeID
	// leafIndex[v] = position of leaf v within leaves, -1 otherwise.
	leafIndex []int32
	// paths[leafIndex] = path from R(v) to the leaf inclusive.
	paths  [][]NodeID
	height int // max depth over all nodes
}

// Builder incrementally constructs a Tree. Nodes are added parent
// first; Finalize validates the model constraints.
type Builder struct {
	nodes []Node
	err   error
}

// NewBuilder returns a Builder holding just the root node.
func NewBuilder() *Builder {
	b := &Builder{}
	b.nodes = append(b.nodes, Node{
		ID:     0,
		Parent: None,
		Kind:   KindRoot,
		Depth:  0,
		Speed:  1,
		Label:  "root",
	})
	return b
}

// Root returns the root's ID (always 0).
func (b *Builder) Root() NodeID { return 0 }

// AddRouter adds a router under parent and returns its ID.
func (b *Builder) AddRouter(parent NodeID) NodeID {
	return b.add(parent, KindRouter)
}

// AddLeaf adds a leaf machine under parent and returns its ID.
func (b *Builder) AddLeaf(parent NodeID) NodeID {
	return b.add(parent, KindLeaf)
}

func (b *Builder) add(parent NodeID, kind Kind) NodeID {
	if b.err != nil {
		return None
	}
	if parent < 0 || int(parent) >= len(b.nodes) {
		b.err = fmt.Errorf("tree: add under unknown parent %d", parent)
		return None
	}
	if b.nodes[parent].Kind == KindLeaf {
		b.err = fmt.Errorf("tree: node %d is a leaf and cannot have children", parent)
		return None
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{
		ID:     id,
		Parent: parent,
		Kind:   kind,
		Depth:  b.nodes[parent].Depth + 1,
		Speed:  1,
	})
	// Index again: the append above may have moved the backing array.
	b.nodes[parent].Children = append(b.nodes[parent].Children, id)
	return id
}

// SetSpeed overrides the speed of a node (resource augmentation).
func (b *Builder) SetSpeed(id NodeID, speed float64) {
	if b.err != nil {
		return
	}
	if id < 0 || int(id) >= len(b.nodes) {
		b.err = fmt.Errorf("tree: SetSpeed on unknown node %d", id)
		return
	}
	if err := checkSpeed(speed); err != nil {
		b.err = fmt.Errorf("tree: SetSpeed(%d): %w", id, err)
		return
	}
	b.nodes[id].Speed = speed
}

// checkSpeed rejects a speed that is not positive and finite. The
// engine divides work by a node's speed and multiplies it by fault
// factors, so NaN or +Inf would turn a run's times into NaN.
func checkSpeed(speed float64) error {
	if !(speed > 0) || math.IsInf(speed, 1) {
		return fmt.Errorf("speed %v is not positive and finite", speed)
	}
	return nil
}

// SetLabel attaches a human-readable label to a node.
func (b *Builder) SetLabel(id NodeID, label string) {
	if b.err != nil {
		return
	}
	if id < 0 || int(id) >= len(b.nodes) {
		b.err = fmt.Errorf("tree: SetLabel on unknown node %d", id)
		return
	}
	b.nodes[id].Label = label
}

// ErrNoLeaves is returned when a finalized tree has no machines.
var ErrNoLeaves = errors.New("tree: no leaf machines")

// ErrLeafAtRoot is returned when a leaf is adjacent to the root,
// which the paper's model forbids ("no leaf is adjacent to the root").
var ErrLeafAtRoot = errors.New("tree: leaf adjacent to the root")

// Finalize validates the structure and returns the immutable Tree.
// Model constraints from the paper's Section 2: the tree is rooted,
// at least one leaf exists, and no leaf is adjacent to the root.
func (b *Builder) Finalize() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Tree{nodes: b.nodes}
	t.branch = make([]NodeID, len(t.nodes))
	t.leafIndex = make([]int32, len(t.nodes))
	for i := range t.leafIndex {
		t.leafIndex[i] = -1
	}
	t.branch[0] = None
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		if n.Depth == 1 {
			t.branch[i] = n.ID
			t.rootAdj = append(t.rootAdj, n.ID)
		} else {
			t.branch[i] = t.branch[n.Parent]
		}
		if n.Depth > t.height {
			t.height = n.Depth
		}
		switch {
		case n.Kind == KindLeaf && n.Depth == 1:
			return nil, fmt.Errorf("%w (node %d)", ErrLeafAtRoot, n.ID)
		case n.Kind == KindRouter && len(n.Children) == 0:
			return nil, fmt.Errorf("tree: router %d has no children; routers must lead to machines", n.ID)
		case n.Kind == KindLeaf:
			t.leafIndex[i] = int32(len(t.leaves))
			t.leaves = append(t.leaves, n.ID)
		}
	}
	if len(t.leaves) == 0 {
		return nil, ErrNoLeaves
	}
	t.paths = make([][]NodeID, len(t.leaves))
	for li, leaf := range t.leaves {
		var rev []NodeID
		for v := leaf; v != 0; v = t.nodes[v].Parent {
			rev = append(rev, v)
		}
		path := make([]NodeID, len(rev))
		for i, v := range rev {
			path[len(rev)-1-i] = v
		}
		t.paths[li] = path
	}
	b.nodes = nil // the builder must not alias the finalized tree
	return t, nil
}

// MustFinalize is Finalize that panics on error; for tests and
// generators whose construction is correct by design.
func (b *Builder) MustFinalize() *Tree {
	t, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return t
}

// NumNodes returns the total number of nodes including the root.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// Root returns the root ID (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Leaves returns all leaf machine IDs in ascending order. The caller
// must not modify the returned slice.
func (t *Tree) Leaves() []NodeID { return t.leaves }

// RootAdjacent returns the set R of nodes adjacent to the root.
// The caller must not modify the returned slice.
func (t *Tree) RootAdjacent() []NodeID { return t.rootAdj }

// Branch returns R(v), the root-adjacent ancestor of v, or None for
// the root itself.
func (t *Tree) Branch(v NodeID) NodeID { return t.branch[v] }

// Depth returns the number of edges from the root to v. For a leaf,
// this is the paper's d_v.
func (t *Tree) Depth(v NodeID) int { return t.nodes[v].Depth }

// Height returns the maximum node depth.
func (t *Tree) Height() int { return t.height }

// Parent returns the parent of v (None for the root).
func (t *Tree) Parent(v NodeID) NodeID { return t.nodes[v].Parent }

// Children returns the children of v. Callers must not modify it.
func (t *Tree) Children(v NodeID) []NodeID { return t.nodes[v].Children }

// Speed returns the processing speed of v.
func (t *Tree) Speed(v NodeID) float64 { return t.nodes[v].Speed }

// IsLeaf reports whether v is a machine.
func (t *Tree) IsLeaf(v NodeID) bool { return t.nodes[v].Kind == KindLeaf }

// LeafIndex returns the dense index of leaf v within Leaves(), or -1
// if v is not a leaf. Workload per-leaf processing times are indexed
// by this value.
func (t *Tree) LeafIndex(v NodeID) int { return int(t.leafIndex[v]) }

// Path returns the processing path for a job assigned to the given
// leaf: the nodes from R(v) down to and including the leaf. The root
// is excluded because it performs no processing. Callers must not
// modify the returned slice.
func (t *Tree) Path(leaf NodeID) []NodeID {
	li := t.leafIndex[leaf]
	if li < 0 {
		panic(fmt.Sprintf("tree: Path of non-leaf node %d", leaf))
	}
	return t.paths[li]
}

// SubtreeLeaves returns L(v): all leaves in the subtree rooted at v.
func (t *Tree) SubtreeLeaves(v NodeID) []NodeID {
	var out []NodeID
	var walk func(NodeID)
	walk = func(u NodeID) {
		if t.nodes[u].Kind == KindLeaf {
			out = append(out, u)
			return
		}
		for _, c := range t.nodes[u].Children {
			walk(c)
		}
	}
	walk(v)
	return out
}

// WithUniformSpeed returns a copy of t whose non-root nodes all run at
// the given speed. Used for resource-augmentation sweeps.
func (t *Tree) WithUniformSpeed(speed float64) *Tree {
	return t.WithSpeeds(speed, speed, speed)
}

// WithSpeeds returns a copy of t with the given speeds applied to
// root-adjacent nodes, other routers, and leaves respectively. This
// mirrors the paper's asymmetric augmentation (root-adjacent nodes get
// less speed than the rest in Theorems 4-6).
func (t *Tree) WithSpeeds(rootAdjacent, router, leaf float64) *Tree {
	classes := [...]string{"root-adjacent", "router", "leaf"}
	for i, sp := range [...]float64{rootAdjacent, router, leaf} {
		if err := checkSpeed(sp); err != nil {
			panic(fmt.Sprintf("tree: WithSpeeds: %s %v", classes[i], err))
		}
	}
	nt := *t
	nt.nodes = make([]Node, len(t.nodes))
	copy(nt.nodes, t.nodes)
	for i := range nt.nodes {
		n := &nt.nodes[i]
		switch {
		case n.Kind == KindRoot:
		case n.Depth == 1:
			n.Speed = rootAdjacent
		case n.Kind == KindLeaf:
			n.Speed = leaf
		default:
			n.Speed = router
		}
	}
	return &nt
}

// Validate re-checks the structural invariants of a finalized tree.
// It is used by property tests; a Tree obtained from Finalize always
// validates.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 || t.nodes[0].Kind != KindRoot {
		return errors.New("tree: missing root")
	}
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		p := &t.nodes[n.Parent]
		if n.Depth != p.Depth+1 {
			return fmt.Errorf("tree: node %d depth %d, parent depth %d", n.ID, n.Depth, p.Depth)
		}
		if n.Kind == KindLeaf && n.Depth == 1 {
			return ErrLeafAtRoot
		}
		if err := checkSpeed(n.Speed); err != nil {
			return fmt.Errorf("tree: node %d: %w", n.ID, err)
		}
	}
	for li, leaf := range t.leaves {
		path := t.paths[li]
		if len(path) != t.nodes[leaf].Depth {
			return fmt.Errorf("tree: leaf %d path length %d != depth %d", leaf, len(path), t.nodes[leaf].Depth)
		}
		if path[len(path)-1] != leaf {
			return fmt.Errorf("tree: leaf %d path does not end at the leaf", leaf)
		}
		if t.branch[leaf] != path[0] {
			return fmt.Errorf("tree: leaf %d branch %d != first path node %d", leaf, t.branch[leaf], path[0])
		}
	}
	return nil
}
