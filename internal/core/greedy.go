// Package core implements the algorithmic contribution of Im &
// Moseley (SPAA 2015): the greedy leaf-assignment rules for identical
// and unrelated endpoints (Sections 3.4–3.6), the potential function
// Φ_j(t) of Lemma 3, validators for the structural Lemmas 1 and 2, and
// the general-tree algorithm that simulates a broomstick online and
// copies its assignments (Section 3.7).
package core

import (
	"fmt"
	"math"

	"treesched/internal/sim"
	"treesched/internal/tree"
)

// GreedyConfig tunes the paper's assignment rule.
type GreedyConfig struct {
	// Eps is the ε of the analysis; the distance term weighs
	// (6/ε²)·d_v·p_j. Must be in (0, 1] for the paper's constants to
	// make sense (larger values are allowed for ablation sweeps).
	Eps float64
	// DropDistanceTerm removes the (6/ε²)d_v p_j term (ablation B5).
	DropDistanceTerm bool
	// DropVolumeTerm removes F(j,v) (and F'(j,v)) entirely,
	// degenerating to pure distance-greedy assignment (ablation B5).
	DropVolumeTerm bool
	// DistanceWeight overrides the 6/eps^2 coefficient of the
	// distance term when positive. The analysis needs the full
	// constant; experiment B5 shows a weight of ~1 (plain path work
	// P_{j,v}) performs better in practice.
	DistanceWeight float64
}

func (c GreedyConfig) validate() {
	if c.Eps <= 0 {
		panic(fmt.Sprintf("core: GreedyConfig.Eps must be positive, got %v", c.Eps))
	}
}

// distanceWeight is the coefficient of the distance term: the paper's
// 6/ε² unless overridden.
func (c GreedyConfig) distanceWeight() float64 {
	if c.DistanceWeight > 0 {
		return c.DistanceWeight
	}
	return 6 / (c.Eps * c.Eps)
}

// scanWeight is the distance coefficient the assignment scans use:
// distanceWeight, or 0 when the term is dropped (adding the resulting
// +0 leaves every cost's bits unchanged).
func (c GreedyConfig) scanWeight() float64 {
	if c.DropDistanceTerm {
		return 0
	}
	return c.distanceWeight()
}

// F computes the paper's F(j,v) for a candidate leaf v at time t=r_j:
//
//	F(j,v) = Σ_{J_i ∈ S_{R(v),j}(t)} p^A_{i,R(v)}(t)
//	       + p_j · |{J_i ∈ Q_{R(v)}(t) : p_i > p_j}|
//
// The first term is the higher-priority volume the job must wait for
// on its root-adjacent node (S includes J_j itself, contributing p_j);
// the second charges the job for every lower-priority job it delays.
// So F(j,v) ≥ p_j, with equality (bit for bit) when the branch root
// holds no work. F depends on v only through its branch root, and
// queries are pure, so evaluating it per leaf only repeats the branch
// root's AvailStats query.
func F(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	return fAt(q, a, q.Tree().Branch(v))
}

// fAt is F(j,v) for the leaves v below root-adjacent node r.
func fAt(q *sim.Query, a *sim.Arrival, r tree.NodeID) float64 {
	volHigher, countLarger := q.AvailStats(r, a.Size, a.Release, a.ID)
	return fOf(volHigher, countLarger, a.Size)
}

// fOf forms F from its two node-local terms (AvailStats' answers, or
// AvailStatsBound's lower bounds) for a job of size p.
func fOf(volHigher float64, countLarger int, p float64) float64 {
	return volHigher + p + p*float64(countLarger)
}

// FPrime computes the paper's F'(j,v) for unrelated endpoints:
//
//	F'(j,v) = Σ_{J_i ∈ S_{v,j}(t)} p^A_{i,v}(t)
//	        + p_{j,v} · Σ_{J_i ∈ Q_v(t), p_{i,v} > p_{j,v}} p^A_{i,v}(t)/p_{i,v}
//
// mirroring F at the leaf itself, with the displacement term weighted
// by the delayed jobs' remaining fractions.
func FPrime(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	pjv := a.LeafSize(q.Tree().LeafIndex(v))
	return q.LeafVolumeHigher(v, pjv, a.Release, a.ID) + pjv +
		pjv*q.LeafFracLarger(v, pjv)
}

// dispatchPlans holds one dispatchPlan per origin node of one tree,
// each built on the first arrival from that origin: the per-arrival
// lookup is an index, and warm dispatch allocates nothing. The cache
// is keyed by the tree pointer, which it keeps alive, so the address
// cannot be reused by another tree. Assigners holding one are not
// goroutine-safe (like the other stateful assigners, e.g.
// sched.RoundRobin).
type dispatchPlans struct {
	tree  *tree.Tree
	plans []dispatchPlan
}

// dispatchPlan is the candidate set of one origin: the leaves below it
// in leaf order, and the heads of the maximal runs of consecutive
// candidates sharing (root-adjacent branch, depth). The identical rule
// costs every leaf of a run alike, and the first minimum wins, so only
// a run's head can be chosen.
type dispatchPlan struct {
	leaves []tree.NodeID
	runs   []runHead
}

type runHead struct {
	leaf, branch tree.NodeID
	depth        int
}

// of returns the plan for arrivals released at origin on t.
func (d *dispatchPlans) of(t *tree.Tree, origin tree.NodeID) *dispatchPlan {
	if d.tree != t {
		d.tree = t
		d.plans = make([]dispatchPlan, t.NumNodes())
	}
	p := &d.plans[origin]
	if p.leaves == nil {
		p.leaves = eligibleLeaves(t, origin)
		for _, v := range p.leaves {
			b, dep := t.Branch(v), t.Depth(v)
			if n := len(p.runs); n == 0 || p.runs[n-1].branch != b || p.runs[n-1].depth != dep {
				p.runs = append(p.runs, runHead{leaf: v, branch: b, depth: dep})
			}
		}
	}
	return p
}

// GreedyIdentical is the paper's assignment rule for the identical
// endpoint setting (Section 3.5): assign the arriving job to
//
//	argmin_{v ∈ L} { F(j,v) + (6/ε²)·d_v·p_j }.
type GreedyIdentical struct {
	Cfg   GreedyConfig
	plans dispatchPlans
}

// NewGreedyIdentical constructs the identical-endpoint greedy rule.
func NewGreedyIdentical(eps float64) *GreedyIdentical {
	g := &GreedyIdentical{Cfg: GreedyConfig{Eps: eps}}
	g.Cfg.validate()
	return g
}

// Name implements sim.Assigner.
func (g *GreedyIdentical) Name() string { return "GreedyIdentical" }

// Assign implements sim.Assigner. The cost depends on v only through
// (R(v), d_v), so the scan scores one head per run of the origin's
// plan, in leaf order, and keeps the first strict minimum. A run's
// floor p_j + dw·d_v·p_j is a float lower bound of its cost (F ≥ p_j,
// and rounding is monotone), so the scan skips every run whose floor
// is not below the best cost so far. It prices the rest from
// AvailStatsBound in O(1): that price is a lower bound of the cost,
// and is the cost bit for bit when the branch root holds at most its
// running task (an empty root costs its floor). Only a root holding
// more, whose bounded price is still below the best, is queried with
// AvailStats. Since queries are pure, the scan picks the leaf a
// straight scan of every candidate picks, float ties included.
func (g *GreedyIdentical) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	g.Cfg.validate()
	p := g.plans.of(q.Tree(), a.Origin)
	if len(p.leaves) == 1 {
		return p.leaves[0]
	}
	dw := g.Cfg.scanWeight()
	best := tree.None
	bestCost := math.Inf(1)
	for _, h := range p.runs {
		c := dw * float64(h.depth) * a.Size
		cost := c
		if !g.Cfg.DropVolumeTerm {
			if a.Size+c >= bestCost {
				continue
			}
			vh, cl, exact := q.AvailStatsBound(h.branch, a.Size, a.Release, a.ID)
			if cost = fOf(vh, cl, a.Size) + c; !exact && cost < bestCost {
				cost = fAt(q, a, h.branch) + c
			}
		}
		if cost < bestCost {
			best, bestCost = h.leaf, cost
		}
	}
	return best
}

// Cost exposes the rule's objective for a candidate leaf (used by the
// dual-fitting experiment to compute β_j = min_v cost).
func (g *GreedyIdentical) Cost(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	return F(q, a, v) + g.Cfg.distanceWeight()*float64(q.Tree().Depth(v))*a.Size
}

// GreedyUnrelated is the paper's assignment rule for the unrelated
// endpoint setting (Section 3.6): assign the arriving job to
//
//	argmin_{v ∈ L} { F(j,v) + F'(j,v) + (6/ε²)·d_v·p_j }.
type GreedyUnrelated struct {
	Cfg   GreedyConfig
	plans dispatchPlans
}

// NewGreedyUnrelated constructs the unrelated-endpoint greedy rule.
func NewGreedyUnrelated(eps float64) *GreedyUnrelated {
	g := &GreedyUnrelated{Cfg: GreedyConfig{Eps: eps}}
	g.Cfg.validate()
	return g
}

// Name implements sim.Assigner.
func (g *GreedyUnrelated) Name() string { return "GreedyUnrelated" }

// Assign implements sim.Assigner: every candidate leaf of the origin's
// plan is scored in leaf order and the first strict minimum wins. F
// and F' are evaluated per leaf, so F repeats its branch root's query
// for every leaf of the branch; queries are pure, so the repeats cost
// time but change nothing.
func (g *GreedyUnrelated) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	g.Cfg.validate()
	t := q.Tree()
	p := g.plans.of(t, a.Origin)
	if len(p.leaves) == 1 {
		return p.leaves[0]
	}
	dw := g.Cfg.scanWeight()
	best := tree.None
	bestCost := math.Inf(1)
	for _, v := range p.leaves {
		cost := dw * float64(t.Depth(v)) * a.Size
		if !g.Cfg.DropVolumeTerm {
			cost = F(q, a, v) + FPrime(q, a, v) + cost
		}
		if cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best
}

// Cost exposes the unrelated rule's objective for a candidate leaf.
func (g *GreedyUnrelated) Cost(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	return F(q, a, v) + FPrime(q, a, v) +
		g.Cfg.distanceWeight()*float64(q.Tree().Depth(v))*a.Size
}

// eligibleLeaves honors the arbitrary-origin extension: jobs released
// at an interior node may only be assigned below it.
func eligibleLeaves(t *tree.Tree, origin tree.NodeID) []tree.NodeID {
	switch {
	case origin == t.Root():
		return t.Leaves()
	case t.IsLeaf(origin):
		return []tree.NodeID{origin}
	}
	return t.SubtreeLeaves(origin)
}
