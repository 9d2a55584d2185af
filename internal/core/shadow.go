package core

import (
	"fmt"

	"treesched/internal/sim"
	"treesched/internal/tree"
)

// Shadow is the Section 3.7 algorithm for general trees: it maintains
// an online co-simulation of the greedy algorithm on the broomstick
// T' of the real tree T. When a job arrives, the broomstick algorithm
// picks a leaf v' in T'; Shadow assigns the job to the corresponding
// leaf of T. SJF is used on every node of both trees. Lemma 8
// guarantees (and experiment L8 verifies) that every job finishes on T
// no later than on T'.
type Shadow struct {
	bs    *tree.Broomstick
	inner *sim.Sim
	// pick is the broomstick-side assignment rule (identical or
	// unrelated greedy).
	pick sim.Assigner
	// drained records whether Finish was called.
	drained bool
	// arrival is the Arrival handed to the broomstick rule and engine:
	// a local one escapes through the Assigner interface, one heap
	// allocation per job.
	arrival sim.Arrival
}

// ShadowConfig configures the shadow broomstick simulation.
type ShadowConfig struct {
	// Eps is the greedy rule's ε.
	Eps float64
	// Unrelated selects the unrelated-endpoint greedy rule.
	Unrelated bool
	// RootAdjSpeed, RouterSpeed and LeafSpeed set the broomstick's
	// node speeds. The paper's Theorem 4 gives the broomstick (1+ε)
	// speed on root-adjacent nodes and (1+ε)² elsewhere; Lemma 8's
	// per-job domination holds whenever the real tree's nodes are at
	// least as fast as the corresponding broomstick nodes. Zero values
	// default to 1.
	RootAdjSpeed, RouterSpeed, LeafSpeed float64
	// Options are the engine options for the inner simulation.
	Options sim.Options
}

// NewShadow builds the broomstick of t and the inner simulation.
func NewShadow(t *tree.Tree, cfg ShadowConfig) (*Shadow, error) {
	if cfg.Eps <= 0 {
		return nil, fmt.Errorf("core: ShadowConfig.Eps must be positive, got %v", cfg.Eps)
	}
	bs, err := tree.Reduce(t)
	if err != nil {
		return nil, err
	}
	if cfg.RootAdjSpeed == 0 {
		cfg.RootAdjSpeed = 1
	}
	if cfg.RouterSpeed == 0 {
		cfg.RouterSpeed = 1
	}
	if cfg.LeafSpeed == 0 {
		cfg.LeafSpeed = 1
	}
	reduced := bs.Reduced.WithSpeeds(cfg.RootAdjSpeed, cfg.RouterSpeed, cfg.LeafSpeed)
	bs = &tree.Broomstick{Reduced: reduced, Original: bs.Original, ToOriginal: bs.ToOriginal, ToReduced: bs.ToReduced}
	sh := &Shadow{bs: bs, inner: sim.New(reduced, cfg.Options)}
	if cfg.Unrelated {
		sh.pick = NewGreedyUnrelated(cfg.Eps)
	} else {
		sh.pick = NewGreedyIdentical(cfg.Eps)
	}
	return sh, nil
}

// Name implements sim.Assigner.
func (sh *Shadow) Name() string { return "Shadow(" + sh.pick.Name() + ")" }

// RootOnly implements sim.RootOnlyAssigner: the broomstick reduction
// is defined for root arrivals, so the drivers refuse a job with a
// non-root origin before Assign sees it.
func (*Shadow) RootOnly() {}

// Assign implements sim.Assigner: it advances the broomstick
// simulation to the arrival instant, lets the greedy rule choose a
// broomstick leaf, injects the job there, and returns the
// corresponding leaf of the original tree. It returns tree.None, which
// the driver reports as an assignment to a non-leaf node, for a
// non-root origin (a wrapper that hides the RootOnly marker lets one
// through) and when the greedy rule finds no leaf (every cost
// overflowed to +Inf).
func (sh *Shadow) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	if a.Origin != 0 {
		return tree.None
	}
	sh.inner.AdvanceTo(a.Release)
	// Mapped leaf sizes stay a fresh slice: the injected task keeps it.
	ia := &sh.arrival
	*ia = sim.Arrival{
		ID:        a.ID,
		Release:   a.Release,
		Size:      a.Size,
		LeafSizes: sh.bs.MapLeafSizes(a.LeafSizes),
	}
	leaf := sh.pick.Assign(sh.inner.Query(), ia)
	if _, err := sh.inner.Inject(ia, leaf); err != nil {
		return tree.None
	}
	return sh.bs.ToOriginal[sh.bs.Reduced.LeafIndex(leaf)]
}

// Finish drains the broomstick simulation so its per-job completion
// times are final. Call after the primary run completes.
func (sh *Shadow) Finish() error {
	if !sh.drained {
		sh.drained = true
		return sh.inner.Drain()
	}
	return nil
}

// Broomstick returns the reduction (reduced tree + leaf maps).
func (sh *Shadow) Broomstick() *tree.Broomstick { return sh.bs }

// InnerRecords exposes the broomstick run's per-job completion
// records (sim.Sim.Records) for the Lemma 8 domination check. Call
// Finish first.
func (sh *Shadow) InnerRecords() []sim.JobMetrics { return sh.inner.Records() }
