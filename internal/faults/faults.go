// Package faults implements deterministic fault injection for the
// simulation engine: a Plan is a seeded, reproducible list of fault
// events (transient node outages, brown-outs, permanent leaf loss)
// that Compile turns into per-node piecewise-constant speed-factor
// schedules plus one global, time-sorted boundary list the engine
// interleaves with its finish events. The package depends only on the
// topology layer, so the engine, the scenario layer and the auditor
// can all share one compiled Schedule.
package faults

import (
	"fmt"
	"math"
	"sort"

	"treesched/internal/tree"
)

// Kind names one fault class. The string values are the JSON form.
type Kind string

const (
	// Outage drops a node's speed to zero for [Start, End).
	Outage Kind = "outage"
	// Brownout multiplies a node's speed by Factor for [Start, End).
	Brownout Kind = "brownout"
	// LeafLoss drops a leaf's speed to zero permanently from Start on.
	LeafLoss Kind = "leafloss"
)

// Event is one fault on one node. End is exclusive and ignored for
// LeafLoss; Factor is only meaningful for Brownout.
type Event struct {
	Kind   Kind        `json:"kind"`
	Node   tree.NodeID `json:"node"`
	Start  float64     `json:"start"`
	End    float64     `json:"end,omitempty"`
	Factor float64     `json:"factor,omitempty"`
}

func (e Event) String() string {
	switch e.Kind {
	case Brownout:
		return fmt.Sprintf("brownout(node %d, [%g,%g), x%g)", e.Node, e.Start, e.End, e.Factor)
	case LeafLoss:
		return fmt.Sprintf("leafloss(node %d, t>=%g)", e.Node, e.Start)
	default:
		return fmt.Sprintf("%s(node %d, [%g,%g))", e.Kind, e.Node, e.Start, e.End)
	}
}

// Plan is a deterministic set of fault events.
type Plan struct {
	Events []Event `json:"events"`
}

// Validate checks every event against the topology: known kind, a
// non-root node in range, finite non-negative times, End after Start
// for transient faults, Factor in (0,1) for brownouts, and LeafLoss
// only on leaves.
func (p *Plan) Validate(t *tree.Tree) error {
	for i, e := range p.Events {
		if err := validateEvent(t, e); err != nil {
			return fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	return nil
}

func validateEvent(t *tree.Tree, e Event) error {
	if int(e.Node) <= 0 || int(e.Node) >= t.NumNodes() {
		return fmt.Errorf("%s: node %d out of range (want 1..%d; the root cannot fault)", e.Kind, e.Node, t.NumNodes()-1)
	}
	if !finite(e.Start) || e.Start < 0 {
		return fmt.Errorf("%s: start %v is not a finite time >= 0", e.Kind, e.Start)
	}
	switch e.Kind {
	case Outage, Brownout:
		if !finite(e.End) || e.End <= e.Start {
			return fmt.Errorf("%s: interval [%v,%v) is empty or not finite", e.Kind, e.Start, e.End)
		}
		if e.Kind == Brownout && !(e.Factor > 0 && e.Factor < 1) {
			return fmt.Errorf("brownout: factor %v outside (0,1)", e.Factor)
		}
	case LeafLoss:
		if !t.IsLeaf(e.Node) {
			return fmt.Errorf("leafloss: node %d is not a leaf", e.Node)
		}
	default:
		return fmt.Errorf("unknown fault kind %q (want outage|brownout|leafloss)", e.Kind)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Segment is one piece of a node's speed-factor function: Factor
// applies from Start until the next segment's Start.
type Segment struct {
	Start  float64
	Factor float64
}

// Boundary is one instant at which one node's factor changes. The
// engine processes boundaries as events interleaved with its finish
// events (finish events win ties).
type Boundary struct {
	At   float64
	Node tree.NodeID
}

// Schedule is a compiled Plan: per-node piecewise-constant factors,
// the merged boundary list, and the death time of permanently lost
// leaves. A Schedule is immutable and safe to share across engines
// and replays (each engine keeps its own boundary cursor).
type Schedule struct {
	segs       [][]Segment // per node; nil = factor 1 always
	boundaries []Boundary
	deathAt    []float64 // per node; +Inf when never lost
	numNodes   int
	events     int
}

// Compile validates the plan and builds its schedule. Overlapping
// faults on one node combine by taking the most severe (minimum)
// factor at each instant.
func Compile(t *tree.Tree, p *Plan) (*Schedule, error) {
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	s := &Schedule{
		segs:     make([][]Segment, t.NumNodes()),
		deathAt:  make([]float64, t.NumNodes()),
		numNodes: t.NumNodes(),
		events:   len(p.Events),
	}
	for v := range s.deathAt {
		s.deathAt[v] = math.Inf(1)
	}
	perNode := make(map[tree.NodeID][]Event)
	for _, e := range p.Events {
		perNode[e.Node] = append(perNode[e.Node], e)
		if e.Kind == LeafLoss && e.Start < s.deathAt[e.Node] {
			s.deathAt[e.Node] = e.Start
		}
	}
	for v, evs := range perNode {
		s.segs[v] = compileNode(evs)
		for _, seg := range s.segs[v][1:] {
			s.boundaries = append(s.boundaries, Boundary{At: seg.Start, Node: v})
		}
		// A fault active from t=0 needs a boundary too: the engine
		// starts every node at its base speed.
		if s.segs[v][0].Factor != 1 {
			s.boundaries = append(s.boundaries, Boundary{At: 0, Node: v})
		}
	}
	// A permanent loss must always surface as a boundary: when an
	// overlapping outage already holds the factor at zero across the
	// death instant, segment deduplication produces no factor change
	// there, yet the engine's recovery policy triggers on the boundary.
	for v := range s.deathAt {
		at := s.deathAt[v]
		if math.IsInf(at, 1) {
			continue
		}
		if !s.hasBoundaryAt(tree.NodeID(v), at) {
			s.boundaries = append(s.boundaries, Boundary{At: at, Node: tree.NodeID(v)})
		}
	}
	sort.Slice(s.boundaries, func(i, j int) bool {
		a, b := s.boundaries[i], s.boundaries[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Node < b.Node
	})
	return s, nil
}

// hasBoundaryAt reports whether a boundary for (v, at) was already
// emitted (called before the boundary list is sorted).
func (s *Schedule) hasBoundaryAt(v tree.NodeID, at float64) bool {
	for _, b := range s.boundaries {
		if b.Node == v && b.At == at {
			return true
		}
	}
	return false
}

// compileNode sweeps one node's events into minimal segments. O(E^2)
// per node, which is fine for the event counts plans produce.
func compileNode(evs []Event) []Segment {
	cuts := []float64{0}
	for _, e := range evs {
		cuts = append(cuts, e.Start)
		if e.Kind != LeafLoss {
			cuts = append(cuts, e.End)
		}
	}
	sort.Float64s(cuts)
	uniq := cuts[:1]
	for _, c := range cuts[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	var segs []Segment
	for _, at := range uniq {
		f := 1.0
		for _, e := range evs {
			if at < e.Start {
				continue
			}
			switch e.Kind {
			case Outage:
				if at < e.End {
					f = 0
				}
			case Brownout:
				if at < e.End && e.Factor < f {
					f = e.Factor
				}
			case LeafLoss:
				f = 0
			}
		}
		if len(segs) > 0 && segs[len(segs)-1].Factor == f {
			continue
		}
		segs = append(segs, Segment{Start: at, Factor: f})
	}
	return segs
}

// NumNodes returns the node count the schedule was compiled for.
func (s *Schedule) NumNodes() int { return s.numNodes }

// Events returns the number of plan events the schedule was built from.
func (s *Schedule) Events() int { return s.events }

// Boundaries returns the global factor-change list, sorted by
// (time, node). Callers must not mutate it.
func (s *Schedule) Boundaries() []Boundary { return s.boundaries }

// Segments returns node v's factor segments (nil when v never
// faults). Callers must not mutate the result.
func (s *Schedule) Segments(v tree.NodeID) []Segment { return s.segs[v] }

// FactorAt returns node v's speed factor at time t.
func (s *Schedule) FactorAt(v tree.NodeID, t float64) float64 {
	segs := s.segs[v]
	if segs == nil {
		return 1
	}
	// Find the last segment starting at or before t.
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Start > t }) - 1
	if i < 0 {
		return 1
	}
	return segs[i].Factor
}

// Integral returns ∫ factor(v, τ) dτ over [from, to]: the fraction of
// base-speed work node v can deliver in that window.
func (s *Schedule) Integral(v tree.NodeID, from, to float64) float64 {
	if to <= from {
		return 0
	}
	segs := s.segs[v]
	if segs == nil {
		return to - from
	}
	// Start at the last segment beginning at or before `from` and stop
	// once segments begin at or past `to`: segments outside the window
	// contribute nothing, so skipping them leaves the sum bit-identical
	// while making repeated audits of long schedules O(log n + overlap)
	// instead of O(n) per query.
	var sum float64
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Start > from }) - 1
	if i < 0 {
		i = 0
	}
	for ; i < len(segs); i++ {
		seg := segs[i]
		if seg.Start >= to {
			break
		}
		end := math.Inf(1)
		if i+1 < len(segs) {
			end = segs[i+1].Start
		}
		lo, hi := math.Max(from, seg.Start), math.Min(to, end)
		if hi > lo {
			sum += seg.Factor * (hi - lo)
		}
	}
	return sum
}

// DeathTime returns when node v is permanently lost, and whether it
// ever is.
func (s *Schedule) DeathTime(v tree.NodeID) (float64, bool) {
	at := s.deathAt[v]
	return at, !math.IsInf(at, 1)
}
