// Package metrics aggregates simulation results into the quantities
// the experiments report: flow-time summaries, node utilizations and
// time-weighted queue lengths.
package metrics

import (
	"treesched/internal/sim"
	"treesched/internal/stats"
	"treesched/internal/tree"
)

// Flows extracts the per-job flow times of a run.
func Flows(res *sim.Result) []float64 {
	out := make([]float64, len(res.Jobs))
	for i := range res.Jobs {
		out[i] = res.Jobs[i].Flow
	}
	return out
}

// FlowSummary summarizes the per-job flow-time distribution.
func FlowSummary(res *sim.Result) stats.Summary {
	return stats.Summarize(Flows(res))
}

// Utilization is one node's share of busy time over the makespan.
type Utilization struct {
	Node tree.NodeID
	Busy float64 // fraction of [0, makespan]
	Work float64 // total volume processed
}

// Utilizations reports per-node utilization of a completed run,
// ordered by node ID.
func Utilizations(res *sim.Result) []Utilization {
	t := res.Sim.Tree()
	mk := res.Stats.Makespan
	out := make([]Utilization, 0, t.NumNodes()-1)
	for v := tree.NodeID(1); int(v) < t.NumNodes(); v++ {
		busy, work := res.Sim.NodeUtilization(v)
		u := Utilization{Node: v, Work: work}
		if mk > 0 {
			u.Busy = busy / mk
		}
		out = append(out, u)
	}
	return out
}

// Bottleneck returns the node with the highest busy fraction.
func Bottleneck(res *sim.Result) Utilization {
	us := Utilizations(res)
	best := us[0]
	for _, u := range us[1:] {
		if u.Busy > best.Busy {
			best = u
		}
	}
	return best
}
