package sim

import (
	"testing"

	"treesched/internal/faults"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// Review probe: outage overlapping the leafloss instant on the same
// leaf — does redispatch still fire?
func TestReviewLeafLossMaskedByOutage(t *testing.T) {
	tr := tree.Star(2) // two leaves so a survivor exists
	leaf := tr.Leaves()[0]
	trace := &workload.Trace{Jobs: []workload.Job{{ID: 0, Release: 0, Size: 4}}}
	res, err := Run(tr, trace, fixedAssigner{leaf}, Options{
		SelfCheck: true, Instrument: true, RecordSlices: true,
		Recovery: RecoverRedispatch,
		Faults: compile(t, tr,
			faults.Event{Kind: faults.Outage, Node: leaf, Start: 2, End: 10},
			faults.Event{Kind: faults.LeafLoss, Node: leaf, Start: 5},
		),
	})
	if err != nil {
		t.Fatalf("redispatch run failed: %v", err)
	}
	t.Logf("flow=%v completion=%v", res.TotalFlow(), res.Jobs[0].Completion)
}
