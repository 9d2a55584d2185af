package treesched_test

import (
	"fmt"
	"math"
	"testing"

	"treesched"
)

// fixedNode assigns every job to one node, leaf or not.
type fixedNode treesched.NodeID

func (fixedNode) Name() string { return "fixed" }
func (f fixedNode) Assign(*treesched.Query, *treesched.Arrival) treesched.NodeID {
	return treesched.NodeID(f)
}

// Invalid client input never reaches the engine: a non-finite size,
// leaf size or weight, a size or leaf size above workload.MaxSize
// (2^53), an origin outside the tree or offered to an
// assigner that places root arrivals only, or an assigner's choice of
// a node outside the tree, fails every driver with an error that names
// it — no panic, no silently wrong flow.
func TestInvalidInputRejected(t *testing.T) {
	tr := treesched.FatTree(2, 2, 2)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		mutate   func(j *treesched.Job)
		asg      func() treesched.Assigner
		unrelate bool
		want     string
	}{
		{"nan size greedy", func(j *treesched.Job) { j.Size = nan }, greedy, false, "workload: job 10 has non-finite size NaN"},
		{"nan size roundrobin", func(j *treesched.Job) { j.Size = nan }, roundRobin, false, "workload: job 10 has non-finite size NaN"},
		{"inf size greedy", func(j *treesched.Job) { j.Size = inf }, greedy, false, "workload: job 10 has non-finite size +Inf"},
		{"inf size roundrobin", func(j *treesched.Job) { j.Size = inf }, roundRobin, false, "workload: job 10 has non-finite size +Inf"},
		{"nan leaf size", func(j *treesched.Job) { j.LeafSizes[3] = nan }, roundRobin, true, "workload: job 10 has non-finite size NaN on leaf index 3"},
		{"inf leaf size", func(j *treesched.Job) { j.LeafSizes[3] = inf }, roundRobin, true, "workload: job 10 has non-finite size +Inf on leaf index 3"},
		{"huge size greedy", func(j *treesched.Job) { j.Size = 1.7e308 }, greedy, false, "workload: job 10 has size 1.7e+308 above MaxSize 2^53"},
		{"huge size roundrobin", func(j *treesched.Job) { j.Size = 1.7e308 }, roundRobin, false, "workload: job 10 has size 1.7e+308 above MaxSize 2^53"},
		{"size just above the bound", func(j *treesched.Job) { j.Size = math.Nextafter(1<<53, inf) }, roundRobin, false,
			"workload: job 10 has size 9.007199254740994e+15 above MaxSize 2^53"},
		{"huge leaf size", func(j *treesched.Job) { j.LeafSizes[3] = 1.7e308 }, roundRobin, true, "workload: job 10 has size 1.7e+308 above MaxSize 2^53 on leaf index 3"},
		{"nan weight", func(j *treesched.Job) { j.Weight = nan }, roundRobin, false, "workload: job 10 has non-finite weight NaN"},
		{"inf weight", func(j *treesched.Job) { j.Weight = inf }, roundRobin, false, "workload: job 10 has non-finite weight +Inf"},
		{"origin past the tree", func(j *treesched.Job) { j.Origin = 99 }, greedy, false, "sim: job 10 origin 99 outside the 15-node tree"},
		{"origin below the tree", func(j *treesched.Job) { j.Origin = -1 }, roundRobin, false, "sim: job 10 origin -1 outside the 15-node tree"},
		{"shadow origin", func(j *treesched.Job) { j.Origin = 1 }, shadow, false,
			`sim: job 10 origin 1: assigner "Shadow(GreedyIdentical)" places root arrivals only`},
		{"node below the tree", func(*treesched.Job) {}, func() treesched.Assigner { return fixedNode(-1) }, false,
			`sim: assigner "fixed": sim: assignment to non-leaf node -1`},
		{"node past the tree", func(*treesched.Job) {}, func() treesched.Assigner { return fixedNode(tr.NumNodes()) }, false,
			fmt.Sprintf(`sim: assigner "fixed": sim: assignment to non-leaf node %d`, tr.NumNodes())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			trace, err := treesched.PoissonTrace(1, 40, 0.9, tr)
			if err != nil {
				t.Fatal(err)
			}
			if c.unrelate {
				if err := treesched.MakeUnrelated(2, trace, tr, 0.5, 2); err != nil {
					t.Fatal(err)
				}
			}
			c.mutate(&trace.Jobs[10])
			check := func(driver string, err error) {
				t.Helper()
				if err == nil || err.Error() != c.want {
					t.Errorf("%s: got error %v, want %q", driver, err, c.want)
				}
			}
			_, err = treesched.Run(tr, trace, c.asg(), treesched.Options{})
			check("Run", err)
			_, err = treesched.RunStream(tr, treesched.NewTraceSource(trace), c.asg(), treesched.Options{})
			check("RunStream", err)
			_, err = treesched.RunStream(tr, treesched.NewTraceSource(trace), c.asg(), treesched.Options{RetainJobs: 1})
			check("RunStream retain=1", err)
			_, err = treesched.RunPacketized(tr, trace, c.asg(), treesched.Options{})
			check("RunPacketized", err)
		})
	}
}

// Sim.Inject rejects a node outside the tree before indexing by it.
func TestInjectRejectsNodeOutsideTree(t *testing.T) {
	tr := treesched.FatTree(2, 2, 2)
	s := treesched.NewSim(tr, treesched.Options{})
	for _, v := range []treesched.NodeID{-1, treesched.NodeID(tr.NumNodes()), 1} {
		_, err := s.Inject(&treesched.Arrival{ID: 0, Size: 1}, v)
		want := fmt.Sprintf("sim: assignment to non-leaf node %d", v)
		if err == nil || err.Error() != want {
			t.Errorf("Inject on node %d: got %v, want %q", v, err, want)
		}
	}
	if s.Active() != 0 {
		t.Fatalf("rejected injections left %d active tasks", s.Active())
	}
}

func greedy() treesched.Assigner     { return treesched.NewGreedyIdentical(0.5) }
func roundRobin() treesched.Assigner { return &treesched.RoundRobin{} }

// shadow runs the general-tree algorithm on FatTree(2,2,2), the tree
// both tests above use.
func shadow() treesched.Assigner {
	sh, err := treesched.NewShadow(treesched.FatTree(2, 2, 2), treesched.ShadowConfig{Eps: 0.5})
	if err != nil {
		panic(err) // a fat tree always reduces to a broomstick
	}
	return sh
}

// FuzzRunAccepted: a trace that Trace.Validate accepts never makes a
// driver panic. The last job of a short trace on FatTree(2,2,2) takes
// the fuzzed release, size, weight, origin and leaf-size count (a
// negative count leaves the job identical). Under greedy, round-robin
// and shadow, Run and RunStream either return an error or complete
// every job with a finite, non-negative flow; so does RunPacketized,
// exercised only for sizes up to 64 because it makes ⌈p_j⌉ tasks per
// job. The 1.7e308 seed is refused by Validate (above MaxSize); the
// 2^53 seed is the largest size it accepts.
func FuzzRunAccepted(f *testing.F) {
	f.Add(100.0, 3.0, 1.0, int32(0), int8(-1))
	f.Add(100.0, 3.0, 1.0, int32(99), int8(-1))
	f.Add(100.0, 3.0, 1.0, int32(-1), int8(-1))
	f.Add(100.0, 3.0, 1.0, int32(1), int8(-1))
	f.Add(100.0, 3.0, 2.0, int32(3), int8(8))
	f.Add(100.0, 3.0, 1.0, int32(0), int8(3))
	f.Add(100.0, 1.7e308, 1.0, int32(0), int8(-1))
	f.Add(100.0, float64(1<<53), 1.0, int32(0), int8(-1))
	tr := treesched.FatTree(2, 2, 2)
	f.Fuzz(func(t *testing.T, release, size, weight float64, origin int32, leaves int8) {
		trace, err := treesched.PoissonTrace(1, 8, 0.9, tr)
		if err != nil {
			t.Fatal(err)
		}
		j := &trace.Jobs[len(trace.Jobs)-1]
		j.Release, j.Size, j.Weight, j.Origin = release, size, weight, origin
		if leaves >= 0 {
			j.LeafSizes = make([]float64, leaves)
			for i := range j.LeafSizes {
				j.LeafSizes[i] = size
			}
		}
		if trace.Validate() != nil {
			return
		}
		for _, asg := range []func() treesched.Assigner{greedy, roundRobin, shadow} {
			check := func(driver string, res *treesched.Result, err error) {
				t.Helper()
				if err != nil {
					return
				}
				for _, m := range res.Jobs {
					if !(m.Flow >= 0) || math.IsInf(m.Flow, 1) {
						t.Fatalf("%s under %s: job %d has flow %v", driver, asg().Name(), m.ID, m.Flow)
					}
				}
			}
			res, err := treesched.Run(tr, trace, asg(), treesched.Options{})
			check("Run", res, err)
			res, err = treesched.RunStream(tr, treesched.NewTraceSource(trace), asg(), treesched.Options{})
			check("RunStream", res, err)
			if size <= 64 {
				res, err = treesched.RunPacketized(tr, trace, asg(), treesched.Options{})
				check("RunPacketized", res, err)
			}
		}
	})
}
