package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
)

// TestShardedScenarioEquivalence (named for the per-root-child shards
// the engine once had) is the property test for the one-loop engine's
// warm reuse and for repeated dispatch queries: across 100
// randomized scenarios (topology × policy × assigner × fault plan ×
// engine variant × seed), a warm rerun after Reset must reproduce the
// first run, and a run in which every query is asked twice at the same
// engine state (runRepeated) must reproduce the plain one bit for bit
// — per-job metrics, summary stats, slice logs, and even error strings
// for runs that legitimately fail (leaf loss under hold). The assigner
// pool includes the state-querying dispatchers (greedy, shadow, jsq,
// leastvolume); the engine variants mix in the streaming pipeline.
func TestShardedScenarioEquivalence(t *testing.T) {
	topos := []string{"fattree:4,1,2", "fattree:8,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:6,2,2", "random:4,3,3"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "shadow", "roundrobin", "random", "closest", "leastvolume", "minpath", "jsq"}
	faultSpecs := []string{"", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}
	variants := []string{"", "", "", "stream", ""}

	r := rng.New(42)
	pick := func(xs []string) string { return xs[int(r.Uint64()%uint64(len(xs)))] }
	for i := 0; i < 100; i++ {
		pol := pick(policies)
		line := fmt.Sprintf("topo=%s n=120 size=uniform:1,16 load=0.85 policy=%s assigner=%s seed=%d",
			pick(topos), pol, pick(assigners), i+1)
		if fs := pick(faultSpecs); fs != "" {
			line += " " + fs
		}
		if v := pick(variants); v != "" {
			line += " " + v
		}
		if pol == "wsjf" {
			line += " maxweight=4"
		}
		if pol != "ps" {
			line += " slices"
		}
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			sc, err := ParseCompact(line)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			seqRes, seqErr, seqSlices := runWarm(t, sc)
			repRes, repErr, repSlices := runRepeated(t, sc)
			switch {
			case seqErr != nil || repErr != nil:
				if seqErr == nil || repErr == nil || seqErr.Error() != repErr.Error() {
					t.Fatalf("%s:\n  plain err    %v\n  repeated err %v", line, seqErr, repErr)
				}
			case !reflect.DeepEqual(seqRes.Jobs, repRes.Jobs) || seqRes.Stats != repRes.Stats:
				t.Fatalf("%s: repeated queries change the run's jobs or stats", line)
			case !reflect.DeepEqual(seqSlices, repSlices):
				t.Fatalf("%s: repeated queries change the slice log", line)
			}
		})
	}
}

// runWarm runs sc twice on one engine (Reset + rerun) and returns the
// second run's outcome, failing unless it reproduces the first.
func runWarm(t *testing.T, sc *Scenario) (*sim.Result, error, []sim.Slice) {
	t.Helper()
	c := *sc
	r, err := NewRunner(&c)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, runErr := r.Run()
	res2, runErr2 := r.Run()
	if (runErr == nil) != (runErr2 == nil) {
		t.Fatalf("warm rerun changed outcome: %v vs %v", runErr, runErr2)
	}
	if runErr2 != nil {
		return nil, runErr2, nil
	}
	if !reflect.DeepEqual(res.Jobs, res2.Jobs) || res.Stats != res2.Stats {
		t.Fatal("warm rerun is not reproducible")
	}
	var slices []sim.Slice
	if c.Engine.RecordSlices {
		slices = append(slices, r.Sim().Slices()...)
	}
	return res2, nil, slices
}
