package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
)

// TestShardedScenarioEquivalence is the property test for the
// subtree-sharded engine: across ~100 randomized scenarios (topology ×
// policy × assigner × fault plan × engine variant × seed) the sharded
// engine must reproduce the sequential engine bit for bit — per-job
// metrics, summary stats, slice logs, and even error strings for runs
// that legitimately fail (leaf loss under hold). The assigner pool
// includes the state-querying dispatchers (greedy, shadow, jsq,
// leastvolume), so parallel querying dispatch is covered alongside
// oblivious replay; the engine variants mix in the streaming pipeline
// and sub-shard splitting. Each case also runs a sequential reference
// with the dispatch memo force-disabled, pinning the memoized queries
// to the straight-line code bit for bit. Under
// `go test -race` this doubles as the data-race stress for the
// worker pool.
func TestShardedScenarioEquivalence(t *testing.T) {
	topos := []string{"fattree:4,1,2", "fattree:8,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:6,2,2", "random:4,3,3"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "shadow", "roundrobin", "random", "closest", "leastvolume", "minpath", "jsq"}
	faultSpecs := []string{"", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}
	variants := []string{"", "", "split=2", "stream", "stream split=3"}

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
			seqRes, seqErr, seqSlices := runWithShards(t, sc, 1)
			parRes, parErr, parSlices := runWithShards(t, sc, 4)
			refRes, refErr, refSlices := runKnobsOff(t, sc, 1)
			switch {
			case seqErr != nil || parErr != nil || refErr != nil:
				if seqErr == nil || parErr == nil || refErr == nil ||
					seqErr.Error() != parErr.Error() || seqErr.Error() != refErr.Error() {
					t.Fatalf("%s:\n  seq err %v\n  par err %v\n  ref err %v", line, seqErr, parErr, refErr)
				}
			case !reflect.DeepEqual(seqRes.Jobs, parRes.Jobs):
				t.Fatalf("%s: per-job metrics diverge", line)
			case seqRes.Stats != parRes.Stats:
				t.Fatalf("%s:\n  seq %+v\n  par %+v", line, seqRes.Stats, parRes.Stats)
			case !reflect.DeepEqual(seqSlices, parSlices):
				t.Fatalf("%s: slice logs diverge (%d vs %d)", line, len(seqSlices), len(parSlices))
			case !reflect.DeepEqual(seqRes.Jobs, refRes.Jobs) || seqRes.Stats != refRes.Stats:
				t.Fatalf("%s: memoized dispatch diverges from knobs-disabled reference", line)
			case !reflect.DeepEqual(seqSlices, refSlices):
				t.Fatalf("%s: slice logs diverge from knobs-disabled reference", line)
			}
		})
	}
}

// runWithShards runs sc once warm (Reset + rerun) with the given shard
// worker count and returns the second run's outcome, so the warm-reset
// path of the sharded engine is exercised too.
func runWithShards(t *testing.T, sc *Scenario, shards int) (*sim.Result, error, []sim.Slice) {
	t.Helper()
	c := *sc
	c.Engine.Shards = shards
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
		t.Fatalf("warm rerun (shards=%d) is not reproducible", shards)
	}
	var slices []sim.Slice
	if c.Engine.RecordSlices {
		slices = append(slices, r.Sim().Slices()...)
	}
	return res2, nil, slices
}
