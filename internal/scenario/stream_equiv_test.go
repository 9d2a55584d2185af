package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"treesched/internal/sim"
)

// TestStreamedScenarioEquivalence is the property test for the
// streaming pipeline: across randomized scenarios (topology × process
// × policy × assigner × fault plan × seed) a streamed
// run under full retention must reproduce the materialized run bit
// for bit — per-job metrics, summary stats, slice logs, and error
// strings for runs that legitimately fail. Streamable workloads
// exercise the lazy generator sources; fault plans and weighted
// workloads exercise the materialize-and-wrap fallback.
func TestStreamedScenarioEquivalence(t *testing.T) {
	topos := []string{"fattree:4,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:6,2,2", "random:4,3,3"}
	processes := []string{"", "process=bursty:4", "process=adversarial:32"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "roundrobin", "random", "closest", "leastvolume", "minpath", "jsq"}
	extras := []string{"", "", "class=0.5", "round=0.5"}
	faultSpecs := []string{"", "", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}

	for i := 0; i < 60; i++ {
		pick := func(xs []string) string { return xs[(i*7+len(xs)*3+i*i)%len(xs)] }
		pol := policies[i%len(policies)]
		line := fmt.Sprintf("topo=%s n=120 size=uniform:1,16 load=0.85 policy=%s assigner=%s seed=%d",
			topos[i%len(topos)], pol, assigners[i%len(assigners)], i+1)
		if p := processes[i%len(processes)]; p != "" {
			line += " " + p
		}
		if ex := pick(extras); ex != "" {
			line += " " + ex
		}
		if fs := faultSpecs[i%len(faultSpecs)]; fs != "" {
			line += " " + fs
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
			matRes, matErr, matSlices := runStreamMode(t, sc, false)
			strRes, strErr, strSlices := runStreamMode(t, sc, true)
			switch {
			case matErr != nil || strErr != nil:
				if matErr == nil || strErr == nil || matErr.Error() != strErr.Error() {
					t.Fatalf("%s:\n  materialized err %v\n  streamed err %v", line, matErr, strErr)
				}
			case !reflect.DeepEqual(matRes.Jobs, strRes.Jobs):
				t.Fatalf("%s: per-job metrics diverge", line)
			case matRes.Stats != strRes.Stats:
				t.Fatalf("%s:\n  materialized %+v\n  streamed %+v", line, matRes.Stats, strRes.Stats)
			case !reflect.DeepEqual(matSlices, strSlices):
				t.Fatalf("%s: slice logs diverge (%d vs %d)", line, len(matSlices), len(strSlices))
			}
		})
	}
}

// runStreamMode runs sc once warm (Reset + rerun) with Engine.Stream
// set as given and returns the second run's outcome, so the warm
// streaming path (Runner.Run → runStream) is exercised too.
func runStreamMode(t *testing.T, sc *Scenario, stream bool) (res *sim.Result, err error, slices []sim.Slice) {
	t.Helper()
	c := *sc
	c.Engine.Stream = stream
	r, buildErr := NewRunner(&c)
	if buildErr != nil {
		t.Fatalf("build: %v", buildErr)
	}
	res1, runErr := r.Run()
	res2, runErr2 := r.Run()
	if (runErr == nil) != (runErr2 == nil) {
		t.Fatalf("warm rerun changed outcome: %v vs %v", runErr, runErr2)
	}
	if runErr2 != nil {
		return nil, runErr2, nil
	}
	if !reflect.DeepEqual(res1.Jobs, res2.Jobs) || res1.Stats != res2.Stats {
		t.Fatalf("warm rerun (stream=%v) is not reproducible", stream)
	}
	if c.Engine.RecordSlices {
		slices = append(slices, r.Sim().Slices()...)
	}
	return res2, nil, slices
}

// TestLazyStreamSkipsMaterialization pins the constant-memory
// property at the Build level: a streamable scenario with
// engine.stream leaves Instance.Trace nil (jobs are drawn on demand),
// while a fault plan — which needs the trace's span — forces
// materialization even in stream mode.
func TestLazyStreamSkipsMaterialization(t *testing.T) {
	sc, err := ParseCompact("topo=fattree:2,2,2 n=50 size=uniform:1,16 load=0.9 seed=3 stream")
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.Trace != nil {
		t.Fatalf("streamable scenario materialized a %d-job trace", len(in.Trace.Jobs))
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 50 {
		t.Fatalf("streamed run completed %d jobs, want 50", len(res.Jobs))
	}

	sc2, err := ParseCompact("topo=fattree:2,2,2 n=50 size=uniform:1,16 load=0.9 seed=3 stream faults=outages:2,6")
	if err != nil {
		t.Fatal(err)
	}
	in2, err := sc2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in2.Trace == nil {
		t.Fatal("fault plan requires the trace span; Build should have materialized")
	}
}

// TestCompactStreamRoundTrip pins the compact form of the streaming
// engine options.
func TestCompactStreamRoundTrip(t *testing.T) {
	line := "topo=star:4 n=10 size=uniform:1,4 load=0.5 seed=1 retain=10 stream"
	sc, err := ParseCompact(line)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Engine.Stream || sc.Engine.RetainJobs != 10 {
		t.Fatalf("parsed engine %+v, want stream + retain=10", sc.Engine)
	}
	out, err := sc.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if out != line {
		t.Fatalf("round trip:\n  in  %s\n  out %s", line, out)
	}
}
