package scenario

import "testing"

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
