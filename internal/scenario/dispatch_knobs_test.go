package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
)

// repeatQueries wraps an assigner with a second instance of the same
// rule (built by Instance.NewAssigner, so in the same state) that
// answers every arrival first, on the same Query; its leaf is
// discarded. Every query the wrapped assigner makes then repeats one
// already made at the same engine state.
type repeatQueries struct {
	sim.Assigner
	first sim.Assigner
}

func (r repeatQueries) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	r.first.Assign(q, a)
	return r.Assigner.Assign(q, a)
}

// runRepeated runs sc once on a fresh engine with its assigner wrapped
// in repeatQueries, so every state query is asked twice in a row.
func runRepeated(t *testing.T, sc *Scenario) (*sim.Result, error, []sim.Slice) {
	t.Helper()
	c := *sc
	in, err := c.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	asg, err := in.NewAssigner()
	if err != nil {
		t.Fatal(err)
	}
	first, err := in.NewAssigner()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(in.Tree, in.Opts)
	rq := repeatQueries{Assigner: asg, first: first}
	var res *sim.Result
	if c.Engine.Stream {
		res, err = in.runStream(s, rq)
	} else {
		res, err = sim.RunOn(s, in.Trace, rq)
	}
	if err != nil {
		return nil, err, nil
	}
	var slices []sim.Slice
	if c.Engine.RecordSlices {
		slices = append(slices, s.Slices()...)
	}
	return res, nil, slices
}

// ndjsonBytes serializes a result the way the CLI does — stats header
// plus one compact JSON object per job — so the comparison below is a
// byte-level statement about observable output, not just struct
// equality under reflection.
func ndjsonBytes(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteNDJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestDispatchKnobsDifferential is the determinism contract for
// repeated dispatch queries: across 60 randomized scenarios covering
// every state-querying assigner (greedy, shadow, jsq, leastvolume)
// under every policy, a run in which every query is asked twice at the
// same engine state (runRepeated) must produce byte-identical NDJSON
// output to a plain run — a repeat finds its node synced and its
// snapshot chain extended and may change nothing, including in
// scenarios that legitimately fail.
func TestDispatchKnobsDifferential(t *testing.T) {
	topos := []string{"fattree:4,1,2", "fattree:8,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:6,2,2", "random:4,3,3"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "shadow", "jsq", "leastvolume"}
	faultSpecs := []string{"", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}
	variants := []string{"", "", "", "stream"}

	r := rng.New(97)
	pick := func(xs []string) string { return xs[int(r.Uint64()%uint64(len(xs)))] }
	for i := 0; i < 60; i++ {
		pol := pick(policies)
		line := fmt.Sprintf("topo=%s n=120 size=uniform:1,16 load=0.9 policy=%s assigner=%s seed=%d",
			pick(topos), pol, pick(assigners), i+101)
		if fs := pick(faultSpecs); fs != "" {
			line += " " + fs
		}
		if v := pick(variants); v != "" {
			line += " " + v
		}
		if pol == "wsjf" {
			line += " maxweight=4"
		}
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			sc, err := ParseCompact(line)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			plainRes, plainErr, _ := runWarm(t, sc)
			repRes, repErr, _ := runRepeated(t, sc)
			if plainErr != nil || repErr != nil {
				if plainErr == nil || repErr == nil || plainErr.Error() != repErr.Error() {
					t.Fatalf("%s:\n  plain err    %v\n  repeated err %v", line, plainErr, repErr)
				}
				return
			}
			if plain, rep := ndjsonBytes(t, plainRes), ndjsonBytes(t, repRes); !bytes.Equal(plain, rep) {
				t.Fatalf("%s: NDJSON output diverges when every query is repeated", line)
			}
		})
	}
}
