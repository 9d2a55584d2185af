package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
)

// runKnobsOff runs sc with the epoch memoization of the Query
// accessors force-disabled, so every query recomputes its answer. The
// knob is a package global, so it is flipped only for the duration of
// this (sequentially executed) run.
func runKnobsOff(t *testing.T, sc *Scenario, shards int) (*sim.Result, error, []sim.Slice) {
	t.Helper()
	sim.DisableDispatchMemo = true
	defer func() { sim.DisableDispatchMemo = false }()
	return runWithShards(t, sc, shards)
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

// TestDispatchKnobsDifferential is the determinism contract for the
// memoized dispatch path: across 60 randomized scenarios covering
// every state-querying assigner (greedy, shadow, jsq, leastvolume)
// under every policy, running with the query memo enabled and
// force-disabled must produce byte-identical NDJSON output — the memo
// may only ever return the same bits a fresh recomputation would. Both
// the sequential and the sharded engine are held to the contract,
// including scenarios that legitimately fail.
func TestDispatchKnobsDifferential(t *testing.T) {
	topos := []string{"fattree:4,1,2", "fattree:8,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:6,2,2", "random:4,3,3"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "shadow", "jsq", "leastvolume"}
	faultSpecs := []string{"", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}
	variants := []string{"", "", "split=2", "stream"}

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
			for _, shards := range []int{1, 4} {
				onRes, onErr, _ := runWithShards(t, sc, shards)
				offRes, offErr, _ := runKnobsOff(t, sc, shards)
				if onErr != nil || offErr != nil {
					if onErr == nil || offErr == nil || onErr.Error() != offErr.Error() {
						t.Fatalf("%s (shards=%d):\n  fast err %v\n  ref err  %v", line, shards, onErr, offErr)
					}
					continue
				}
				if on, off := ndjsonBytes(t, onRes), ndjsonBytes(t, offRes); !bytes.Equal(on, off) {
					t.Fatalf("%s (shards=%d): NDJSON output diverges between memoized and reference dispatch", line, shards)
				}
			}
		})
	}
}
