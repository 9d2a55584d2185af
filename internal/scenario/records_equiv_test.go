package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
)

// TestInstrumentationDifferential is the contract of the engine's one
// completion path: an uninstrumented engine, which recycles a task's
// state the moment it completes and keeps only its record, must
// report exactly the bits of an instrumented engine, which keeps every
// task. Across 60 randomized scenarios — state-querying and oblivious
// assigners under every policy, brown-outs, leaf loss under both
// recoveries, streaming, bounded retention and packetized runs — the
// two must agree on
// Result.Jobs, Stats and NDJSON through a cold Run, a warm Reset +
// RunOn, and an Inject/Drain loop read through Sim.Stats(), including
// scenarios that legitimately fail.
func TestInstrumentationDifferential(t *testing.T) {
	topos := []string{"fattree:4,1,2", "fattree:8,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:6,2,2", "random:4,3,3"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "shadow", "jsq", "leastvolume", "roundrobin", "random", "closest", "minpath"}
	faultSpecs := []string{"", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}
	variants := []string{"", "", "", "stream", "stream retain=5", "packetized", ""}

	r := rng.New(131)
	pick := func(xs []string) string { return xs[int(r.Uint64()%uint64(len(xs)))] }
	for i := 0; i < 60; i++ {
		pol := pick(policies)
		line := fmt.Sprintf("topo=%s n=120 size=uniform:1,16 load=0.9 policy=%s assigner=%s seed=%d",
			pick(topos), pol, pick(assigners), i+301)
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
			plain, err := ParseCompact(line)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			inst := *plain
			inst.Engine.Instrument = true

			res, err := Run(plain)
			ires, ierr := Run(&inst)
			sameOutcome(t, line+" (cold Run)", res, err, ires, ierr)
			if plain.Engine.Packetized {
				return // no warm path, and packets are injected internally
			}
			res, err = warmRun(t, plain)
			ires, ierr = warmRun(t, &inst)
			sameOutcome(t, line+" (warm RunOn)", res, err, ires, ierr)

			st, err := injectDrain(t, plain)
			ist, ierr := injectDrain(t, &inst)
			if fmt.Sprint(err) != fmt.Sprint(ierr) || st != ist {
				t.Fatalf("%s (Inject/Drain):\n  plain        %+v, %v\n  instrumented %+v, %v", line, st, err, ist, ierr)
			}
		})
	}
}

// sameOutcome fails unless two runs ended with the same error text or
// with identical Jobs, Stats and NDJSON bytes.
func sameOutcome(t *testing.T, what string, a *sim.Result, aErr error, b *sim.Result, bErr error) {
	t.Helper()
	if aErr != nil || bErr != nil {
		if aErr == nil || bErr == nil || aErr.Error() != bErr.Error() {
			t.Fatalf("%s:\n  plain err        %v\n  instrumented err %v", what, aErr, bErr)
		}
		return
	}
	if !reflect.DeepEqual(a.Jobs, b.Jobs) || a.Stats != b.Stats {
		t.Fatalf("%s: Jobs or Stats diverge:\n  plain        %+v\n  instrumented %+v", what, a.Stats, b.Stats)
	}
	if !bytes.Equal(ndjsonBytes(t, a), ndjsonBytes(t, b)) {
		t.Fatalf("%s: NDJSON diverges", what)
	}
}

// warmRun runs sc twice on one engine and returns the second, warm
// (Reset + RunOn) result.
func warmRun(t *testing.T, sc *Scenario) (*sim.Result, error) {
	t.Helper()
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r.Run()
	return r.Run()
}

// injectDrain feeds sc's jobs through AdvanceTo, Assign and Inject by
// hand, drains, and reads the engine's own Stats.
func injectDrain(t *testing.T, sc *Scenario) (sim.Stats, error) {
	t.Helper()
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	src, err := in.NewSource()
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	s := sim.New(in.Tree, in.Opts)
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		s.AdvanceTo(j.Release)
		a := sim.Arrival{ID: j.ID, Release: j.Release, Size: j.Size, LeafSizes: j.LeafSizes, Origin: tree.NodeID(j.Origin), Weight: j.Weight}
		if _, err := s.Inject(&a, in.Assigner.Assign(s.Query(), &a)); err != nil {
			return s.Stats(), err
		}
	}
	err = s.Drain()
	return s.Stats(), err
}
