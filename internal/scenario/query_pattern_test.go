package scenario

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
)

// queryNoise makes random calls of every Query method on random nodes
// — routers, leaves and the root, not just the nodes an assigner
// reads — and on random live tasks.
type queryNoise struct {
	r          *rng.Rand
	instrument bool
}

func (z *queryNoise) calls(q *sim.Query) {
	r := z.r
	t := q.Tree()
	leaves := t.Leaves()
	node := func() tree.NodeID { return tree.NodeID(r.Intn(t.NumNodes())) }
	leaf := func() tree.NodeID { return leaves[r.Intn(len(leaves))] }
	size := func() float64 { return r.Range(0.5, 20) }
	id := func() int { return r.Intn(200) }
	times := func() int { return r.Intn(6) }
	// task returns a random live task and a node on its remaining path.
	task := func() (*sim.JobState, tree.NodeID, bool) {
		lq := q.LeafQueue(leaf())
		if len(lq) == 0 {
			return nil, 0, false
		}
		js := lq[r.Intn(len(lq))]
		return js, js.Path[js.Hop+r.Intn(len(js.Path)-js.Hop)], true
	}
	for k := times(); k > 0; k-- {
		q.Tree()
		q.Now()
	}
	for k := times(); k > 0; k-- {
		q.AvailVolumeHigher(node(), size(), q.Now(), id())
	}
	for k := times(); k > 0; k-- {
		q.AvailCountLarger(node(), size())
	}
	for k := times(); k > 0; k-- {
		q.AvailVolume(node())
	}
	for k := times(); k > 0; k-- {
		q.AvailStats(node(), size(), q.Now(), id())
	}
	for k := times(); k > 0; k-- {
		q.AvailStatsBound(node(), size(), q.Now(), id())
	}
	for k := times(); k > 0; k-- {
		q.AvailCount(node())
	}
	for k := times(); k > 0; k-- {
		q.AssignedUpstreamWork(leaf())
	}
	for k := times(); k > 0; k-- {
		q.LeafVolumeHigher(leaf(), size(), q.Now(), id())
	}
	for k := times(); k > 0; k-- {
		q.LeafFracLarger(leaf(), size())
	}
	for k := times(); k > 0; k-- {
		q.BranchFracRemaining(node())
	}
	for k := times(); k > 0 && z.instrument; k-- {
		q.PendingOn(node())
	}
	for k := times(); k > 0; k-- {
		if js, v, ok := task(); ok {
			q.RemainingOn(js, v)
			q.SizeOn(js, v)
			q.PrioSizeOn(js, v)
			q.HigherPriorityOn(js, v, size(), q.Now(), id())
		}
	}
}

// noisyAssigner makes a round of queryNoise calls before every arrival
// and then asks the wrapped assigner.
type noisyAssigner struct {
	sim.Assigner
	noise *queryNoise
}

func (w noisyAssigner) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	w.noise.calls(q)
	return w.Assigner.Assign(q, a)
}

// runOutcome is everything a run makes observable.
type runOutcome struct {
	ndjson []byte
	stats  sim.Stats
	slices []sim.Slice
	err    string
}

// runBuilt builds sc afresh, lets setup wrap the assigner and adjust
// the options, and runs it the way Instance.Run would: packetized,
// streamed or store-and-forward.
func runBuilt(t *testing.T, sc *Scenario, setup func(in *Instance, asg sim.Assigner) sim.Assigner) runOutcome {
	t.Helper()
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	asg := setup(in, in.Assigner)
	var res *sim.Result
	switch {
	case sc.Engine.Packetized:
		res, err = sim.RunPacketized(in.Tree, in.Trace, asg, in.Opts)
	case sc.Engine.Stream:
		res, err = in.runStream(nil, asg)
	default:
		res, err = sim.Run(in.Tree, in.Trace, asg, in.Opts)
	}
	if err != nil {
		return runOutcome{err: err.Error()}
	}
	out := runOutcome{ndjson: ndjsonBytes(t, res), stats: res.Stats}
	if in.Opts.RecordSlices {
		out.slices = slices.Clone(res.Sim.Slices())
	}
	return out
}

func requireSameOutcome(t *testing.T, line, leg string, got, want runOutcome) {
	t.Helper()
	switch {
	case got.err != want.err:
		t.Fatalf("%s: %s: error %q, without the extra queries %q", line, leg, got.err, want.err)
	case !bytes.Equal(got.ndjson, want.ndjson):
		t.Fatalf("%s: %s: NDJSON differs", line, leg)
	case got.stats != want.stats:
		t.Fatalf("%s: %s: stats differ:\n  got  %+v\n  want %+v", line, leg, got.stats, want.stats)
	case !slices.Equal(got.slices, want.slices):
		t.Fatalf("%s: %s: slice log differs (%d vs %d slices)", line, leg, len(got.slices), len(want.slices))
	}
}

// TestQueryPatternInvariance is the purity contract of sim.Query:
// across 200 random scenarios (every assigner, every policy, every
// fault plan with leaf loss under both recovery modes, and the stream,
// slices and packetized variants), extra queries must change nothing
// — NDJSON, stats, slice log and error text stay byte-identical. One
// leg adds 0–5 random calls of every Query method before each arrival;
// the other makes them from an Observer at every event, against a
// no-op Observer.
func TestQueryPatternInvariance(t *testing.T) {
	topos := []string{"fattree:4,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:3,3,1", "random:4,3,3"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "greedy-unrelated", "shadow", "roundrobin", "random", "closest", "leastvolume", "minpath", "jsq"}
	faultSpecs := []string{"", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}
	variants := []string{"", "stream", "slices", "packetized", "instrument slices"}

	r := rng.New(2024)
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	for i := 0; i < 200; i++ {
		pol, asg, variant := pick(policies), pick(assigners), pick(variants)
		line := fmt.Sprintf("topo=%s n=100 size=uniform:1,16 load=0.9 policy=%s assigner=%s seed=%d",
			pick(topos), pol, asg, i+301)
		if fs := pick(faultSpecs); fs != "" {
			line += " " + fs
		}
		if asg == "greedy-unrelated" || r.Intn(4) == 0 {
			line += " unrelated=0.5,2"
		}
		if pol == "ps" {
			variant = strings.TrimSpace(strings.ReplaceAll(variant, "slices", ""))
		}
		if variant != "" {
			line += " " + variant
		}
		if pol == "wsjf" {
			line += " maxweight=4"
		}
		noiseSeed := uint64(i) + 1
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			sc, err := ParseCompact(line)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			plain := runBuilt(t, sc, func(_ *Instance, a sim.Assigner) sim.Assigner { return a })
			noisy := runBuilt(t, sc, func(in *Instance, a sim.Assigner) sim.Assigner {
				return noisyAssigner{Assigner: a, noise: &queryNoise{r: rng.New(noiseSeed), instrument: in.Opts.Instrument}}
			})
			requireSameOutcome(t, line, "queries before each arrival", noisy, plain)

			quiet := runBuilt(t, sc, func(in *Instance, a sim.Assigner) sim.Assigner {
				in.Opts.Observer = func(*sim.Sim) {}
				return a
			})
			observed := runBuilt(t, sc, func(in *Instance, a sim.Assigner) sim.Assigner {
				noise := &queryNoise{r: rng.New(noiseSeed), instrument: in.Opts.Instrument}
				in.Opts.Observer = func(s *sim.Sim) { noise.calls(s.Query()) }
				return a
			})
			requireSameOutcome(t, line, "queries from an Observer", observed, quiet)
		})
	}
}
