package sim

import (
	"fmt"
	"math"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
)

// boundProbe is RootWorkBound's check state for one engine: the
// lexicographic maximum (release, ID) of the tasks the driver injected,
// and how many probes certified a positive bound over a busy root.
type boundProbe struct {
	t        *testing.T
	s        *Sim
	injected bool
	lastRel  float64
	lastID   int
	busy     int
}

// follows reports whether a probe (release, id) follows every injected
// task in (release, ID) order.
func (b *boundProbe) follows(release float64, id int) bool {
	return !b.injected || release > b.lastRel || release == b.lastRel && id >= b.lastID
}

// noteInjected raises the maximum before the task is injected (the
// engine's Observer runs inside Inject).
func (b *boundProbe) noteInjected(release float64, id int) {
	if !b.follows(release, id) {
		b.t.Fatalf("driver injected (%v, %d) out of order", release, id)
	}
	b.injected, b.lastRel, b.lastID = true, release, id
}

// check holds RootWorkBound to its contract for the probe (release,
// id): no bound under processor sharing, with faults or for a probe
// that does not follow every injected task, and otherwise every busy
// root-adjacent node runs a task that has at least the bound left, and
// every task on a root-adjacent node precedes the probe.
func (b *boundProbe) check(release float64, id int) {
	t, s := b.t, b.s
	t.Helper()
	w := s.Query().RootWorkBound(release, id)
	at := func() string {
		top := math.NaN()
		if len(s.events.evs) > 0 {
			top = s.events.evs[0].time()
		}
		return fmt.Sprintf("t=%v (heap top %v, %d active), probe (%v, %d), bound %v", s.now, top, s.activeTasks, release, id, w)
	}
	if w > 0 && (s.ps || s.opts.Faults != nil || !b.follows(release, id)) {
		t.Fatalf("%s: certified under processor sharing, faults or for an out-of-order probe", at())
	}
	if !(w > 0) {
		return
	}
	for _, v := range s.tree.RootAdjacent() {
		n := &s.nodes[v]
		for _, js := range n.avail.tasks() {
			if !(js.Release < release || js.Release == release && js.ID <= id) {
				t.Fatalf("%s: task (%v, %d) on root %d does not precede the probe", at(), js.Release, js.ID, v)
			}
		}
		if n.running == nil {
			if n.avail.len() > 0 {
				t.Fatalf("%s: root %d holds %d tasks but runs none", at(), v, n.avail.len())
			}
			continue
		}
		b.busy++
		if rho := s.remainingAt(n, n.running); rho < w {
			t.Fatalf("%s: root %d's running task has %v left (%v below the bound)", at(), v, rho, w-rho)
		}
	}
}

// probes checks the probe (release, id) and two that do not follow the
// injected maximum: its own ID minus one, and a release an ulp before.
func (b *boundProbe) probes(release float64, id int) {
	b.t.Helper()
	b.check(release, id)
	if b.injected {
		b.check(b.lastRel, b.lastID-1)
		b.check(math.Nextafter(b.lastRel, math.Inf(-1)), id+100)
	}
}

// The property-test palettes: release gaps (2^-13 + 2^-30 makes a sync
// of a task near 2^40 units round its remainder down by almost half an
// ulp), sizes from 2^-30 to 2^40 (packetized runs take the small ones,
// one packet per unit), per-node speeds and clock offsets.
var (
	boundGaps    = [...]float64{0, 0x1p-30, 0x1p-13 + 0x1p-30, 0.25, 1, 3}
	boundSizes   = [...]float64{0x1p-30, 0x1p-10, 0.5, 1, 3, 0x1p20, 0x1p40, 0x1p40 + 1}
	boundSpeeds  = [...]float64{0.25, 1, 1.5, 3}
	boundOffsets = [...]float64{0, 0x1p20, 0x1p40, 0x1p40 + 0.5}
)

// runBoundCase decodes one engine run from draw (draw(n) returns a
// value in [0, n)) and checks RootWorkBound before every arrival and
// from an Observer at every event: a tree (fat trees, a caterpillar,
// or three branches with per-node speeds), a policy (SJF, SRPT, FIFO,
// LCFS, WSJF or PS), whole or packetized jobs, sometimes a brown-out
// or an outage, a clock offset, then steps arrivals, each released
// after a gap, an ulp or two before the heap top, at it, or partway to
// it, and sent to a random leaf or to the previous job's, so long
// tasks collect pushes behind them. It returns the number of busy
// roots checked under a positive bound.
func runBoundCase(t *testing.T, draw func(n int) int, steps int) int {
	t.Helper()
	var tr *tree.Tree
	switch draw(4) {
	case 0:
		tr = tree.FatTree(3, 1, 2)
	case 1:
		tr = tree.FatTree(2, 2, 2).WithUniformSpeed(1.5)
	case 2:
		tr = tree.Caterpillar(3, 2)
	default:
		b := tree.NewBuilder()
		for i := 0; i < 3; i++ {
			r := b.AddRouter(b.Root())
			b.SetSpeed(r, boundSpeeds[draw(len(boundSpeeds))])
			for k := 0; k < 2; k++ {
				b.SetSpeed(b.AddLeaf(r), boundSpeeds[draw(len(boundSpeeds))])
			}
		}
		tr = b.MustFinalize()
	}
	policies := [...]Policy{SJF{}, SRPT{}, FIFO{}, LCFS{}, WSJF{}, PS{}}
	opts := Options{Policy: policies[draw(len(policies))]}
	packetized := draw(4) == 0
	offset := boundOffsets[draw(len(boundOffsets))]
	if draw(5) == 0 {
		e := faults.Event{Kind: faults.Outage, Node: tr.RootAdjacent()[draw(len(tr.RootAdjacent()))], Start: offset + 1, End: offset + 4}
		if draw(2) == 0 {
			e.Kind, e.Factor = faults.Brownout, 0.5
		}
		opts.Faults = compile(t, tr, e)
	}
	b := &boundProbe{t: t}
	id := 0
	opts.Observer = func(s *Sim) { b.check(s.now, id) }
	s := New(tr, opts)
	b.s = s
	leaves := tr.Leaves()
	leaf := leaves[0]
	now := offset
	for ; id < steps; id++ {
		rel := now
		top := math.Inf(1)
		if len(s.events.evs) > 0 {
			top = s.events.evs[0].time()
		}
		switch mode := draw(8); {
		case mode < 4 || math.IsInf(top, 1):
			rel += boundGaps[draw(len(boundGaps))]
		case mode < 6:
			rel = top
			for k := draw(3); k > 0; k-- {
				rel = math.Nextafter(rel, 0)
			}
		case mode == 6:
			rel = top
		default:
			rel += (top - rel) * [...]float64{0.5, 1 - 0x1p-30, 1 - 0x1p-45}[draw(3)]
		}
		rel = max(rel, now)
		size := boundSizes[draw(len(boundSizes))]
		if packetized {
			size = boundSizes[draw(5)]
		}
		if draw(2) == 0 {
			leaf = leaves[draw(len(leaves))]
		}
		s.AdvanceTo(rel)
		now = s.now
		b.probes(rel, id)
		b.noteInjected(rel, id)
		a := &Arrival{ID: id, Release: rel, Size: size, Weight: float64(1 + draw(3))}
		var err error
		if packetized {
			err = s.injectPackets(a, leaf)
		} else {
			_, err = s.Inject(a, leaf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return b.busy
}

// TestRootWorkBound runs 120 decoded cases of 150 arrivals each and
// holds RootWorkBound to its contract before every arrival and at
// every event: under SJF, SRPT, FIFO, LCFS and WSJF, whole and
// packetized, with related speeds, sizes from 2^-30 to 2^40, clocks
// near 2^40 and arrivals within an ulp of the next finish, every busy
// root's running task has at least the bound left; processor sharing,
// brown-outs, outages and probes that do not follow an injected task
// get no bound.
func TestRootWorkBound(t *testing.T) {
	busy := 0
	for i := 0; i < 120; i++ {
		r := rng.New(uint64(i) + 3400)
		busy += runBoundCase(t, r.Intn, 150)
	}
	if busy < 10000 {
		t.Fatalf("only %d busy roots were checked under a positive bound", busy)
	}
}

// FuzzRootWorkBound is TestRootWorkBound's check on fuzzed cases: one
// byte per draw, 0 past the end of the input.
func FuzzRootWorkBound(f *testing.F) {
	for k := uint64(1); k <= 4; k++ {
		r := rng.New(k + 77)
		data := make([]byte, 512)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			x := int(data[0])
			data = data[1:]
			return x % n
		}
		runBoundCase(t, draw, 80)
	})
}

// A task near 2^40 units, with 2^-13 + 2^-30 of work done between
// consecutive pushes behind it, loses almost half an ulp to rounding at
// every sync, so its computed remainder falls below s·(t_f − t) by far
// more than one sync's share of slack: the bound must count the syncs.
// FIFO keeps every push behind the running task.
func TestRootWorkBoundCountsSyncs(t *testing.T) {
	const m = 60
	tr := tree.FatTree(2, 1, 1)
	leaf := tr.Leaves()[0]
	s := New(tr, Options{Policy: FIFO{}})
	if _, err := s.Inject(&Arrival{ID: 0, Release: 0, Size: 0x1p40 + 1}, leaf); err != nil {
		t.Fatal(err)
	}
	const gap = 0x1p-13 + 0x1p-30
	for i := 1; i <= m; i++ {
		s.AdvanceTo(float64(i) * gap)
		if _, err := s.Inject(&Arrival{ID: i, Release: s.Now(), Size: 0x1p-60}, leaf); err != nil {
			t.Fatal(err)
		}
	}
	n := &s.nodes[tr.RootAdjacent()[0]]
	top := s.events.evs[0].time()
	// Right after the last push, and once the computed work has run out
	// while the finish event is still 2^-8 away.
	for _, at := range []float64{s.Now(), top - 0x1p-8} {
		s.AdvanceTo(at)
		rho := s.remainingAt(n, n.running)
		if slack := top - s.now - rho; slack < 4*0x1p-51*top {
			t.Fatalf("t=%v: setup: the remainder %v is only %v below t_f − t; want more than a sync-free slack", s.now, rho, slack)
		}
		if w := s.Query().RootWorkBound(s.now, m+1); rho < w {
			t.Fatalf("t=%v: %v left after %d syncs, below the bound %v", s.now, rho, m, w)
		}
	}
}
