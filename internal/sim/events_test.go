package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/tree"
)

// eventTimes is FuzzEventHeap's palette of finish times. It is small,
// so different nodes often share a time and only the node tie-break
// orders them; it holds last-ulp neighbours, the smallest denormal and
// +Inf (a clock overflow), and no negative, −0 or NaN, which no
// deadline can be.
var eventTimes = []float64{
	0, 5e-324, 0.3, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.5,
	2, math.Nextafter(2, 3), 1e15, math.MaxFloat64, math.Inf(1),
}

// eventOps encodes heap operations, each {operation, node, eventTimes
// index}, as FuzzEventHeap decodes them: three bytes each, the first's
// low two bits the operation (0 and 1 set, 2 clear, 3 pop) and its
// high six bits the time index, the next two the node, big-endian.
func eventOps(ops ...[3]int) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(op[0]|op[2]<<2), byte(op[1]>>8), byte(op[1]))
	}
	return b
}

// FuzzEventHeap drives the event heap with set, clear and pop
// operations decoded from the input (its first 256, so each run stays
// cheap enough to minimize), on up to 2,000 nodes, and checks it after
// every operation against a reference map from node to finish time:
// the top is the map's least (time, descending node) found by a scan,
// every entry sits in heap order under that order and is indexed by
// pos, and a removed node's pos reads -1 (every node's, at the end).
func FuzzEventHeap(f *testing.F) {
	const set, clr, pop = 0, 2, 3
	// Equal times on two nodes, the lower node set first: the top
	// must be the higher node (children finish first).
	f.Add(uint16(8), eventOps([3]int{set, 3, 3}, [3]int{set, 5, 3}, [3]int{pop, 0, 0}, [3]int{pop, 0, 0}))
	// Last-ulp neighbours, +Inf, a reschedule later and earlier, and a
	// clear from the middle.
	f.Add(uint16(6), eventOps([3]int{set, 0, 4}, [3]int{set, 1, 3}, [3]int{set, 2, 5}, [3]int{set, 3, 11},
		[3]int{set, 4, 11}, [3]int{set, 1, 11}, [3]int{set, 4, 0}, [3]int{clr, 2, 0}, [3]int{pop, 0, 0},
		[3]int{pop, 0, 0}, [3]int{pop, 0, 0}, [3]int{pop, 0, 0}))
	// Longer pseudo-random programs, sets outnumbering removals so the
	// heap grows a few levels deep.
	r := rng.New(1)
	for _, n := range []int{40, 2000} {
		var ops [][3]int
		for range 256 {
			op := []int{set, set, set, clr, pop}[r.Intn(5)]
			ops = append(ops, [3]int{op, r.Intn(n), r.Intn(len(eventTimes))})
		}
		f.Add(uint16(n), eventOps(ops...))
	}
	f.Fuzz(func(t *testing.T, nodes uint16, prog []byte) {
		n := max(1, int(nodes)%2001)
		var h eventHeap
		h.reset(n)
		ref := make(map[tree.NodeID]float64)
		for k := 0; k+3 <= min(len(prog), 3*256); k += 3 {
			op, at := prog[k]&3, eventTimes[int(prog[k]>>2)%len(eventTimes)]
			v := tree.NodeID((int(prog[k+1])<<8 | int(prog[k+2])) % n)
			switch op {
			case 0, 1:
				h.set(v, at)
				ref[v] = at
			case 2:
				h.clear(v)
				delete(ref, v)
			case 3:
				if len(h.evs) == 0 {
					continue
				}
				v = h.evs[0].node
				h.clear(v)
				delete(ref, v)
			}
			err := checkHeap(&h, ref)
			if _, ok := ref[v]; err == nil && !ok && h.pos[v] != -1 {
				err = fmt.Errorf("removed node %d still indexed at %d", v, h.pos[v])
			}
			if err != nil {
				t.Fatalf("op %d (kind %d, node %d, time %v): %v", k/3, op, v, at, err)
			}
		}
		for v, i := range h.pos {
			if _, ok := ref[tree.NodeID(v)]; ok != (i >= 0) {
				t.Fatalf("at the end, node %d is indexed at %d with an entry %v", v, i, ok)
			}
		}
	})
}

// checkHeap compares h with ref, the finish time of every node with
// an entry, ordering entries by float time, ties by descending node.
func checkHeap(h *eventHeap, ref map[tree.NodeID]float64) error {
	less := func(a, b finishEvent) bool {
		return a.time() < b.time() || (a.time() == b.time() && a.node > b.node)
	}
	if len(h.evs) != len(ref) {
		return fmt.Errorf("heap holds %d entries, want %d", len(h.evs), len(ref))
	}
	top := finishEvent{node: -1}
	for v, at := range ref {
		if ev := (finishEvent{at: math.Float64bits(at), node: v}); top.node < 0 || less(ev, top) {
			top = ev
		}
	}
	if len(ref) > 0 && h.evs[0] != top {
		return fmt.Errorf("top is node %d at %v, want node %d at %v", h.evs[0].node, h.evs[0].time(), top.node, top.time())
	}
	for i, ev := range h.evs {
		if at, ok := ref[ev.node]; !ok || ev.time() != at {
			return fmt.Errorf("entry %d is node %d at %v, want %v (has an entry: %v)", i, ev.node, ev.time(), at, ok)
		}
		if i > 0 && less(ev, h.evs[(i-1)/2]) {
			return fmt.Errorf("entry %d (node %d) sorts before its parent", i, ev.node)
		}
		if int(h.pos[ev.node]) != i {
			return fmt.Errorf("entry %d (node %d) indexed at %d", i, ev.node, h.pos[ev.node])
		}
	}
	return nil
}

// CheckInvariants refuses a finish event that is NaN or before the
// clock: either would break the heap's key order.
func TestCheckEventsRejectsBadDeadline(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	for _, at := range []float64{math.NaN(), 0.5} {
		s := New(tr, Options{})
		if _, err := s.Inject(&Arrival{ID: 0, Release: 0, Size: 4}, tr.Leaves()[0]); err != nil {
			t.Fatal(err)
		}
		s.AdvanceTo(1)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s.events.evs[0].at = math.Float64bits(at)
		err := s.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "is NaN or before now=1") {
			t.Errorf("deadline %v: CheckInvariants returned %v", at, err)
		}
	}
}

// BenchmarkEventHeap times one pop and one push, the heap work of a
// finish, at the live entry counts measured on the repository
// benchmark's engine workloads: about 10 at a pop on sim-deep and
// about 50 on sim-wide.
func BenchmarkEventHeap(b *testing.B) {
	r := rng.New(1)
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = r.Exp(1)
	}
	for _, live := range []int{10, 50} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			var h eventHeap
			h.reset(live)
			for v := range live {
				h.set(tree.NodeID(v), delays[v])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				top := h.evs[0]
				h.clear(top.node)
				h.set(top.node, top.time()+delays[i&1023])
			}
		})
	}
}
