package metrics

import (
	"treesched/internal/sim"
	"treesched/internal/tree"
)

// QueueSampler is an engine observer that records per-node queue
// lengths (number of available jobs) at every event, yielding
// time-weighted queue statistics. Install via sim.Options.Observer;
// combine with other observers by chaining.
type QueueSampler struct {
	lastT float64
	// time-weighted accumulation per node
	weighted map[tree.NodeID]float64
	maxLen   map[tree.NodeID]int
	lastLen  map[tree.NodeID]int
	total    float64
	started  bool
}

// NewQueueSampler creates an empty sampler.
func NewQueueSampler() *QueueSampler {
	return &QueueSampler{
		weighted: make(map[tree.NodeID]float64),
		maxLen:   make(map[tree.NodeID]int),
		lastLen:  make(map[tree.NodeID]int),
	}
}

// Observe implements the engine observer callback.
func (qs *QueueSampler) Observe(s *sim.Sim) {
	now := s.Now()
	if qs.started {
		dt := now - qs.lastT
		if dt > 0 {
			for v, l := range qs.lastLen {
				qs.weighted[v] += float64(l) * dt
			}
			qs.total += dt
		}
	}
	q := s.Query()
	t := s.Tree()
	for v := tree.NodeID(1); int(v) < t.NumNodes(); v++ {
		l := q.AvailCount(v)
		qs.lastLen[v] = l
		if l > qs.maxLen[v] {
			qs.maxLen[v] = l
		}
	}
	qs.lastT = now
	qs.started = true
}

// QueueStat is the time-averaged and maximum queue length of one node.
type QueueStat struct {
	Node tree.NodeID
	Avg  float64
	Max  int
}

// Stats returns per-node queue statistics, ordered by node ID.
func (qs *QueueSampler) Stats() []QueueStat {
	out := make([]QueueStat, 0, len(qs.weighted))
	ids := make([]tree.NodeID, 0, len(qs.lastLen))
	for v := range qs.lastLen {
		ids = append(ids, v)
	}
	// insertion sort: node counts are small
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, v := range ids {
		st := QueueStat{Node: v, Max: qs.maxLen[v]}
		if qs.total > 0 {
			st.Avg = qs.weighted[v] / qs.total
		}
		out = append(out, st)
	}
	return out
}

// Hottest returns the node with the highest time-averaged queue.
func (qs *QueueSampler) Hottest() QueueStat {
	all := qs.Stats()
	if len(all) == 0 {
		return QueueStat{Node: tree.None}
	}
	best := all[0]
	for _, s := range all[1:] {
		if s.Avg > best.Avg {
			best = s
		}
	}
	return best
}
