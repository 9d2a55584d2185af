package core

import (
	"treesched/internal/sim"
)

// Lemma1Report summarizes the Lemma 1 check: after leaving its
// root-adjacent node, a job spends at most (6/ε²)·p_j·d_v time
// finishing all remaining identical nodes.
type Lemma1Report struct {
	// Jobs is the number of jobs with at least one post-root identical
	// node (jobs at depth-2 leaves in the unrelated setting have none
	// and are skipped).
	Jobs int
	// MaxRatio is max_j (observed wait)/((6/ε²)·p_j·d_v); the lemma
	// asserts MaxRatio ≤ 1 under its speed assumptions.
	MaxRatio float64
	// MeanRatio indicates how much slack the bound typically has.
	MeanRatio float64
	// Violations counts jobs exceeding the bound.
	Violations int
}

// CheckLemma1 evaluates the Lemma 1 bound on a completed instrumented
// run. eps is the ε of the speed assumption (non-root-adjacent nodes
// run at ≥ 1+ε); unrelated excludes the leaf from the identical nodes.
func CheckLemma1(res *sim.Result, eps float64, unrelated bool) Lemma1Report {
	rep := Lemma1Report{}
	var sum float64
	t := res.Sim.Tree()
	tasks := res.Sim.Tasks()
	if len(tasks) < len(res.Jobs) {
		// The engine recycled its task state at completion.
		panic("core: CheckLemma1 requires an instrumented run")
	}
	for _, js := range tasks {
		if js.HopComplete == nil {
			panic("core: CheckLemma1 requires an instrumented run")
		}
		last := len(js.Path) - 1
		if unrelated {
			last-- // final identical node is the last router
		}
		// Need at least one identical node after the root-adjacent one.
		if last < 1 {
			continue
		}
		rep.Jobs++
		// r'_j: first available on a node not adjacent to the root.
		rPrime := js.HopArrive[1]
		cPrime := js.HopComplete[last]
		bound := InteriorWaitBound(eps, js.RouterSize, t.Depth(js.Leaf))
		ratio := (cPrime - rPrime) / bound
		sum += ratio
		if ratio > rep.MaxRatio {
			rep.MaxRatio = ratio
		}
		if ratio > 1+1e-9 {
			rep.Violations++
		}
	}
	if rep.Jobs > 0 {
		rep.MeanRatio = sum / float64(rep.Jobs)
	}
	return rep
}

// Lemma2Checker verifies the Lemma 2 invariant at every engine event:
// for every active job j and every identical, non-root-adjacent node v
// that j still needs, the remaining volume of higher-priority jobs
// *currently available* on v is at most (2/ε)·p_j.
//
// Install via sim.Options.Observer. The engine must be instrumented.
// The lemma's assumptions: SJF everywhere, job sizes powers of (1+ε),
// root-adjacent nodes at speed ≤ s, and every other node at speed
// s ≥ 1+ε.
type Lemma2Checker struct {
	Eps float64
	// Unrelated excludes leaves from the identical-node check.
	Unrelated bool
	// MaxRatio tracks the largest observed volume/bound ratio.
	MaxRatio float64
	// Checks counts individual (job, node) evaluations.
	Checks int64
	// Violations counts bound breaches.
	Violations int64
	// SampleStride checks only every k-th event (1 = all); the checker
	// is O(active·depth·queue) per event, so sampling keeps big runs
	// tractable.
	SampleStride int
	events       int64
}

// Observe implements the engine observer callback.
func (c *Lemma2Checker) Observe(s *sim.Sim) {
	c.events++
	if c.SampleStride > 1 && c.events%int64(c.SampleStride) != 0 {
		return
	}
	q := s.Query()
	t := s.Tree()
	for _, js := range s.Tasks() {
		if js.Completed {
			continue
		}
		last := len(js.Path)
		if c.Unrelated {
			last--
		}
		for idx := js.Hop; idx < last; idx++ {
			v := js.Path[idx]
			if t.Depth(v) == 1 {
				continue // lemma excludes nodes adjacent to the root
			}
			// Volume of higher-priority jobs available on v
			// (S_{v,j}(t) \ Q_{ρ(v)}(t)). For an already-injected job,
			// AvailVolumeHigher includes js itself whenever js is
			// available on v (equal IDs compare ahead of the probe),
			// so S's "includes J_j" clause needs no extra term.
			vol := q.AvailVolumeHigher(v, q.PrioSizeOn(js, v), js.Release, js.ID)
			ratio := vol / MaxQueueVolumeBound(c.Eps, js.RouterSize)
			c.Checks++
			if ratio > c.MaxRatio {
				c.MaxRatio = ratio
			}
			if ratio > 1+1e-9 {
				c.Violations++
			}
		}
	}
}

// Lemma8Report summarizes the per-job domination check of Lemma 8:
// with the Shadow algorithm, every job's flow time on the real tree is
// at most its flow time on the broomstick.
type Lemma8Report struct {
	Jobs        int
	Violations  int
	MeanRatio   float64 // mean flow(T)/flow(T'), ≤ 1 when the lemma holds
	MaxRatio    float64
	TotalFlowT  float64
	TotalFlowT2 float64 // total flow on the broomstick T'
}

// CheckLemma8 compares a completed primary run (on T, driven by sh)
// against sh's broomstick run. Call sh.Finish() first.
func CheckLemma8(res *sim.Result, sh *Shadow) Lemma8Report {
	rep := Lemma8Report{}
	inner := make(map[int]float64, len(res.Jobs))
	for _, m := range sh.InnerRecords() {
		if m.Weight != 0 { // completed
			inner[m.ID] = m.Completion
		}
	}
	var sum float64
	for i := range res.Jobs {
		m := &res.Jobs[i]
		ic, ok := inner[m.ID]
		if !ok {
			continue
		}
		rep.Jobs++
		flowT := m.Flow
		flowT2 := ic - m.Release
		rep.TotalFlowT += flowT
		rep.TotalFlowT2 += flowT2
		ratio := flowT / flowT2
		sum += ratio
		if ratio > rep.MaxRatio {
			rep.MaxRatio = ratio
		}
		if flowT > flowT2+1e-6 {
			rep.Violations++
		}
	}
	if rep.Jobs > 0 {
		rep.MeanRatio = sum / float64(rep.Jobs)
	}
	return rep
}

// PhiDecreaseChecker validates the dynamics proven in Lemma 3: for a
// job available on a node not adjacent to the root, while no new jobs
// arrive, the potential Φ_j decreases at least at unit rate (so
// Φ_j(t₁) ≤ Φ_j(t₀) − (t₁ − t₀)). Install via sim.Options.Observer on
// an instrumented engine; it samples Φ for all qualifying active jobs
// at every event and compares consecutive samples, skipping any
// interval that contains an arrival (arrivals may legitimately raise
// Φ).
type PhiDecreaseChecker struct {
	Eps, Speed float64
	Unrelated  bool
	// Tolerance absorbs floating-point slack.
	Tolerance float64

	prev       map[int]float64
	prevT      float64
	prevInject int64
	Checks     int64
	Violations int64
	MaxExcess  float64
}

// Observe implements the engine observer callback.
func (c *PhiDecreaseChecker) Observe(s *sim.Sim) {
	q := s.Query()
	cur := make(map[int]float64)
	injected := int64(len(s.Tasks()))
	for _, js := range s.Tasks() {
		// Lemma 3's precondition: available on a node not adjacent to
		// the root, and (in the unrelated setting) not yet on the leaf.
		if js.Completed || js.Hop < 1 {
			continue
		}
		if c.Unrelated && js.Hop >= len(js.Path)-1 {
			continue
		}
		cur[js.ID] = Phi(q, js, c.Eps, c.Speed, c.Unrelated)
	}
	if c.prev != nil && injected == c.prevInject {
		dt := s.Now() - c.prevT
		for id, p0 := range c.prev {
			p1, ok := cur[id]
			if !ok {
				continue // completed (or crossed into the leaf) in between
			}
			excess := p1 - (p0 - dt)
			if excess > c.MaxExcess {
				c.MaxExcess = excess
			}
			c.Checks++
			if excess > c.Tolerance+1e-6 {
				c.Violations++
			}
		}
	}
	c.prev, c.prevT, c.prevInject = cur, s.Now(), injected
}

// MaxQueueVolumeBound returns (2/ε)·p, the Lemma 2 bound for a job of
// router size p, which Lemma2Checker checks.
func MaxQueueVolumeBound(eps, p float64) float64 { return 2 / eps * p }

// InteriorWaitBound returns (6/ε²)·p·d, the Lemma 1 bound for a job of
// router size p whose leaf is at depth d, which CheckLemma1 checks.
func InteriorWaitBound(eps, p float64, d int) float64 {
	return 6 / (eps * eps) * p * float64(d)
}
