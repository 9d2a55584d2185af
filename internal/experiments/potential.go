package experiments

import (
	"treesched/internal/core"
	"treesched/internal/sim"
	"treesched/internal/table"
	"treesched/internal/tree"
)

func init() {
	register(&Experiment{
		ID:    "L3",
		Title: "Potential function dynamics and waiting-time bound",
		Paper: "Lemma 3",
		Run:   runL3,
	})
}

// runL3 validates the Lemma 3 potential empirically on two fronts:
// (a) dynamics — between events with no arrival, Φ_j decreases at
// least at unit rate for every qualifying job; and (b) bound — for a
// one-shot batch (no later arrivals), Φ_j sampled at any instant upper
// bounds the job's actual remaining time to clear its last identical
// node.
func runL3(cfg Config) (*Output, error) {
	out := &Output{}
	tb := table.New("L3 — potential Φ dynamics and bound",
		"eps", "dynamics checks", "dynamics violations", "max excess", "bound samples", "bound violations", "mean Φ/remaining")
	n := cfg.scaled(600)
	var checks, dynViol int64
	samplesAll, boundViolAll, excess := 0, 0, 0.0
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		s := 1 + eps
		t := tree.FatTree(2, 3, 1).WithSpeeds(1, s, s)
		trace := poisson(cfg.rng(2300+uint64(eps*100)), n, classSizes(eps), 1.0, 2)
		chk := &core.PhiDecreaseChecker{Eps: eps, Speed: s}
		if _, err := sim.Run(t, trace, core.NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: chk.Observe}); err != nil {
			return nil, err
		}

		// Bound check on a batch instance (all arrivals at ~0, so the
		// no-future-arrivals hypothesis holds from the first event).
		bt := tree.BroomstickTree(2, 4, 2).WithSpeeds(1, s, s)
		batch := poisson(cfg.rng(2350+uint64(eps*100)), cfg.scaled(60), classSizes(eps), 1000, 2)
		// Compress releases to a burst at t≈0.
		for i := range batch.Jobs {
			batch.Jobs[i].Release = float64(i) * 1e-9
		}
		type sample struct {
			id  int
			t   float64
			phi float64
		}
		var samples []sample
		obs := func(sm *sim.Sim) {
			if sm.Now() < 1e-6 {
				return
			}
			q := sm.Query()
			for _, js := range sm.Tasks() {
				if js.Completed || js.Hop < 1 {
					continue
				}
				samples = append(samples, sample{js.ID, sm.Now(), core.Phi(q, js, eps, s, false)})
			}
		}
		res, err := sim.Run(bt, batch, core.NewGreedyIdentical(eps), sim.Options{Instrument: true, Observer: obs})
		if err != nil {
			return nil, err
		}
		boundViol := 0
		var ratioSum float64
		for _, sp := range samples {
			remaining := res.Jobs[sp.id].Completion - sp.t
			if remaining > sp.phi+1e-6 {
				boundViol++
			}
			if remaining > 0 {
				ratioSum += sp.phi / remaining
			}
		}
		mean := 0.0
		if len(samples) > 0 {
			mean = ratioSum / float64(len(samples))
		}
		tb.AddRow(eps, chk.Checks, chk.Violations, chk.MaxExcess, len(samples), boundViol, mean)
		checks, dynViol, excess = checks+chk.Checks, dynViol+chk.Violations, max(excess, chk.MaxExcess)
		samplesAll, boundViolAll = samplesAll+len(samples), boundViolAll+boundViol
	}
	tb.AddNote("dynamics are checked between arrival-free events, the bound on batch instances (no later arrivals). The mean Φ/remaining column shows how loose the potential is (it carries the (2/eps)·d·p_j safety margin).")
	out.claim(tb, dynViol == 0, "Lemma 3: Φ_j falls at least at unit rate between arrival-free events, at every eps",
		"%d violations in %d interval checks, max excess %.2g", dynViol, checks, excess)
	out.claim(tb, boundViolAll == 0, "Lemma 3: sampled Φ_j bounds the job's true remaining wait on batch instances, at every eps",
		"%d violations in %d samples", boundViolAll, samplesAll)
	out.add(tb)
	return out, nil
}
