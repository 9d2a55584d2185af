package experiments

import (
	"treesched/internal/scenario"
	"treesched/internal/table"
)

func init() {
	register(&Experiment{
		ID:    "R1",
		Title: "Graceful degradation under deterministic fault injection",
		Paper: "(robustness extension; speed profiles from Theorems 1-2)",
		Run:   runR1,
	})
}

// runR1 measures how total flow degrades as fault intensity grows, at
// the speed levels the theorems care about (1, 1+eps, 2+eps). Every
// cell runs with Instrument+RecordSlices, so Drain re-audits the
// recorded schedule against the fault-adjusted speed budgets — a cell
// only reaches its table row if the conformance auditor passed.
func runR1(cfg Config) (*Output, error) {
	out := &Output{}
	n := cfg.scaled(800)
	const eps = 0.5

	// Transient outages, hold recovery: jobs stall where they are and
	// the stall is charged to flow time.
	policies := []string{"sjf", "fifo", "srpt"}
	speeds := []float64{1, 1 + eps, 2 + eps}
	intensities := []int{0, 6, 24}
	type cell struct {
		policy    string
		speed     float64
		outages   int
		flow      float64
		completed int
	}
	idx := func(pi, si, ii int) int { return (pi*len(speeds)+si)*len(intensities) + ii }
	cells, err := Sweep(cfg, len(policies)*len(speeds)*len(intensities), func(i int) (cell, error) {
		ii := i % len(intensities)
		si := (i / len(intensities)) % len(speeds)
		pi := i / (len(intensities) * len(speeds))
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: eps, Load: 0.8},
			Policy:   policies[pi],
			Eps:      eps,
			Seed:     cfg.seed(7000 + uint64(si)*10 + uint64(ii)),
			Speed:    scenario.Speed{Uniform: speeds[si]},
			Engine:   scenario.Engine{Instrument: true, RecordSlices: true},
		}
		if k := intensities[ii]; k > 0 {
			sc.Faults = &scenario.FaultSpec{
				Plan:     scenario.NewSpec("outages", float64(k), 50),
				Recovery: "hold",
			}
		}
		res, err := scenario.Run(sc)
		if err != nil {
			return cell{}, err
		}
		return cell{policies[pi], speeds[si], intensities[ii], res.Stats.TotalFlow, res.Stats.Completed}, nil
	})
	if err != nil {
		return nil, err
	}
	tb := table.New("R1 — total flow vs outage intensity (hold recovery, audited)",
		"policy", "speed", "outages", "completed", "flow", "vs fault-free")
	for pi := range policies {
		for si := range speeds {
			base := cells[idx(pi, si, 0)].flow
			for ii := range intensities {
				c := cells[idx(pi, si, ii)]
				tb.AddRow(c.policy, c.speed, c.outages, c.completed, c.flow, c.flow/base)
			}
		}
	}
	// Policies 0 and 1 are SJF and FIFO; both cells of a pair run one trace.
	sjfLead := 0.0
	for si := range speeds {
		for ii := range intensities {
			sjfLead = max(sjfLead, cells[idx(0, si, ii)].flow/cells[idx(1, si, ii)].flow)
		}
	}
	tb.AddNote("each outage silences one non-root node for 50 time units; each outage count draws its own trace, so 'vs fault-free' compares different traces (DESIGN §7)")
	out.claim(tb, sjfLead < 1, "SJF keeps its lead over FIFO at every speed and outage count",
		"largest SJF/FIFO flow %.4g", sjfLead)
	out.add(tb)

	// Permanent leaf loss, redispatch recovery: assigned work restarts
	// on a surviving leaf, recorded as migrations and audited as such.
	losses := []int{1, 2, 4}
	type lossCell struct {
		speed      float64
		lost       int
		flow       float64
		completed  int
		migrations int
	}
	lcells, err := Sweep(cfg, len(speeds)*len(losses), func(i int) (lossCell, error) {
		li := i % len(losses)
		si := i / len(losses)
		sc := &scenario.Scenario{
			Topology: scenario.NewSpec("fattree", 2, 2, 2),
			Workload: scenario.Workload{N: n, Size: scenario.NewSpec("uniform", 1, 16), ClassEps: eps, Load: 0.8},
			Eps:      eps,
			Seed:     cfg.seed(7100 + uint64(si)*10 + uint64(li)),
			Speed:    scenario.Speed{Uniform: speeds[si]},
			Faults: &scenario.FaultSpec{
				Plan:     scenario.NewSpec("leafloss", float64(losses[li]), 0.3),
				Recovery: "redispatch",
			},
			Engine: scenario.Engine{Instrument: true, RecordSlices: true},
		}
		in, err := sc.Build()
		if err != nil {
			return lossCell{}, err
		}
		res, err := in.Run()
		if err != nil {
			return lossCell{}, err
		}
		return lossCell{speeds[si], losses[li], res.Stats.TotalFlow, res.Stats.Completed,
			len(res.Sim.Migrations())}, nil
	})
	if err != nil {
		return nil, err
	}
	tb2 := table.New("R1 — permanent leaf loss with redispatch (SJF, audited)",
		"speed", "leaves lost", "completed", "flow", "migrations")
	complete := 0
	for _, c := range lcells {
		tb2.AddRow(c.speed, c.lost, c.completed, c.flow, c.migrations)
		if c.completed == n {
			complete++
		}
	}
	tb2.AddNote("losing leaves at t = 0.3*span restarts their assigned jobs on survivors (work done so far is lost), and the auditor verifies each recorded migration")
	out.claim(tb2, complete == len(lcells), "every job still completes after leaf loss",
		"%d of %d cells complete all %d jobs", complete, len(lcells), n)
	out.add(tb2)
	return out, nil
}
