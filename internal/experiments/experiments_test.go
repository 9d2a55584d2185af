package experiments

import "testing"

var quick = Config{Seed: 1, Scale: 0.05}

// Every registered experiment must run, produce at least one artifact,
// and have well-formed tables, and so must the A0 scorecard rendered
// from their claims.
func TestAllExperimentsRun(t *testing.T) {
	exps := All()
	if len(exps) < 18 {
		t.Fatalf("registry has %d experiments, want >= 18", len(exps))
	}
	results := RunAll(exps, quick, 0)
	a0 := Scorecard(results)
	if a0 == nil {
		t.Fatal("no experiment decided a claim")
	}
	for _, rr := range append([]RunResult{*a0}, results...) {
		rr := rr
		t.Run(rr.Exp.ID, func(t *testing.T) {
			if rr.Err != nil {
				t.Fatalf("%s failed: %v", rr.Exp.ID, rr.Err)
			}
			if len(rr.Output.Tables)+len(rr.Output.Texts) == 0 {
				t.Fatalf("%s produced no artifacts", rr.Exp.ID)
			}
			for _, tb := range rr.Output.Tables {
				if len(tb.Headers) == 0 {
					t.Fatalf("%s: table %q has no headers", rr.Exp.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Fatalf("%s: table %q row width %d != headers %d", rr.Exp.ID, tb.Title, len(row), len(tb.Headers))
					}
				}
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: table %q is empty", rr.Exp.ID, tb.Title)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("T1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// requireClaims runs the named experiments (the whole suite when none
// is named) at cfg and fails t on every claim that does not hold. A
// named experiment must decide at least one claim.
func requireClaims(t *testing.T, cfg Config, ids ...string) []RunResult {
	t.Helper()
	exps := All()
	if len(ids) > 0 {
		exps = nil
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
	}
	results := RunAll(exps, cfg, 0)
	for _, rr := range results {
		if rr.Err != nil {
			t.Fatalf("%s: %v", rr.Exp.ID, rr.Err)
		}
		if len(ids) > 0 && len(rr.Output.Claims) == 0 {
			t.Fatalf("%s decided no claim", rr.Exp.ID)
		}
		for _, c := range rr.Output.Claims {
			if !c.Holds {
				t.Errorf("%s at seed %d, scale %g: %s", rr.Exp.ID, cfg.Seed, cfg.Scale, c)
			}
		}
	}
	return results
}

// L1 and L2: zero violations of Lemmas 1 and 2.
func TestLemmaExperimentsZeroViolations(t *testing.T) {
	requireClaims(t, Config{Seed: 2, Scale: 0.1}, "L1", "L2")
}

// B1: ClosestLeaf must be far worse than the greedy rule.
func TestB1GreedyBeatsClosest(t *testing.T) {
	requireClaims(t, Config{Seed: 3, Scale: 0.2}, "B1")
}

// T3: the integral flow dominates the fractional flow, and the gap
// stays within Theorem 3's O(1/eps) envelope at every eps.
func TestT3GapWithinTheorem3Envelope(t *testing.T) {
	requireClaims(t, Config{Seed: 4, Scale: 0.2}, "T3")
}

// B3: flow must not rise with speed.
func TestB3Monotone(t *testing.T) {
	requireClaims(t, Config{Seed: 5, Scale: 0.2}, "B3")
}

// B6: packetized must not be slower than store-and-forward.
func TestB6PacketizedWins(t *testing.T) {
	requireClaims(t, Config{Seed: 6, Scale: 0.2}, "B6")
}

// RunAll must produce the same outputs as sequential execution, in
// input order, regardless of parallelism.
func TestRunAllMatchesSequential(t *testing.T) {
	ids := []string{"F1", "F2", "LP1", "T3"}
	var exps []*Experiment
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	cfg := Config{Seed: 9, Scale: 0.05}
	par := RunAll(exps, cfg, 4)
	seq := RunAll(exps, cfg, 1)
	if len(par) != len(ids) {
		t.Fatalf("results = %d", len(par))
	}
	for i := range par {
		if par[i].Err != nil || seq[i].Err != nil {
			t.Fatalf("errors: %v / %v", par[i].Err, seq[i].Err)
		}
		if par[i].Exp.ID != ids[i] {
			t.Fatalf("order changed: %s at %d", par[i].Exp.ID, i)
		}
		a, b := par[i].Output.Tables, seq[i].Output.Tables
		if len(a) != len(b) {
			t.Fatalf("%s: table counts differ", ids[i])
		}
		for ti := range a {
			if a[ti].Text() != b[ti].Text() {
				t.Fatalf("%s: table %d differs between parallel and sequential", ids[i], ti)
			}
		}
	}
}

// runSafe must convert panics into errors.
func TestRunSafeRecovers(t *testing.T) {
	e := &Experiment{ID: "PANIC", Title: "panics", Paper: "-", Run: func(Config) (*Output, error) {
		panic("boom")
	}}
	res := RunAll([]*Experiment{e}, Config{}, 1)
	if res[0].Err == nil {
		t.Fatal("panic not converted to error")
	}
}

// D1 must certify: zero dual violations at every eps.
func TestD1Feasible(t *testing.T) {
	requireClaims(t, Config{Seed: 8, Scale: 0.1}, "D1")
}

// L3: zero violations of the potential's dynamics and of its bound.
func TestL3ZeroViolations(t *testing.T) {
	requireClaims(t, Config{Seed: 8, Scale: 0.1}, "L3")
}

// X3: WSJF must beat SJF on the weighted objective.
func TestX3WSJFWins(t *testing.T) {
	requireClaims(t, Config{Seed: 8, Scale: 0.2}, "X3")
}

// The scorecard must be all-PASS. Its rows are the claims of the
// experiments that own the checks A0 once re-ran in miniature.
func TestA0AllPass(t *testing.T) {
	results := requireClaims(t, Config{Seed: 2, Scale: 0.2}, "L1", "L2", "L3", "L8", "D1", "LP1", "T1")
	claims := 0
	for _, rr := range results {
		claims += len(rr.Output.Claims)
	}
	a0 := Scorecard(results)
	if a0 == nil || len(a0.Output.Tables[0].Rows) != claims {
		t.Fatalf("scorecard does not list the run's %d claims", claims)
	}
}

// Every claim of the suite holds at seeds 1-5 at scale 1, the scale
// EXPERIMENTS.md states its claims at.
func TestClaimsHoldAtSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite five times")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		requireClaims(t, Config{Seed: seed, Scale: 1})
	}
}
