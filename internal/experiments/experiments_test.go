package experiments

import (
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Seed: 1, Scale: 0.05}

// Every registered experiment must run, produce at least one artifact,
// and have well-formed tables.
func TestAllExperimentsRun(t *testing.T) {
	exps := All()
	if len(exps) < 18 {
		t.Fatalf("registry has %d experiments, want >= 18", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(quick)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(out.Tables)+len(out.Texts) == 0 {
				t.Fatalf("%s produced no artifacts", e.ID)
			}
			for _, tb := range out.Tables {
				if len(tb.Headers) == 0 {
					t.Fatalf("%s: table %q has no headers", e.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Fatalf("%s: table %q row width %d != headers %d", e.ID, tb.Title, len(row), len(tb.Headers))
					}
				}
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: table %q is empty", e.ID, tb.Title)
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

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}

// Shape assertion for L1/L2: zero violations at modest scale.
func TestLemmaExperimentsZeroViolations(t *testing.T) {
	for _, id := range []string{"L1", "L2"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(Config{Seed: 2, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		tb := out.Tables[0]
		violCol := len(tb.Headers) - 1
		for _, row := range tb.Rows {
			if v := cellFloat(t, row[violCol]); v != 0 {
				t.Fatalf("%s: row %v has %v violations", id, row, v)
			}
		}
	}
}

// Shape assertion for B1: ClosestLeaf must be far worse than the
// greedy rule at high load.
func TestB1GreedyBeatsClosest(t *testing.T) {
	e, _ := ByID("B1")
	out, err := e.Run(Config{Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	var greedy95, closest95 float64
	for _, row := range tb.Rows {
		switch {
		case strings.Contains(row[0], "Greedy"):
			greedy95 = cellFloat(t, row[3])
		case strings.Contains(row[0], "Closest"):
			closest95 = cellFloat(t, row[3])
		}
	}
	if greedy95 <= 0 || closest95 <= 0 {
		t.Fatalf("missing rows in B1 table:\n%s", tb.Text())
	}
	if closest95 < 2*greedy95 {
		t.Fatalf("ClosestLeaf (%v) should collapse vs greedy (%v) at load 0.95", closest95, greedy95)
	}
}

// Shape assertion for T3: the integral flow always dominates the
// fractional flow, and the gap stays within Theorem 3's O(1/eps)
// envelope (with generous constant) at every eps.
func TestT3GapWithinTheorem3Envelope(t *testing.T) {
	e, _ := ByID("T3")
	out, err := e.Run(Config{Seed: 4, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	for _, row := range tb.Rows {
		eps := cellFloat(t, row[0])
		ratio := cellFloat(t, row[4])
		if ratio < 1-1e-9 {
			t.Fatalf("integral flow below fractional at eps=%v (ratio %v)", eps, ratio)
		}
		if ratio > 1+4/eps {
			t.Fatalf("integral/fractional gap %v exceeds O(1/eps) envelope at eps=%v", ratio, eps)
		}
	}
}

// B3: flow must be non-increasing in speed.
func TestB3Monotone(t *testing.T) {
	e, _ := ByID("B3")
	out, err := e.Run(Config{Seed: 5, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	prev := cellFloat(t, tb.Rows[0][1])
	for _, row := range tb.Rows[1:] {
		cur := cellFloat(t, row[1])
		if cur > prev*1.02 { // small tolerance: different speeds shift assignment decisions
			t.Fatalf("identical flow increased with speed: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

// B6: packetized must not be slower than store-and-forward on a line.
func TestB6PacketizedWins(t *testing.T) {
	e, _ := ByID("B6")
	out, err := e.Run(Config{Seed: 6, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	for _, row := range tb.Rows {
		ratio := cellFloat(t, row[3])
		if ratio < 1-1e-9 {
			t.Fatalf("store-and-forward beat packetized on %s (ratio %v)", row[0], ratio)
		}
	}
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
	e, _ := ByID("D1")
	out, err := e.Run(Config{Seed: 8, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	for _, row := range tb.Rows {
		if cellFloat(t, row[2]) != 0 || cellFloat(t, row[3]) != 0 {
			t.Fatalf("dual violations in row %v", row)
		}
		if cellFloat(t, row[7]) <= 0 {
			t.Fatalf("no certified bound in row %v", row)
		}
	}
}

// L3 must report zero violations in both columns.
func TestL3ZeroViolations(t *testing.T) {
	e, _ := ByID("L3")
	out, err := e.Run(Config{Seed: 8, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	for _, row := range tb.Rows {
		if cellFloat(t, row[2]) != 0 {
			t.Fatalf("Φ dynamics violations in row %v", row)
		}
		if cellFloat(t, row[5]) != 0 {
			t.Fatalf("Φ bound violations in row %v", row)
		}
	}
}

// X3: WSJF must beat SJF on the weighted objective.
func TestX3WSJFWins(t *testing.T) {
	e, _ := ByID("X3")
	out, err := e.Run(Config{Seed: 8, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	var wsjf, sjf float64
	for _, row := range tb.Rows {
		switch row[0] {
		case "WSJF":
			wsjf = cellFloat(t, row[1])
		case "SJF":
			sjf = cellFloat(t, row[1])
		}
	}
	if wsjf <= 0 || sjf <= 0 || wsjf >= sjf {
		t.Fatalf("WSJF weighted flow %v did not beat SJF %v", wsjf, sjf)
	}
}

// The scorecard must be all-PASS.
func TestA0AllPass(t *testing.T) {
	e, _ := ByID("A0")
	out, err := e.Run(Config{Seed: 2, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	if len(tb.Rows) < 7 {
		t.Fatalf("scorecard has %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "PASS" {
			t.Fatalf("scorecard row failed: %v", row)
		}
	}
}
