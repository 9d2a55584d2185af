// Package experiments implements the reproduction suite indexed in
// DESIGN.md §4: one registered experiment per figure, theorem, lemma
// and baseline study. The paper (Im & Moseley, SPAA 2015) is a theory
// paper with no empirical section, so each experiment empirically
// validates the *shape* of one claim — bounded ratios, who wins,
// where constants bite — rather than matching testbed numbers. An
// experiment decides each conclusion it publishes as a Claim computed
// from its own rows, and Scorecard lists a run's claims as A0.
package experiments

import (
	"fmt"
	"sort"

	"treesched/internal/rng"
	"treesched/internal/table"
	"treesched/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness; the same seed reproduces the run.
	Seed uint64
	// Scale multiplies job counts (1 = the EXPERIMENTS.md defaults;
	// benchmarks use smaller scales).
	Scale float64
	// tokens is the suite-wide concurrency pool installed by RunAll;
	// nil when the experiment runs outside a suite, where Sweep runs
	// its cells one after another.
	tokens chan struct{}
}

func (c Config) scaled(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < 10 {
		v = 10
	}
	return v
}

// seed derives the per-cell seed: scenario cells pass it as
// Scenario.Seed, hand-wired cells draw from rng(salt), and both see
// the same stream, so converting a cell to a Scenario preserves its
// trace bit for bit.
func (c Config) seed(salt uint64) uint64 {
	return c.Seed*0x9e3779b97f4a7c15 + salt + 1
}

func (c Config) rng(salt uint64) *rng.Rand {
	return rng.New(c.seed(salt))
}

// TextBlock is a non-tabular artifact (tree renderings etc.).
type TextBlock struct {
	Title string
	Body  string
}

// Claim is one conclusion an experiment decides from the rows it
// built: what is asserted, whether the rows bear it out, and the
// numbers that decide it. The table that backs a claim carries it as
// a note, A0 lists every claim of a run, and the claim tests require
// them to hold.
type Claim struct {
	Statement string
	Holds     bool
	Numbers   string
}

// Verdict is PASS when the claim holds and FAIL when it does not.
func (c Claim) Verdict() string {
	if c.Holds {
		return "PASS"
	}
	return "FAIL"
}

// String renders the claim as its table note.
func (c Claim) String() string {
	return c.Verdict() + " — " + c.Statement + " (" + c.Numbers + ")"
}

// Output is everything an experiment produced.
type Output struct {
	Tables []*table.Table
	Texts  []TextBlock
	Claims []Claim
}

func (o *Output) add(t *table.Table)         { o.Tables = append(o.Tables, t) }
func (o *Output) addText(title, body string) { o.Texts = append(o.Texts, TextBlock{title, body}) }

// claim records a conclusion decided from tb's rows and renders it as
// a note of tb, so no note states a fact its table does not back.
func (o *Output) claim(tb *table.Table, holds bool, statement, numbers string, args ...interface{}) {
	c := Claim{Statement: statement, Holds: holds, Numbers: fmt.Sprintf(numbers, args...)}
	o.Claims = append(o.Claims, c)
	tb.AddNote("%s", c)
}

// Experiment is one entry of the reproduction index.
type Experiment struct {
	// ID matches DESIGN.md §4 (F1, T1, L2, B5, ...).
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the paper artifact being validated.
	Paper string
	// Run executes the experiment.
	Run func(cfg Config) (*Output, error)
}

var registry []*Experiment

func register(e *Experiment) { registry = append(registry, e) }

// All returns the registered experiments in ID order.
func All() []*Experiment {
	out := append([]*Experiment(nil), registry...)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (*Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// falling reports whether xs strictly decreases.
func falling(xs ...float64) bool {
	for i := 1; i < len(xs); i++ {
		if !(xs[i] < xs[i-1]) {
			return false
		}
	}
	return true
}

// classSizes is the standard class-rounded size distribution used
// across experiments.
func classSizes(eps float64) workload.SizeDist {
	return workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 16}, Eps: eps}
}

// poisson builds a Poisson trace or panics (generation can only fail
// on bad config, which is a programming error here).
func poisson(r *rng.Rand, n int, size workload.SizeDist, load, capacity float64) *workload.Trace {
	tr, err := workload.Poisson(r, workload.GenConfig{N: n, Size: size, Load: load, Capacity: capacity})
	if err != nil {
		panic(err)
	}
	return tr
}
