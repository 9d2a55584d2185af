package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"treesched/internal/table"
)

// RunResult pairs an experiment with its output (or error).
type RunResult struct {
	Exp    *Experiment
	Output *Output
	Err    error
}

// RunAll executes the given experiments concurrently on a bounded
// worker pool and returns results in the input order. Experiments are
// deterministic given Config, so concurrency does not affect any
// reported number — only wall-clock time. parallelism <= 0 uses
// GOMAXPROCS.
//
// parallelism bounds *total* concurrency, not just the number of
// simultaneously running experiments: the same token pool is shared
// with every intra-experiment Sweep, so grid cells soak up whatever
// slots whole experiments leave idle (e.g. a single -run T1 still
// fans its ε×load grid across all -parallel workers).
func RunAll(exps []*Experiment, cfg Config, parallelism int) []RunResult {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	// The pool capacity is the full parallelism budget even when there
	// are fewer experiments than workers — Sweep helpers claim the
	// leftover tokens.
	cfg.tokens = make(chan struct{}, parallelism)
	workers := parallelism
	if workers > len(exps) {
		workers = len(exps)
	}
	results := make([]RunResult, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				e := exps[i]
				cfg.tokens <- struct{}{}
				out, err := runSafe(e, cfg)
				<-cfg.tokens
				results[i] = RunResult{Exp: e, Output: out, Err: err}
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runSafe converts experiment panics into errors so one failing
// experiment cannot take down a whole suite run.
func runSafe(e *Experiment, cfg Config) (out *Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("experiment %s panicked: %v", e.ID, r)
		}
	}()
	return e.Run(cfg)
}

// Scorecard renders A0, which heads a report, from a run's results:
// one row per claim, in result order, with its verdict and decisive
// numbers. A0 is not registered and never run. Scorecard returns nil
// when no result decided a claim.
func Scorecard(results []RunResult) *RunResult {
	tb := table.New("A0 — reproduction scorecard", "experiment", "claim", "decisive numbers", "verdict")
	for _, rr := range results {
		if rr.Output == nil {
			continue
		}
		for _, c := range rr.Output.Claims {
			tb.AddRow(rr.Exp.ID, c.Statement, c.Numbers, c.Verdict())
		}
	}
	if len(tb.Rows) == 0 {
		return nil
	}
	tb.AddNote("each row is decided once, by its experiment from its own table, where the same line stands as a note; claims are stated at scale 1, and a smaller -scale may fail some")
	a0 := &Experiment{ID: "A0", Title: "Validation scorecard: every claim of the run at a glance", Paper: "whole paper"}
	return &RunResult{Exp: a0, Output: &Output{Tables: []*table.Table{tb}}}
}
