package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// sweepUnderRunAll runs Sweep in a one-experiment RunAll at the given
// parallelism: Sweep fans cells out only over RunAll's token pool.
func sweepUnderRunAll[T any](parallelism, cells int, fn func(i int) (T, error)) ([]T, error) {
	var got []T
	e := &Experiment{ID: "SWEEP", Title: "sweep", Paper: "-", Run: func(cfg Config) (*Output, error) {
		var err error
		got, err = Sweep(cfg, cells, fn)
		return &Output{}, err
	}}
	return got, RunAll([]*Experiment{e}, Config{}, parallelism)[0].Err
}

// Sweep must return results in input order even with far more cells
// than workers.
func TestSweepMoreCellsThanWorkers(t *testing.T) {
	const cells = 100
	got, err := sweepUnderRunAll(3, cells, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cells {
		t.Fatalf("got %d results, want %d", len(got), cells)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("cell %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestSweepZeroCells(t *testing.T) {
	got, err := Sweep(Config{}, 0, func(i int) (int, error) {
		t.Fatal("fn called for zero cells")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

// The first failing cell in *cell order* wins, regardless of which
// cell fails first in wall-clock order.
func TestSweepFirstErrorInCellOrder(t *testing.T) {
	_, err := sweepUnderRunAll(4, 10, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Fatalf("err = %v, want cell 3's error", err)
	}
}

// A panicking cell must surface as an error naming the cell, not kill
// the process.
func TestSweepPanicBecomesError(t *testing.T) {
	_, err := sweepUnderRunAll(2, 5, func(i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "cell 2 panicked") {
		t.Fatalf("err = %v, want a cell-2 panic error", err)
	}
}

func TestSweepErrorDoesNotHideResults(t *testing.T) {
	sentinel := errors.New("nope")
	got, err := Sweep(Config{}, 3, func(i int) (int, error) {
		if i == 1 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got != nil {
		t.Fatalf("results = %v, want nil on error", got)
	}
}

// A Sweep running under RunAll at parallelism 1 must complete: the
// caller's goroutine works even when no extra token is free, so the
// shared pool can never deadlock a nested sweep.
func TestSweepUnderRunAllNoDeadlock(t *testing.T) {
	var calls atomic.Int64
	e := &Experiment{ID: "SWEEPY", Title: "nested sweep", Paper: "-", Run: func(cfg Config) (*Output, error) {
		vals, err := Sweep(cfg, 20, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) != 20 {
			return nil, fmt.Errorf("got %d cells", len(vals))
		}
		return &Output{Texts: []TextBlock{{Title: "ok", Body: "ok"}}}, nil
	}}
	for _, par := range []int{1, 4} {
		calls.Store(0)
		res := RunAll([]*Experiment{e, e}, Config{}, par)
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("parallelism %d: %v", par, r.Err)
			}
		}
		if calls.Load() != 40 {
			t.Fatalf("parallelism %d: %d cells ran, want 40", par, calls.Load())
		}
	}
}

// An error inside a Sweep cell must propagate through RunAll like any
// other experiment error.
func TestRunAllPropagatesSweepError(t *testing.T) {
	e := &Experiment{ID: "SWEEPERR", Title: "failing sweep", Paper: "-", Run: func(cfg Config) (*Output, error) {
		_, err := Sweep(cfg, 8, func(i int) (int, error) {
			if i == 5 {
				panic("cell exploded")
			}
			return i, nil
		})
		return nil, err
	}}
	res := RunAll([]*Experiment{e}, Config{}, 2)
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "cell 5 panicked") {
		t.Fatalf("err = %v, want the cell-5 panic error", res[0].Err)
	}
}

// The determinism regression: grid-heavy experiments must render
// byte-identical tables through RunAll at parallelism 1 and at four
// times GOMAXPROCS.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	var exps []*Experiment
	for _, id := range []string{"T1", "B3"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	cfg := Config{Seed: 11, Scale: 0.05}
	serial := RunAll(exps, cfg, 1)
	wide := RunAll(exps, cfg, 4*runtime.GOMAXPROCS(0))
	for k, e := range exps {
		s, w := serial[k], wide[k]
		if s.Err != nil || w.Err != nil {
			t.Fatalf("%s: serial %v, wide %v", e.ID, s.Err, w.Err)
		}
		if len(s.Output.Tables) != len(w.Output.Tables) || len(s.Output.Tables) == 0 {
			t.Fatalf("%s: table counts differ (%d vs %d)", e.ID, len(s.Output.Tables), len(w.Output.Tables))
		}
		for ti := range s.Output.Tables {
			if st, wt := s.Output.Tables[ti].Text(), w.Output.Tables[ti].Text(); st != wt {
				t.Fatalf("%s: table %d differs between parallelism 1 and wide:\n--- serial ---\n%s\n--- wide ---\n%s", e.ID, ti, st, wt)
			}
		}
	}
}
