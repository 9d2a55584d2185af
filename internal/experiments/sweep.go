package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Sweep runs fn(i) for every cell i in [0, cells) on RunAll's worker
// pool and returns the results in input order. It is the
// intra-experiment counterpart of RunAll: the ε/speed/seed grid loops
// of the theorem and baseline experiments fan their cells out through
// it instead of iterating serially. Outside RunAll (an experiment's
// Run called directly) the cells run one after another.
//
// Determinism contract: fn must derive all randomness for cell i from
// cfg.Seed and i alone (the cfg.rng(salt) idiom with a cell-dependent
// salt), and must not mutate state shared between cells. Results land
// in a slot per cell, so the output is byte-identical at any
// parallelism: Sweep shares RunAll's suite-wide token pool, so the
// -parallel flag bounds total concurrency.
//
// The calling goroutine always participates in the work (it already
// holds a suite token when running under RunAll), so Sweep makes
// progress even when no extra worker slot is free and can never
// deadlock against the pool. A panic in fn is converted into an error
// carrying the cell index; the first failing cell's error (in cell
// order) is returned.
func Sweep[T any](cfg Config, cells int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, cells)
	if cells == 0 {
		return results, nil
	}
	errs := make([]error, cells)
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("sweep: cell %d panicked: %v", i, r)
			}
		}()
		results[i], errs[i] = fn(i)
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= cells {
				return
			}
			runCell(i)
		}
	}

	// The caller's suite token covers one worker (this goroutine);
	// helpers each hold an extra token for their lifetime. try-acquire
	// only — never steal slots from concurrently running experiments,
	// never block. Outside RunAll there is no pool, so no helper.
	var wg sync.WaitGroup
acquire:
	for h := 0; h < cells-1 && cfg.tokens != nil; h++ {
		select {
		case cfg.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-cfg.tokens }()
				work()
			}()
		default:
			break acquire
		}
	}
	work()
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
