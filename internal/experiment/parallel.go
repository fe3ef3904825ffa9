package experiment

import (
	"sync"
	"sync/atomic"

	"roadgrade/internal/par"
)

// parallelFor runs fn(i) for i in [0, n) over GOMAXPROCS goroutines
// (par.Do) and returns the first error. Each index must be independent;
// determinism comes from assigning any randomness (seeds) to indices before
// the parallel phase. After an error, remaining indices are skipped rather
// than executed.
func parallelFor(n int, fn func(i int) error) error {
	var (
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	par.Do(n, func(_, i int) {
		if failed.Load() {
			return
		}
		if err := fn(i); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			failed.Store(true)
		}
	})
	return firstErr
}
