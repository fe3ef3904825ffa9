// Package par is the one GOMAXPROCS fan-out loop of the program: the
// routing engine's publish jobs, first row builds and full customizations'
// bins, the network generator's terrain profiles, the cloud's emission
// tables and the experiment suite's independent runs all spread their
// items with Do.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines Do(n, ...) runs: GOMAXPROCS, but
// never more than there are items, and at least one.
func Workers(n int) int {
	return max(1, min(n, runtime.GOMAXPROCS(0)))
}

// Do calls fn(worker, i) for every i in [0, n) and returns once every call
// has returned. Items go out one at a time from an atomic index to
// Workers(n) goroutines, the caller's among them as worker 0, so a slow
// item never holds up the rest; worker < Workers(n) lets fn index
// per-goroutine scratch. With one worker the loop runs on the caller's
// goroutine in ascending order and starts none. Calls may nest: fn may
// itself call Do.
func Do(n int, fn func(worker, i int)) {
	workers := Workers(n)
	if workers == 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	take := func(worker int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(worker, i)
		}
	}
	var wg sync.WaitGroup
	for worker := 1; worker < workers; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			take(worker)
		}()
	}
	take(0)
	wg.Wait()
}
