package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestDoEveryItemOnce runs Do at one and four Ps, nested and not, and
// requires every item to run exactly once on a worker below Workers(n).
func TestDoEveryItemOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			seen := make([]atomic.Int32, n)
			var bad atomic.Int32
			Do(n, func(worker, i int) {
				if worker < 0 || worker >= Workers(n) {
					bad.Add(1)
				}
				seen[i].Add(1)
				// A nested loop must finish before its caller's item does.
				var inner atomic.Int32
				Do(3, func(_, _ int) { inner.Add(1) })
				if inner.Load() != 3 {
					bad.Add(1)
				}
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: item %d ran %d times", procs, n, i, got)
				}
			}
			if bad.Load() != 0 {
				t.Fatalf("GOMAXPROCS %d, n %d: %d calls saw a bad worker index or an unfinished nested loop", procs, n, bad.Load())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestDoOneWorkerInOrder pins the serial case: with one P, items run on
// the caller's goroutine in ascending order.
func TestDoOneWorkerInOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var order []int
	Do(5, func(worker, i int) {
		if worker != 0 {
			t.Errorf("item %d on worker %d", i, worker)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("items ran in order %v", order)
		}
	}
	if Workers(0) != 1 || Workers(1) != 1 {
		t.Errorf("Workers(0), Workers(1) = %d, %d, want 1, 1", Workers(0), Workers(1))
	}
}
