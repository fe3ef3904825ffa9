package cloud

import (
	"sync"
	"sync/atomic"
)

// feedCap is how many road changes the change feed retains. A consumer that
// falls further behind rescans every road instead; at one road per fold
// that is thousands of folds between two routing refreshes.
const feedCap = 4096

// changeFeed is the store's change log: a fixed-size ring of the road IDs
// each accepted fold changed, each tagged with the store generation the fold
// brought the server to. It owns the server's generation counter, and record
// writes a fold's roads and bumps the counter under one lock. That is the
// invariant consumers rely on: a reader that observed generation G finds
// every road counted in G in the ring, or learns that the ring dropped it.
type changeFeed struct {
	gen atomic.Uint64 // accepted submissions; read lock-free by StoreGeneration

	mu      sync.Mutex
	roads   [feedCap]string
	gens    [feedCap]uint64
	next    uint64 // slots ever written; slot i lives at i % feedCap
	dropped uint64 // generation tag of the newest overwritten slot
}

// record logs one fold that accepted n submissions to roads. Callers
// record after the roads' updates are visible to readers.
func (f *changeFeed) record(n uint64, roads ...string) {
	f.mu.Lock()
	gen := f.gen.Load() + n
	for _, r := range roads {
		i := f.next % feedCap
		if f.next >= feedCap {
			f.dropped = f.gens[i]
		}
		f.roads[i], f.gens[i] = r, gen
		f.next++
	}
	f.gen.Store(gen)
	f.mu.Unlock()
}

// since returns the roads changed after generation g, oldest first (a road
// may repeat), and the generation they bring the caller to. ok is false when
// the ring has overwritten a change made after g, or g is from the future.
func (f *changeFeed) since(g uint64) (roads []string, now uint64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now = f.gen.Load()
	if g > now || f.dropped > g {
		return nil, now, false
	}
	// Tags never decrease with the slot index, and every overwritten slot's
	// tag is at most dropped <= g, so the changes after g are a suffix of the
	// retained slots.
	oldest := uint64(0)
	if f.next > feedCap {
		oldest = f.next - feedCap
	}
	first := f.next
	for first > oldest && f.gens[(first-1)%feedCap] > g {
		first--
	}
	roads = make([]string, 0, f.next-first)
	for i := first; i < f.next; i++ {
		roads = append(roads, f.roads[i%feedCap])
	}
	return roads, now, true
}
