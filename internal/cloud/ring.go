package cloud

// keyRing is the bounded idempotency-dedup store: the set of live accepted
// keys plus a fixed-capacity FIFO ring that drives eviction.
//
// It replaces a plain slice queue with two defects. First, the slice FIFO
// (`queue = queue[1:]`) pinned the backing array and kept growing it across
// evictions; the ring's backing array is allocated once. Second, rolling back
// a rejected submission removed the key from the map but only popped it from
// the queue when it happened to be the tail, so the two could drift: a later
// eviction would pop the dead queue entry as if it were live and evict a
// different, still-live key early — making a retried upload double-count.
// release now removes the key wherever it sits in the ring, so the map and
// ring describe the same key set at all times (len(seen) == n is an
// invariant).
//
// keyRing is not safe for concurrent use; the owning shard locks around it.
type keyRing struct {
	keys []string // fixed-capacity circular buffer
	head int      // index of the oldest key
	n    int      // occupied slots
	seen map[string]struct{}
}

// newKeyRing returns a ring retaining at most capacity keys.
func newKeyRing(capacity int) *keyRing {
	if capacity < 1 {
		capacity = 1
	}
	return &keyRing{
		keys: make([]string, capacity),
		seen: make(map[string]struct{}, capacity),
	}
}

// reserve claims key, evicting the oldest live key if the ring is full. It
// reports whether the key was already reserved (an idempotent replay).
func (k *keyRing) reserve(key string) (dup bool) {
	if _, ok := k.seen[key]; ok {
		return true
	}
	if k.n == len(k.keys) {
		oldest := k.keys[k.head]
		delete(k.seen, oldest)
		k.keys[k.head] = ""
		k.head = (k.head + 1) % len(k.keys)
		k.n--
	}
	k.keys[(k.head+k.n)%len(k.keys)] = key
	k.n++
	k.seen[key] = struct{}{}
	return false
}

// release rolls back a reservation whose submission was rejected: the key is
// removed from the map and from wherever it sits in the ring (preserving the
// FIFO order of the others), so it stays retryable and cannot later cause a
// live key to be evicted in its place. Unknown keys are ignored.
func (k *keyRing) release(key string) {
	if _, ok := k.seen[key]; !ok {
		return
	}
	delete(k.seen, key)
	size := len(k.keys)
	for i := 0; i < k.n; i++ {
		if k.keys[(k.head+i)%size] != key {
			continue
		}
		// Shift every younger key back one slot.
		for j := i; j < k.n-1; j++ {
			k.keys[(k.head+j)%size] = k.keys[(k.head+j+1)%size]
		}
		k.keys[(k.head+k.n-1)%size] = ""
		k.n--
		return
	}
}
