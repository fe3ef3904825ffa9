package cloud

import (
	"fmt"
	"testing"
)

// checkRingInvariant asserts map and ring describe the same key set.
func checkRingInvariant(t *testing.T, k *keyRing) {
	t.Helper()
	if len(k.seen) != k.n {
		t.Fatalf("drift: map has %d keys, ring has %d", len(k.seen), k.n)
	}
	for i := 0; i < k.n; i++ {
		key := k.keys[(k.head+i)%len(k.keys)]
		if _, ok := k.seen[key]; !ok {
			t.Fatalf("ring slot %d holds %q which is not in the map", i, key)
		}
	}
}

func TestKeyRingReserveAndDup(t *testing.T) {
	k := newKeyRing(3)
	if k.reserve("a") {
		t.Error("first reserve of a reported dup")
	}
	if !k.reserve("a") {
		t.Error("second reserve of a should be a dup")
	}
	if len(k.seen) != 1 {
		t.Errorf("live = %d, want 1", len(k.seen))
	}
	checkRingInvariant(t, k)
}

func TestKeyRingFIFOEviction(t *testing.T) {
	k := newKeyRing(3)
	for _, key := range []string{"a", "b", "c", "d"} {
		k.reserve(key)
	}
	// Capacity 3: "a" (the oldest) must be gone, the rest retained.
	if k.reserve("a") {
		t.Error("evicted key should be reservable again, got dup")
	}
	checkRingInvariant(t, k)
	for _, key := range []string{"c", "d"} {
		if !k.reserve(key) {
			t.Errorf("key %q should still be live", key)
		}
	}
}

// TestKeyRingRollbackMidQueue is the regression test for the drift bug: a
// rollback of a key that is NOT the newest reservation must remove it from
// the ring too, so later evictions cannot pop the dead entry and evict a
// live key early.
func TestKeyRingRollbackMidQueue(t *testing.T) {
	k := newKeyRing(3)
	k.reserve("a")
	k.reserve("bad") // will be rolled back, sits mid-ring once "b" lands
	k.reserve("b")
	k.release("bad")
	checkRingInvariant(t, k)

	// Ring now holds a, b (in order). Reserving c must NOT evict anything:
	// two live keys + one free slot.
	k.reserve("c")
	checkRingInvariant(t, k)
	for _, key := range []string{"a", "b", "c"} {
		if !k.reserve(key) {
			t.Errorf("key %q was evicted early after a mid-queue rollback", key)
		}
	}

	// One more reservation evicts exactly the oldest live key ("a").
	k.reserve("d")
	checkRingInvariant(t, k)
	if k.reserve("a") {
		t.Error("oldest key should have been evicted")
	}
}

func TestKeyRingReReserveAfterRollback(t *testing.T) {
	k := newKeyRing(2)
	k.reserve("k")
	k.release("k")
	if k.reserve("k") {
		t.Error("released key must be reservable again")
	}
	if !k.reserve("k") {
		t.Error("re-reserved key must dedup")
	}
	checkRingInvariant(t, k)
}

func TestKeyRingReleaseUnknown(t *testing.T) {
	k := newKeyRing(2)
	k.reserve("a")
	k.release("nope")
	checkRingInvariant(t, k)
	if !k.reserve("a") {
		t.Error("releasing an unknown key must not disturb live keys")
	}
}

func TestKeyRingWraparound(t *testing.T) {
	// Exercise head wraparound with interleaved rollbacks.
	k := newKeyRing(4)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if k.reserve(key) {
			t.Fatalf("fresh key %s reported dup", key)
		}
		if i%3 == 0 {
			k.release(key)
		}
		checkRingInvariant(t, k)
		if len(k.seen) > 4 {
			t.Fatalf("live = %d exceeds capacity", len(k.seen))
		}
	}
}
