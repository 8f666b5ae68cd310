package arraymgr

import (
	"math"
	"testing"
)

// TestDedupOriginScoping pins the origin scoping of the retransmit
// filter: entry-id counters are per-process, so once managers span OS
// processes two coordinators can legitimately mint the same number.
// The window must treat {origin A, id N, index i} and {origin B, id N,
// index i} as distinct requests — an unscoped window would false-dedup
// the second arrival and its coordinator would retry until timeout.
func TestDedupOriginScoping(t *testing.T) {
	var d deduper
	reqA := &request{op: opWriteLocal, cid: 7, idx: 0, origin: 0, dedup: true}
	reqB := &request{op: opWriteLocal, cid: 7, idx: 0, origin: 2, dedup: true}

	kA, ok := dedupKeyOf(reqA)
	if !ok {
		t.Fatal("request sent under a policy has no dedup key")
	}
	kB, ok := dedupKeyOf(reqB)
	if !ok {
		t.Fatal("request sent under a policy has no dedup key")
	}
	if kA == kB {
		t.Fatalf("same identity from different origins collapsed to one key %+v", kA)
	}
	if d.dup(kA) {
		t.Fatal("first arrival from origin 0 filtered")
	}
	if d.dup(kB) {
		t.Fatal("same identity from origin 2 filtered: dedup window not origin-scoped")
	}
	// Genuine retransmits still filter, per origin.
	if !d.dup(kA) || !d.dup(kB) {
		t.Fatal("retransmit not filtered")
	}

	// Ship keys scope the same way, and another index of the same entry
	// is another request, never filtered as a copy of the first.
	shipA := &request{op: opRedistShip, cid: 7, idx: 1, origin: 0, dedup: true}
	kSA, ok := dedupKeyOf(shipA)
	if !ok {
		t.Fatal("ship request has no dedup key")
	}
	if kSA == kA {
		t.Fatal("two indexes of one entry collapsed to one key")
	}
	shipB := &request{op: opRedistShip, cid: 7, idx: 1, origin: 2, dedup: true}
	if kSB, _ := dedupKeyOf(shipB); kSB == kSA {
		t.Fatal("same ship from different origins collapsed to one key")
	}
}

// TestDedupEvictionThenReuse forces a window eviction and then replays
// the evicted entry id from the same origin — the wrapped-counter reuse
// case. The reused id identifies a new logical request and must
// execute, not be swallowed as a stale retransmit.
func TestDedupEvictionThenReuse(t *testing.T) {
	var d deduper
	keyOf := func(origin int, id uint64) dedupKey {
		k, ok := dedupKeyOf(&request{op: opWriteLocal, cid: id, origin: origin, dedup: true})
		if !ok {
			t.Fatalf("no key for id %d", id)
		}
		return k
	}

	// Dispatch id 1, then enough fresh requests to evict it.
	if d.dup(keyOf(0, 1)) {
		t.Fatal("fresh id 1 filtered")
	}
	for s := uint64(2); s <= dedupWindow+1; s++ {
		if d.dup(keyOf(0, s)) {
			t.Fatalf("fresh id %d filtered", s)
		}
	}
	// The counter has since wrapped and minted 1 again for a brand-new
	// request: it must execute.
	if d.dup(keyOf(0, 1)) {
		t.Fatal("reused id 1 filtered after eviction: wraparound reuse broken")
	}
	// And an in-window retransmit still filters.
	if !d.dup(keyOf(0, dedupWindow)) {
		t.Fatal("in-window retransmit not filtered")
	}
}

// TestNextSeqSkipsZero pins the wraparound contract of the one id
// counter: entry id 0 names no entry — an answer to it is refused and a
// dedup key built from it would be meaningless — so a wrapped counter
// must not mint it.
func TestNextSeqSkipsZero(t *testing.T) {
	m := &Manager{}
	m.nextCall.Store(math.MaxUint64) // next Add(1) wraps to 0
	if s := m.nextID(); s == 0 {
		t.Fatal("nextID minted 0 on wraparound")
	} else if s != 1 {
		t.Fatalf("nextID after wraparound = %d, want 1", s)
	}
	if s := m.nextID(); s != 2 {
		t.Fatalf("counter not continuous after skip: got %d, want 2", s)
	}
}

// TestDedupReliableModeNoKey: requests sent with no call policy carry
// no dedup flag and are never filtered, whatever their identity.
func TestDedupReliableModeNoKey(t *testing.T) {
	if _, ok := dedupKeyOf(&request{op: opWriteLocal, cid: 7}); ok {
		t.Fatal("reliable-mode request has a dedup key")
	}
	if _, ok := dedupKeyOf(&request{op: opRedistShip, cid: 7, idx: 3}); ok {
		t.Fatal("reliable-mode ship has a dedup key")
	}
}
