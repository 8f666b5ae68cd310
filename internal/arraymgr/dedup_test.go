package arraymgr

import (
	"math"
	"testing"
)

// TestDedupOriginScoping pins the origin scoping of the retransmit
// filter: seq counters are per-process, so once managers span OS
// processes two coordinators can legitimately mint the same number.
// The window must treat {origin A, seq N} and {origin B, seq N} as
// distinct requests — an unscoped window would false-dedup the second
// arrival and its coordinator would retry until timeout.
func TestDedupOriginScoping(t *testing.T) {
	var d deduper
	reqA := &request{op: opWriteLocal, seq: 7, origin: 0}
	reqB := &request{op: opWriteLocal, seq: 7, origin: 2}

	kA, ok := dedupKeyOf(reqA)
	if !ok {
		t.Fatal("seq'd request has no dedup key")
	}
	kB, ok := dedupKeyOf(reqB)
	if !ok {
		t.Fatal("seq'd request has no dedup key")
	}
	if kA == kB {
		t.Fatalf("same seq from different origins collapsed to one key %+v", kA)
	}
	if d.dup(kA) {
		t.Fatal("first arrival from origin 0 filtered")
	}
	if d.dup(kB) {
		t.Fatal("same seq from origin 2 filtered: dedup window not origin-scoped")
	}
	// Genuine retransmits still filter, per origin.
	if !d.dup(kA) || !d.dup(kB) {
		t.Fatal("retransmit not filtered")
	}

	// Ship keys scope the same way, and never collide with seq keys
	// even on equal numbers.
	shipA := &request{op: opRedistShip, call: 7, pair: 0, origin: 0}
	kSA, ok := dedupKeyOf(shipA)
	if !ok {
		t.Fatal("ship request has no dedup key")
	}
	if kSA == kA {
		t.Fatal("ship key collides with seq key on equal numbers")
	}
	shipB := &request{op: opRedistShip, call: 7, pair: 0, origin: 2}
	if kSB, _ := dedupKeyOf(shipB); kSB == kSA {
		t.Fatal("same ship from different origins collapsed to one key")
	}
}

// TestDedupEvictionThenReuse forces a window eviction and then replays
// the evicted sequence number from the same origin — the wrapped-counter
// reuse case. The reused id identifies a new logical request and must
// execute, not be swallowed as a stale retransmit.
func TestDedupEvictionThenReuse(t *testing.T) {
	var d deduper
	keyOf := func(origin int, seq uint64) dedupKey {
		k, ok := dedupKeyOf(&request{op: opWriteLocal, seq: seq, origin: origin})
		if !ok {
			t.Fatalf("no key for seq %d", seq)
		}
		return k
	}

	// Dispatch seq 1, then enough fresh requests to evict it.
	if d.dup(keyOf(0, 1)) {
		t.Fatal("fresh seq 1 filtered")
	}
	for s := uint64(2); s <= dedupWindow+1; s++ {
		if d.dup(keyOf(0, s)) {
			t.Fatalf("fresh seq %d filtered", s)
		}
	}
	// The counter has since wrapped and minted 1 again for a brand-new
	// request: it must execute.
	if d.dup(keyOf(0, 1)) {
		t.Fatal("reused seq 1 filtered after eviction: wraparound reuse broken")
	}
	// And an in-window retransmit still filters.
	if !d.dup(keyOf(0, dedupWindow)) {
		t.Fatal("in-window retransmit not filtered")
	}
}

// TestNextSeqSkipsZero pins the wraparound contract: seq 0 means "no
// recovery id" in every filter, so a wrapped counter must not mint it.
func TestNextSeqSkipsZero(t *testing.T) {
	m := &Manager{}
	m.seq.Store(math.MaxUint64) // next Add(1) wraps to 0
	if s := m.nextSeq(); s == 0 {
		t.Fatal("nextSeq minted 0 on wraparound")
	} else if s != 1 {
		t.Fatalf("nextSeq after wraparound = %d, want 1", s)
	}
	if s := m.nextSeq(); s != 2 {
		t.Fatalf("counter not continuous after skip: got %d, want 2", s)
	}
}

// TestDedupReliableModeNoKey: requests without recovery ids (reliable
// mode) carry no dedup identity and are never filtered.
func TestDedupReliableModeNoKey(t *testing.T) {
	if _, ok := dedupKeyOf(&request{op: opWriteLocal}); ok {
		t.Fatal("reliable-mode request has a dedup key")
	}
	if _, ok := dedupKeyOf(&request{op: opRedistShip}); ok {
		t.Fatal("reliable-mode ship has a dedup key")
	}
}
