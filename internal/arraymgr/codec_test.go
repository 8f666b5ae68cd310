package arraymgr

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg/wire"
)

func randInts(rng *rand.Rand, maxLen int) []int {
	xs := make([]int, rng.Intn(maxLen+1))
	for i := range xs {
		xs[i] = rng.Intn(1<<16) - 1<<15
	}
	return xs
}

func randMeta(rng *rand.Rand) *darray.Meta {
	m := &darray.Meta{
		ID:            darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(100)},
		Dims:          randInts(rng, 3),
		Procs:         randInts(rng, 4),
		GridDims:      randInts(rng, 3),
		LocalDims:     randInts(rng, 3),
		Borders:       randInts(rng, 6),
		LocalDimsPlus: randInts(rng, 3),
		Indexing:      grid.Indexing(rng.Intn(2)),
		Replicas:      rng.Intn(3),
		Epoch:         rng.Intn(4),
	}
	if rng.Intn(2) == 0 {
		m.Dists = []grid.Dist{{Kind: grid.DistKind(rng.Intn(3)), B: rng.Intn(8)}}
	}
	return m
}

func randWireRequest(rng *rand.Rand) *wireRequest {
	ops := []string{"read_block", "write_block", "gather", "redist_ship", "meta", ""}
	w := &wireRequest{
		Op:      ops[rng.Intn(len(ops))],
		ID:      darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)},
		ID2:     darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)},
		Gidx:    randInts(rng, 3),
		Offs:    randInts(rng, 8),
		Lo:      randInts(rng, 3),
		Hi:      randInts(rng, 3),
		Step:    randInts(rng, 3),
		Lo2:     randInts(rng, 3),
		Slot:    rng.Intn(16),
		Which:   []string{"", "lead", "trail"}[rng.Intn(3)],
		Procs:   randInts(rng, 4),
		Node:    rng.Intn(8),
		Seq:     rng.Uint64() >> rng.Intn(64),
		Call:    rng.Uint64() >> rng.Intn(64),
		Pair:    rng.Intn(8),
		Src:     rng.Intn(8),
		Dst:     rng.Intn(8),
		Origin:  rng.Intn(8),
		ReplyID: rng.Uint64() >> rng.Intn(64),
		AckProc: rng.Intn(8),
		AckID:   rng.Uint64() >> rng.Intn(64),
	}
	if rng.Intn(3) == 0 {
		w.Meta = randMeta(rng)
	}
	if rng.Intn(3) == 0 {
		w.Gidxs = [][]int{randInts(rng, 3), randInts(rng, 3)}
	}
	if rng.Intn(2) == 0 {
		w.Vals = make([]float64, rng.Intn(32))
		for i := range w.Vals {
			w.Vals[i] = rng.NormFloat64()
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		w.Ships = append(w.Ships, randWireShip(rng))
	}
	return w
}

// randWireShip draws one ship in one of the forms the schedule emits:
// a descriptor with its own step per side, a descriptor with nil (dense)
// steps on either side, or an offset set.
func randWireShip(rng *rand.Rand) wireShip {
	sh := wireShip{DstProc: rng.Intn(8), SrcSlot: rng.Intn(8), DstSlot: rng.Intn(8), Pair: rng.Intn(8)}
	switch rng.Intn(3) {
	case 0:
		sh.SrcLo, sh.SrcHi, sh.SrcStep = randInts(rng, 3), randInts(rng, 3), randInts(rng, 3)
		sh.DstLo, sh.DstHi, sh.DstStep = randInts(rng, 3), randInts(rng, 3), randInts(rng, 3)
	case 1:
		sh.SrcLo, sh.SrcHi = randInts(rng, 3), randInts(rng, 3)
		sh.DstLo, sh.DstHi = randInts(rng, 3), randInts(rng, 3)
		if rng.Intn(2) == 0 {
			sh.SrcStep = randInts(rng, 3)
		} else {
			sh.DstStep = randInts(rng, 3)
		}
	default:
		sh.SrcOffs, sh.DstOffs = randInts(rng, 6), randInts(rng, 6)
	}
	return sh
}

func randWireResponse(rng *rand.Rand) *wireResponse {
	w := &wireResponse{
		ReplyID: rng.Uint64() >> rng.Intn(64),
		Status:  Status(rng.Intn(8)),
		Pair:    rng.Intn(8),
	}
	if rng.Intn(2) == 0 {
		w.Vals = make([]float64, rng.Intn(32))
		for i := range w.Vals {
			w.Vals[i] = rng.NormFloat64()
		}
	}
	switch rng.Intn(4) {
	case 0:
		w.Info = randMeta(rng)
	case 1:
		w.Info = rng.Intn(100)
	case 2:
		w.Info = []grid.Dist{{Kind: grid.DistBlock}}
	}
	return w
}

// bothWays drives one envelope through the custom codec and the gob
// fallback and requires identical decoded results — the codec must be a
// drop-in replacement for the PR-9 gob wire on every protocol struct.
func bothWays(t *testing.T, v any) {
	t.Helper()
	bin, err := wire.AppendAny(nil, v, false)
	if err != nil {
		t.Fatalf("codec AppendAny(%T): %v", v, err)
	}
	if bin[0] < wire.CustomBase {
		t.Fatalf("%T did not take the custom codec path (type code %d)", v, bin[0])
	}
	gotBin, rest, err := wire.ReadAny(bin)
	if err != nil || len(rest) != 0 {
		t.Fatalf("codec ReadAny(%T): %v (rest %d)", v, err, len(rest))
	}
	gb, err := wire.AppendAny(nil, v, true)
	if err != nil {
		t.Fatalf("gob AppendAny(%T): %v", v, err)
	}
	gotGob, rest, err := wire.ReadAny(gb)
	if err != nil || len(rest) != 0 {
		t.Fatalf("gob ReadAny(%T): %v (rest %d)", v, err, len(rest))
	}
	if !reflect.DeepEqual(gotBin, gotGob) {
		t.Fatalf("codec disagreement on %T:\n  codec: %#v\n  gob:   %#v", v, gotBin, gotGob)
	}
}

func TestAMCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bothWays(t, &wireRequest{})
	bothWays(t, &wireResponse{})
	bothWays(t, &wireAck{})
	// The ship forms of a redistribution order: a panel pair (rows step 4
	// at the source, dense at the destination), the converse, both sides
	// dense, empty steps (which gob and the codec both collapse to nil),
	// and an offset set.
	bothWays(t, &wireRequest{Op: "redist_src", Ships: []wireShip{
		{DstProc: 1, SrcLo: []int{1, 0}, SrcHi: []int{510, 128}, SrcStep: []int{4, 1},
			DstLo: []int{0, 128}, DstHi: []int{128, 256}, SrcSlot: 1, DstSlot: 1, Pair: 0},
		{DstProc: 2, SrcLo: []int{0}, SrcHi: []int{4}, DstLo: []int{2}, DstHi: []int{15}, DstStep: []int{4}, Pair: 1},
		{DstProc: 3, SrcLo: []int{0}, SrcHi: []int{4}, DstLo: []int{0}, DstHi: []int{4}, Pair: 2},
		{DstProc: 0, SrcLo: []int{0}, SrcHi: []int{4}, SrcStep: []int{}, DstLo: []int{0}, DstHi: []int{4}, DstStep: []int{}, Pair: 3},
		{DstProc: 1, SrcOffs: []int{0, 3, 6}, DstOffs: []int{7, 2, 1}, SrcSlot: 2, Pair: 4},
	}})
	for i := 0; i < 50; i++ {
		bothWays(t, randWireRequest(rng))
		bothWays(t, randWireResponse(rng))
		bothWays(t, &wireAck{AckID: rng.Uint64(), Status: Status(rng.Intn(4)), Pair: rng.Intn(8)})
	}
}

// TestAMCodecTruncated ensures the positional decoders fail cleanly on
// every truncation instead of panicking or over-reading.
func TestAMCodecTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	full, err := wire.AppendAny(nil, randWireRequest(rng), false)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, _, err := wire.ReadAny(full[:n]); err == nil {
			t.Fatalf("ReadAny accepted a %d-byte prefix of a %d-byte request", n, len(full))
		}
	}
}

// FuzzAMWireCodec is the randomized codec-vs-gob equivalence pin the CI
// fuzz-smoke job runs: for any protocol envelope, the custom codec and
// the gob fallback must decode to identical values.
func FuzzAMWireCodec(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i <= int(n)%8; i++ {
			switch rng.Intn(3) {
			case 0:
				bothWays(t, randWireRequest(rng))
			case 1:
				bothWays(t, randWireResponse(rng))
			default:
				bothWays(t, &wireAck{AckID: rng.Uint64(), Status: Status(rng.Intn(4)), Pair: rng.Intn(8)})
			}
		}
	})
}
