package arraymgr

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg/wire"
)

// randInts draws a random int slice; an empty draw is nil, which is what
// the codec decodes a zero-length slice as.
func randInts(rng *rand.Rand, maxLen int) []int {
	n := rng.Intn(maxLen + 1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(1<<16) - 1<<15
	}
	return xs
}

func randFloats(rng *rand.Rand, maxLen int) []float64 {
	n := rng.Intn(maxLen + 1)
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// randDists draws per-dimension distributions; an empty draw is nil
// (pure block), which is what the codec decodes a zero count as.
func randDists(rng *rand.Rand, maxLen int) []grid.Dist {
	var ds []grid.Dist
	for i := rng.Intn(maxLen + 1); i > 0; i-- {
		ds = append(ds, grid.Dist{Kind: grid.DistKind(rng.Intn(3)), B: rng.Intn(1 << 12)})
	}
	return ds
}

func randMeta(rng *rand.Rand) *darray.Meta {
	return &darray.Meta{
		ID:            darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(100)},
		Type:          darray.ElemType(rng.Intn(2)),
		Dims:          randInts(rng, 3),
		Procs:         randInts(rng, 4),
		GridDims:      randInts(rng, 3),
		Dists:         randDists(rng, 3),
		LocalDims:     randInts(rng, 3),
		Borders:       randInts(rng, 6),
		LocalDimsPlus: randInts(rng, 3),
		Indexing:      grid.Indexing(rng.Intn(2)),
		GridIndexing:  grid.Indexing(rng.Intn(2)),
		Replicas:      rng.Intn(3),
		Epoch:         rng.Intn(4),
		Origins:       randInts(rng, 4),
	}
}

// randRequest draws a request with every field set at random: a request
// is an owner's message, and the codec carries all of it.
func randRequest(rng *rand.Rand) *request {
	r := &request{
		op:      opCode(rng.Intn(len(opNames))),
		id:      darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)},
		id2:     darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)},
		gidx:    randInts(rng, 3),
		offs:    randInts(rng, 8),
		lo:      randInts(rng, 3),
		hi:      randInts(rng, 3),
		step:    randInts(rng, 3),
		runs:    randInts(rng, 2),
		vals:    randFloats(rng, 32),
		slot:    rng.Intn(16),
		node:    rng.Intn(8),
		seq:     rng.Uint64() >> rng.Intn(64),
		call:    rng.Uint64() >> rng.Intn(64),
		pair:    rng.Intn(8),
		src:     rng.Intn(8),
		dst:     rng.Intn(8),
		origin:  rng.Intn(8),
		replyID: rng.Uint64() >> rng.Intn(64),
		ackProc: rng.Intn(8),
		ackID:   rng.Uint64() >> rng.Intn(64),
	}
	if rng.Intn(3) == 0 {
		r.meta = randMeta(rng)
	}
	for i := rng.Intn(4); i > 0; i-- {
		r.ships = append(r.ships, randShip(rng))
	}
	return r
}

// randShip draws one ship in one of the forms the schedule emits: a
// one-run pair with its own step per side, a one-run pair with a nil
// (dense) step on one side, or a pair with several runs per dimension.
func randShip(rng *rand.Rand) redistShip {
	sh := redistShip{pair: rng.Intn(8)}
	sh.SrcProc, sh.DstProc, sh.SrcSlot, sh.DstSlot = rng.Intn(8), rng.Intn(8), rng.Intn(8), rng.Intn(8)
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
		sh.SrcLo, sh.SrcHi, sh.SrcStep = randInts(rng, 6), randInts(rng, 6), randInts(rng, 6)
		sh.DstLo, sh.DstHi, sh.DstStep = randInts(rng, 6), randInts(rng, 6), randInts(rng, 6)
		sh.Runs = randInts(rng, 3)
	}
	return sh
}

func randResponse(rng *rand.Rand) *wireResponse {
	w := &wireResponse{
		ID:     rng.Uint64() >> rng.Intn(64),
		Status: Status(rng.Intn(8)),
		Vals:   randFloats(rng, 32),
		Pair:   rng.Intn(8),
	}
	return w
}

// roundTrip drives v through its custom codec and requires the decoded
// value to equal v, a second encoding to repeat the first byte for byte
// (a remote retransmit re-encodes the same request), and the codec's
// Size to count every byte. No array-manager payload nests a gob
// fallback value, which Size would count as its type code alone.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	b, err := wire.AppendAny(nil, v, false)
	if err != nil {
		t.Fatalf("AppendAny(%T): %v", v, err)
	}
	if b[0] < wire.CustomBase {
		t.Fatalf("%T did not take the custom codec path (type code %d)", v, b[0])
	}
	if n := wire.SizeAny(v); n != len(b) {
		t.Fatalf("SizeAny(%T) = %d, encoding is %d bytes", v, n, len(b))
	}
	if again, _ := wire.AppendAny(nil, v, false); !bytes.Equal(again, b) {
		t.Fatalf("%T encodes nondeterministically", v)
	}
	got, rest, err := wire.ReadAny(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("ReadAny(%T): %v (rest %d)", v, err, len(rest))
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip changed %T:\n  sent: %#v\n  got:  %#v", v, v, got)
	}
}

func TestAMCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	roundTrip(t, &request{})
	roundTrip(t, &wireResponse{})
	// The ship forms of a redistribution order: a panel pair (rows step 4
	// at the source, dense at the destination), the converse, both sides
	// dense, and a block-cyclic pair with two runs in its one dimension.
	roundTrip(t, &request{op: opRedistSrc, ships: []redistShip{
		{darray.PairBlock{DstProc: 1, SrcLo: []int{1, 0}, SrcHi: []int{510, 128}, SrcStep: []int{4, 1},
			DstLo: []int{0, 128}, DstHi: []int{128, 256}, SrcSlot: 1, DstSlot: 1}, 0},
		{darray.PairBlock{SrcProc: 1, DstProc: 2, SrcLo: []int{0}, SrcHi: []int{4}, DstLo: []int{2}, DstHi: []int{15}, DstStep: []int{4}}, 1},
		{darray.PairBlock{DstProc: 3, SrcLo: []int{0}, SrcHi: []int{4}, DstLo: []int{0}, DstHi: []int{4}}, 2},
		{darray.PairBlock{DstProc: 1, SrcLo: []int{0, 3}, SrcHi: []int{7, 6}, SrcStep: []int{6, 6},
			DstLo: []int{7, 2}, DstHi: []int{10, 3}, SrcSlot: 2, Runs: []int{2}}, 4},
	}})
	// An owner request for a multi-run piece.
	roundTrip(t, &request{op: opReadLocal, lo: []int{0, 3}, hi: []int{7, 6}, step: []int{6, 6}, runs: []int{2}, slot: 1})
	// The reply envelope.
	roundTrip(t, &wireResponse{ID: 7, Status: StatusOK, Vals: []float64{1, 2}, Pair: 3})
	// The metadata codecs on their own, a Meta with nil Dists (pure
	// block) and nil Origins (never promoted) among them.
	roundTrip(t, &darray.Meta{})
	roundTrip(t, &darray.Meta{ID: darray.ID{Proc: 2, Seq: 1}, Type: darray.Int, Dims: []int{8, 8}, Procs: []int{0, 1},
		GridDims: []int{2, 1}, LocalDims: []int{4, 8}, Borders: []int{1, 1, 0, 0}, LocalDimsPlus: []int{6, 8},
		Indexing: grid.ColMajor, GridIndexing: grid.ColMajor, Replicas: 1, Epoch: 2})
	roundTrip(t, darray.ID{})
	roundTrip(t, darray.ID{Proc: -1, Seq: 1 << 40})
	roundTrip(t, []grid.Dist{{Kind: grid.DistCyclic}, {Kind: grid.DistBlockCyclic, B: 64}})
	for i := 0; i < 50; i++ {
		roundTrip(t, randRequest(rng))
		roundTrip(t, randResponse(rng))
		roundTrip(t, randMeta(rng))
	}
}

// TestAMCodecNoGob pins the array-creation payloads to their codecs: a
// create_local request carrying the array's Meta, its reply, and the
// Meta, darray.ID and []grid.Dist values a distributed call's tuples
// carry encode under their codec IDs, never the gob fallback's type
// code, and Size counts every byte of them (it counts a nested gob value
// as its type code alone).
func TestAMCodecNoGob(t *testing.T) {
	meta := &darray.Meta{ID: darray.ID{Proc: 0, Seq: 4}, Dims: []int{128, 128}, Procs: []int{0, 1, 2, 3},
		GridDims: []int{4, 1}, Dists: []grid.Dist{{Kind: grid.DistBlock}, {Kind: grid.DistBlock}},
		LocalDims: []int{32, 128}, Borders: []int{1, 1, 0, 0}, LocalDimsPlus: []int{34, 128}}
	create := &request{op: opCreateLocal, id: meta.ID, meta: meta, src: 0, replyID: 5}
	reply := &wireResponse{ID: 5, Status: StatusOK}
	for _, c := range []struct {
		v    any
		code byte
	}{{create, codecRequest}, {reply, codecResponse}, {meta, codecMeta}, {meta.ID, codecID}, {meta.Dists, codecDists}} {
		b, err := wire.AppendAny(nil, c.v, false)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != c.code || wire.SizeAny(c.v) != len(b) {
			t.Fatalf("%T: type code %d (want %d), Size %d of %d bytes", c.v, b[0], c.code, wire.SizeAny(c.v), len(b))
		}
	}
}

// TestAMReplyGolden pins the reply envelope's bytes, payload words
// included, to the positional format: sizing the frame up front and
// decoding into pooled buffers changed where the bytes go, not which
// bytes a reply (or its retransmitted twin) puts on the wire.
func TestAMReplyGolden(t *testing.T) {
	w := &wireResponse{ID: 300, Status: StatusInvalid, Vals: []float64{0.5, math.Copysign(0, -1), 1e300}, Pair: -2}
	want, _ := hex.DecodeString("21ac020203000000000000e03f00000000000000809c7500883ce4377e03")
	got, err := wire.AppendAny(nil, w, false)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reply encodes as %x (%v), want %x", got, err, want)
	}
}

// TestAMCodecTruncated ensures the positional decoders fail cleanly on
// every truncation instead of panicking or over-reading.
func TestAMCodecTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	meta := randMeta(rng)
	meta.Dists = []grid.Dist{{Kind: grid.DistBlockCyclic, B: 300}, {Kind: grid.DistCyclic}}
	create := randRequest(rng)
	create.meta = meta
	for _, v := range []any{randRequest(rng), create, meta, meta.ID, meta.Dists,
		&wireResponse{ID: 3, Vals: []float64{1}, Pair: 2}} {
		full, err := wire.AppendAny(nil, v, false)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(full); n++ {
			if _, _, err := wire.ReadAny(full[:n]); err == nil {
				t.Fatalf("ReadAny accepted a %d-byte prefix of a %d-byte %T", n, len(full), v)
			}
		}
	}
}

// FuzzAMWireCodec is the randomized codec pin the CI fuzz-smoke job
// runs. Its seed-driven arm requires every protocol value to survive the
// round trip unchanged; its byte arm feeds arbitrary bytes (seeded with
// real request and reply encodings, and with hostile distribution
// counts) to the decoder, which may reject them but must never panic.
func FuzzAMWireCodec(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, v := range []any{randRequest(rng), randResponse(rng)} {
			raw, err := wire.AppendAny(nil, v, false)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed, uint8(seed), raw)
		}
	}
	for _, n := range []uint64{1 << 40, 1<<63 + 5} {
		// A []grid.Dist, and a Meta's Dists after its ID, element type
		// and three empty int lists, each claiming n entries.
		f.Add(int64(0), uint8(0), wire.AppendUvarint([]byte{codecDists}, n))
		f.Add(int64(0), uint8(0), wire.AppendUvarint([]byte{codecMeta, 0, 0, 0, 0, 0, 0}, n))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i <= int(n)%8; i++ {
			if rng.Intn(2) == 0 {
				roundTrip(t, randRequest(rng))
			} else {
				roundTrip(t, randResponse(rng))
			}
		}
		_, _, _ = wire.ReadAny(raw)
	})
}
