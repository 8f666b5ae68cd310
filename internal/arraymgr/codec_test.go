package arraymgr

import (
	"bytes"
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
		Origins:       randInts(rng, 4),
	}
	if rng.Intn(2) == 0 {
		m.Dists = []grid.Dist{{Kind: grid.DistKind(rng.Intn(3)), B: rng.Intn(8)}}
	}
	return m
}

// randRequest draws a request with every field the codec carries set at
// random; the coordinator-only fields (spec, ndims, borders, indexing)
// and the channels stay zero, as on any request that crosses the wire.
func randRequest(rng *rand.Rand) *request {
	r := &request{
		op:      opCode(rng.Intn(int(opUpdateMeta) + 1)),
		id:      darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)},
		id2:     darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)},
		gidx:    randInts(rng, 3),
		offs:    randInts(rng, 8),
		lo:      randInts(rng, 3),
		hi:      randInts(rng, 3),
		step:    randInts(rng, 3),
		lo2:     randInts(rng, 3),
		vals:    randFloats(rng, 32),
		slot:    rng.Intn(16),
		which:   []string{"", "meta", "borders"}[rng.Intn(3)],
		inner:   []opCode{0, opCreateLocal, opFreeLocal, opCopyLocal}[rng.Intn(4)],
		procs:   randInts(rng, 4),
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
	if rng.Intn(3) == 0 {
		r.gidxs = [][]int{randInts(rng, 3), randInts(rng, 3)}
	}
	for i := rng.Intn(4); i > 0; i-- {
		r.ships = append(r.ships, randShip(rng))
	}
	return r
}

// randShip draws one ship in one of the forms the schedule emits: a
// descriptor with its own step per side, a descriptor with a nil (dense)
// step on one side, or an offset set.
func randShip(rng *rand.Rand) redistShip {
	sh := redistShip{dstProc: rng.Intn(8), srcSlot: rng.Intn(8), dstSlot: rng.Intn(8), pair: rng.Intn(8)}
	switch rng.Intn(3) {
	case 0:
		sh.srcLo, sh.srcHi, sh.srcStep = randInts(rng, 3), randInts(rng, 3), randInts(rng, 3)
		sh.dstLo, sh.dstHi, sh.dstStep = randInts(rng, 3), randInts(rng, 3), randInts(rng, 3)
	case 1:
		sh.srcLo, sh.srcHi = randInts(rng, 3), randInts(rng, 3)
		sh.dstLo, sh.dstHi = randInts(rng, 3), randInts(rng, 3)
		if rng.Intn(2) == 0 {
			sh.srcStep = randInts(rng, 3)
		} else {
			sh.dstStep = randInts(rng, 3)
		}
	default:
		sh.srcOffs, sh.dstOffs = randInts(rng, 6), randInts(rng, 6)
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

// roundTrip drives v through its custom codec and requires the decoded
// value to equal v, and a second encoding to repeat the first byte for
// byte (a remote retransmit re-encodes the same request).
func roundTrip(t *testing.T, v any) {
	t.Helper()
	b, err := wire.AppendAny(nil, v, false)
	if err != nil {
		t.Fatalf("AppendAny(%T): %v", v, err)
	}
	if b[0] < wire.CustomBase {
		t.Fatalf("%T did not take the custom codec path (type code %d)", v, b[0])
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
	// dense, and an offset set.
	roundTrip(t, &request{op: opRedistSrc, ships: []redistShip{
		{dstProc: 1, srcLo: []int{1, 0}, srcHi: []int{510, 128}, srcStep: []int{4, 1},
			dstLo: []int{0, 128}, dstHi: []int{128, 256}, srcSlot: 1, dstSlot: 1, pair: 0},
		{dstProc: 2, srcLo: []int{0}, srcHi: []int{4}, dstLo: []int{2}, dstHi: []int{15}, dstStep: []int{4}, pair: 1},
		{dstProc: 3, srcLo: []int{0}, srcHi: []int{4}, dstLo: []int{0}, dstHi: []int{4}, pair: 2},
		{dstProc: 1, srcOffs: []int{0, 3, 6}, dstOffs: []int{7, 2, 1}, srcSlot: 2, pair: 4},
	}})
	// The reply envelope with every Info shape a reply carries.
	for _, info := range []any{nil, 42, randMeta(rng), []grid.Dist{{Kind: grid.DistBlockCyclic, B: 3}}} {
		roundTrip(t, &wireResponse{ID: 7, Status: StatusOK, Vals: []float64{1, 2}, Info: info, Pair: 3})
	}
	for i := 0; i < 50; i++ {
		roundTrip(t, randRequest(rng))
		roundTrip(t, randResponse(rng))
	}
}

// TestAMCodecTruncated ensures the positional decoders fail cleanly on
// every truncation instead of panicking or over-reading.
func TestAMCodecTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	full, err := wire.AppendAny(nil, randRequest(rng), false)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, _, err := wire.ReadAny(full[:n]); err == nil {
			t.Fatalf("ReadAny accepted a %d-byte prefix of a %d-byte request", n, len(full))
		}
	}
}

// FuzzAMWireCodec is the randomized codec pin the CI fuzz-smoke job
// runs. Its seed-driven arm requires every protocol value to survive the
// round trip unchanged; its byte arm feeds arbitrary bytes (seeded with
// real request encodings) to the decoder, which may reject them but must
// never panic.
func FuzzAMWireCodec(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		raw, err := wire.AppendAny(nil, randRequest(rand.New(rand.NewSource(seed))), false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, uint8(seed), raw)
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
