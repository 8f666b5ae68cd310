package dcall

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg/wire"
)

// gobConst is a user-defined constant type: it has no codec, so it
// rides the wire's gob fallback inside a spawn order.
type gobConst struct {
	Name  string
	Steps []int
}

func init() { gob.Register(gobConst{}) }

// randConst draws a constant of every shape a spawn order carries: the
// built-in payload shapes, the array manager's registered types, and a
// gob-registered user type. An empty slice is nil, which is what the
// wire decodes it as.
func randConst(rng *rand.Rand) any {
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		return rng.Intn(1<<20) - 1<<19
	case 2:
		return rng.NormFloat64()
	case 3:
		return rng.Intn(2) == 0
	case 4:
		return []string{"", "ocean", "atmosphere"}[rng.Intn(3)]
	case 5:
		var xs []float64
		for i := rng.Intn(16); i > 0; i-- {
			xs = append(xs, rng.NormFloat64())
		}
		return xs
	case 6:
		var xs []int
		for i := rng.Intn(8); i > 0; i-- {
			xs = append(xs, rng.Intn(64))
		}
		return xs
	case 7:
		return darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)}
	default:
		return gobConst{Name: "stage", Steps: []int{rng.Intn(9), 2}}
	}
}

func randSpawn(rng *rand.Rand) *wireSpawn {
	w := &wireSpawn{
		Program:    []string{"", "climate:diffuse", "noop"}[rng.Intn(3)],
		Index:      rng.Intn(8),
		CallID:     rng.Uint64() >> rng.Intn(64),
		ResultProc: rng.Intn(8),
		Resident:   rng.Intn(2) == 0,
	}
	for i := rng.Intn(5); i > 0; i-- {
		w.Procs = append(w.Procs, rng.Intn(16))
	}
	for i := rng.Intn(7); i > 0; i-- {
		switch kind := rng.Intn(paramKinds); kind {
		case paramConst:
			w.Params = append(w.Params, wireParam{Kind: kind, Const: randConst(rng)})
		case paramLocal:
			w.Params = append(w.Params, wireParam{Kind: kind, ID: darray.ID{Proc: rng.Intn(8), Seq: rng.Intn(1000)}})
		case paramReduce:
			w.Params = append(w.Params, wireParam{Kind: kind, Length: 1 + rng.Intn(256),
				Name: []string{"climate:edges", "sum"}[rng.Intn(2)]})
		default:
			w.Params = append(w.Params, wireParam{Kind: kind})
		}
	}
	return w
}

func randStep(rng *rand.Rand) *stepOrder {
	o := &stepOrder{Close: rng.Intn(4) == 0}
	for i := rng.Intn(4); i > 0; i-- {
		o.Vals = append(o.Vals, randConst(rng))
	}
	return o
}

func randTuple(rng *rand.Rand) tuple {
	t := tuple{Status: rng.Intn(8) - 1}
	for i := rng.Intn(3); i > 0; i-- {
		row := make([]float64, 1+rng.Intn(4))
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		t.Reductions = append(t.Reductions, row)
	}
	return t
}

// ridesGob reports whether a spawn or step order carries a value that
// takes the gob fallback, whose bytes wire.SizeAny does not count.
func ridesGob(v any) bool {
	var vals []any
	switch x := v.(type) {
	case *wireSpawn:
		for _, p := range x.Params {
			vals = append(vals, p.Const)
		}
	case *stepOrder:
		vals = x.Vals
	}
	for _, c := range vals {
		if _, ok := c.(gobConst); ok {
			return true
		}
	}
	return false
}

// roundTrip drives v through its codec and requires the type code to be
// code, the decoded value to equal v, a second encoding to repeat the
// first byte for byte, and Size to count every byte outside the gob
// fallback.
func roundTrip(t *testing.T, v any, code byte) {
	t.Helper()
	b, err := wire.AppendAny(nil, v, false)
	if err != nil {
		t.Fatalf("AppendAny(%T): %v", v, err)
	}
	if b[0] != code {
		t.Fatalf("%T encoded under type code %d, want its codec %d", v, b[0], code)
	}
	if n := wire.SizeAny(v); n > len(b) || (!ridesGob(v) && n != len(b)) {
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

func TestDcallCodecRoundTrip(t *testing.T) {
	roundTrip(t, &wireSpawn{}, codecSpawn)
	roundTrip(t, tuple{}, codecTuple)
	roundTrip(t, &stepOrder{}, codecStep)
	// Every parameter kind, and a constant of every registered shape.
	roundTrip(t, &wireSpawn{Program: "p", Procs: []int{2, 3}, Index: 1, CallID: 1<<40 + 9, ResultProc: 0,
		Params: []wireParam{
			{Kind: paramConst, Const: 128},
			{Kind: paramConst, Const: 0.15},
			{Kind: paramConst, Const: []float64{1, -2.5}},
			{Kind: paramConst, Const: [][]int{{1}, {2, 3}}},
			{Kind: paramConst, Const: []grid.Dist{{Kind: grid.DistBlockCyclic, B: 4}}},
			{Kind: paramConst, Const: darray.ID{Proc: 1, Seq: 7}},
			{Kind: paramConst},
			{Kind: paramLocal, ID: darray.ID{Proc: 3, Seq: 12}},
			{Kind: paramIndex},
			{Kind: paramStatus},
			{Kind: paramStepConst},
			{Kind: paramReduce, Length: 256, Name: "climate:edges"},
		}}, codecSpawn)
	// A session member's spawn order.
	roundTrip(t, &wireSpawn{Program: "p", Procs: []int{2, 3}, CallID: 5, Resident: true,
		Params: []wireParam{{Kind: paramStepConst}, {Kind: paramReduce, Length: 2, Name: "sum"}}}, codecSpawn)
	// A user-defined constant rides gob inside the binary spawn order.
	roundTrip(t, &wireSpawn{Program: "p", Params: []wireParam{{Kind: paramConst, Const: gobConst{Name: "x", Steps: []int{4}}}}}, codecSpawn)
	// Step orders: a close, one row, values of several shapes.
	roundTrip(t, &stepOrder{Close: true}, codecStep)
	roundTrip(t, &stepOrder{Vals: []any{[]float64{1, -2.5, 3}}}, codecStep)
	roundTrip(t, &stepOrder{Vals: []any{7, nil, "x", darray.ID{Proc: 1, Seq: 2}, gobConst{Name: "g"}}}, codecStep)
	// Reductions: none, and one per reduction variable.
	roundTrip(t, tuple{Status: StatusError}, codecTuple)
	roundTrip(t, tuple{Status: 3, Reductions: [][]float64{{1, 2}, {-0.5}}}, codecTuple)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		roundTrip(t, randSpawn(rng), codecSpawn)
		roundTrip(t, randTuple(rng), codecTuple)
		roundTrip(t, randStep(rng), codecStep)
	}
}

// TestDcallCodecTruncated requires every proper prefix of a spawn order,
// a step or close order and a tuple to be rejected, never decoded short
// or panicking, and a spawn order with a negative reduction length to be
// rejected before a wrapper could allocate it.
func TestDcallCodecTruncated(t *testing.T) {
	neg, err := wire.AppendAny(nil, &wireSpawn{Params: []wireParam{{Kind: paramReduce, Length: -1, Name: "x"}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadAny(neg); err == nil {
		t.Fatal("ReadAny accepted a spawn order with a negative reduction length")
	}
	w := &wireSpawn{Program: "climate:diffuse", Procs: []int{2, 3}, Index: 1, CallID: 77, ResultProc: 1, Resident: true,
		Params: []wireParam{
			{Kind: paramConst, Const: []float64{1, 2, 3}},
			{Kind: paramConst, Const: gobConst{Name: "g"}},
			{Kind: paramLocal, ID: darray.ID{Proc: 2, Seq: 5}},
			{Kind: paramIndex},
			{Kind: paramStatus},
			{Kind: paramStepConst},
			{Kind: paramReduce, Length: 256, Name: "climate:edges"},
		}}
	step := &stepOrder{Vals: []any{[]float64{1, 2}, gobConst{Name: "g"}, 3}}
	for _, v := range []any{w, step, &stepOrder{Close: true}, tuple{Status: 2, Reductions: [][]float64{{1}, {2, 3}}}} {
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

// TestUnencodableConstRejected: a constant the wire cannot encode fails
// the conversion with StatusError instead of reaching a codec, whose
// Append could only panic.
func TestUnencodableConstRejected(t *testing.T) {
	type unregistered struct{ X int }
	for _, c := range []any{unregistered{1}, make(chan int), func() {}} {
		if _, st := wireParams([]Param{Const(1), Const(c)}); st != StatusError {
			t.Errorf("wireParams with a %T constant: status %d, want StatusError", c, st)
		}
	}
	if _, st := wireParams([]Param{Const(gobConst{})}); st != StatusOK {
		t.Errorf("wireParams with a gob-registered constant: status %d", st)
	}
}

// FuzzDcallWireCodec is the randomized codec pin the CI fuzz-smoke job
// runs. Its seed-driven arm requires spawn orders, step orders and
// tuples to survive the round trip unchanged; its byte arm feeds
// arbitrary bytes (seeded with real encodings and with hostile counts)
// to the decoder, which may reject them but must never panic or
// allocate what the bytes cannot hold.
func FuzzDcallWireCodec(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, v := range []any{randSpawn(rng), randTuple(rng), randStep(rng)} {
			raw, err := wire.AppendAny(nil, v, false)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed, uint8(seed), raw)
		}
	}
	// A session member's spawn order, a step order and a close order.
	for _, v := range []any{
		&wireSpawn{Program: "climate:diffuse", Procs: []int{2, 3}, CallID: 9, Resident: true, Params: []wireParam{
			{Kind: paramStepConst}, {Kind: paramReduce, Length: 256, Name: "climate:edges"}}},
		&stepOrder{Vals: []any{[]float64{1, 2}}},
		&stepOrder{Close: true},
	} {
		raw, err := wire.AppendAny(nil, v, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int64(0), uint8(0), raw)
	}
	huge := []uint64{1 << 40, 1<<63 + 5}
	for _, n := range huge {
		// A program name, a group, a parameter list and a reduction list
		// each claiming n entries.
		f.Add(int64(0), uint8(0), wire.AppendUvarint([]byte{codecSpawn}, n))
		f.Add(int64(0), uint8(0), wire.AppendUvarint([]byte{codecSpawn, 0}, n))
		f.Add(int64(0), uint8(0), wire.AppendUvarint([]byte{codecSpawn, 0, 0, 0, 0, 0}, n))
		f.Add(int64(0), uint8(0), wire.AppendUvarint([]byte{codecTuple, 0}, n))
		f.Add(int64(0), uint8(0), wire.AppendUvarint([]byte{codecStep, 0}, n))
	}
	// A spawn order's parameter of an unknown kind.
	f.Add(int64(0), uint8(0), []byte{codecSpawn, 0, 0, 0, 0, 0, 0, 1, paramKinds, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i <= int(n)%8; i++ {
			roundTrip(t, randSpawn(rng), codecSpawn)
			roundTrip(t, randTuple(rng), codecTuple)
			roundTrip(t, randStep(rng), codecStep)
		}
		_, _, _ = wire.ReadAny(raw)
	})
}
