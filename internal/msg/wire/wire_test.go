package wire

import (
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func init() {
	// The builtin payload shapes, registered for the gob fallback exactly
	// as the transport package registers them in production.
	gob.Register([]float64(nil))
	gob.Register([][]float64(nil))
	gob.Register([]int(nil))
	gob.Register([][]int(nil))
	gob.Register(float64(0))
	gob.Register(int(0))
	gob.Register("")
	gob.Register(false)
}

func roundTrip(t *testing.T, v any, forceGob bool) any {
	t.Helper()
	b, err := AppendAny(nil, v, forceGob)
	if err != nil {
		t.Fatalf("AppendAny(%T, forceGob=%v): %v", v, forceGob, err)
	}
	got, rest, err := ReadAny(b)
	if err != nil {
		t.Fatalf("ReadAny(%T): %v", v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("ReadAny(%T) left %d trailing bytes", v, len(rest))
	}
	return got
}

// TestAnyRoundTrip pins the typed fast paths: every builtin payload
// shape survives a round trip, on both the binary path and the gob
// fallback, with the same empty-to-nil collapse gob performs (so the
// binary codec is an exact drop-in for the PR-9 gob wire).
func TestAnyRoundTrip(t *testing.T) {
	cases := []struct{ in, want any }{
		{nil, nil},
		{[]float64{1, 2.5, -3e300, math.Inf(1), 0}, []float64{1, 2.5, -3e300, math.Inf(1), 0}},
		{[]float64{}, []float64(nil)},
		{[]float64(nil), []float64(nil)},
		{[][]float64{{1, 2}, nil, {}, {3}}, [][]float64{{1, 2}, nil, nil, {3}}},
		{[]byte{0, 1, 255}, []byte{0, 1, 255}},
		{[]byte(nil), []byte(nil)},
		{[]int{0, -1, 1 << 40, -(1 << 40)}, []int{0, -1, 1 << 40, -(1 << 40)}},
		{[][]int{{1}, {2, 3}, nil}, [][]int{{1}, {2, 3}, nil}},
		{3.25, 3.25},
		{-17, -17},
		{"hello wire", "hello wire"},
		{"", ""},
		{true, true},
		{false, false},
	}
	for _, c := range cases {
		for _, forceGob := range []bool{false, true} {
			got := roundTrip(t, c.in, forceGob)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("round trip (forceGob=%v) of %#v gave %#v, want %#v", forceGob, c.in, got, c.want)
			}
		}
	}
}

// TestNaNBitsPreserved pins bit-exactness through the binary float
// path: the codec must not canonicalize NaN payloads.
func TestNaNBitsPreserved(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000001234)
	got := roundTrip(t, []float64{nan}, false).([]float64)
	if math.Float64bits(got[0]) != 0x7ff8000000001234 {
		t.Fatalf("NaN bits changed: %x", math.Float64bits(got[0]))
	}
}

// TestDecodedPayloadDoesNotAlias pins the receive-side copy contract:
// a decoded []float64 must be fresh heap, never a view of the input
// buffer (which transports recycle).
func TestDecodedPayloadDoesNotAlias(t *testing.T) {
	b, err := AppendAny(nil, []float64{1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := ReadAny(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xFF
	}
	got := v.([]float64)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("decoded slice aliases the wire buffer: %v", got)
	}
}

// TestTruncatedInputs ensures every decoder fails cleanly on truncated
// buffers instead of panicking or over-reading.
func TestTruncatedInputs(t *testing.T) {
	full, err := AppendAny(nil, []float64{1, 2, 3, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, _, err := ReadAny(full[:n]); err == nil {
			t.Fatalf("ReadAny accepted a %d-byte prefix of a %d-byte payload", n, len(full))
		}
	}
}

// hostileLength builds a payload of the given slice shape whose count
// claims n elements, followed by a few bytes of body.
func hostileLength(code byte, n uint64) []byte {
	return append(AppendUvarint([]byte{code}, n), 1, 2, 3)
}

// TestHostileLength feeds every slice shape a count far beyond its
// payload. Each must be a decode error: a count of 2^40 used to exhaust
// memory (a fatal error recover cannot catch) and one of 2^63 or more to
// panic in makeslice, so one bad frame took down the receiving process.
func TestHostileLength(t *testing.T) {
	shapes := []struct {
		name string
		code byte
	}{
		{"[]float64", tF64s},
		{"[][]float64", tF64Rows},
		{"[]byte", tBytes},
		{"[]int", tInts},
		{"[][]int", tIntRows},
	}
	for _, s := range shapes {
		for _, n := range []uint64{1 << 40, 1<<63 + 5} {
			if _, _, err := ReadAny(hostileLength(s.code, n)); err == nil {
				t.Errorf("%s with count %d decoded without error", s.name, n)
			}
		}
	}
}

// randomPayload builds one randomized payload value covering every
// builtin shape.
func randomPayload(rng *rand.Rand) any {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		xs := make([]float64, rng.Intn(20))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	case 2:
		rows := make([][]float64, rng.Intn(5))
		for i := range rows {
			rows[i] = make([]float64, rng.Intn(6))
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		return rows
	case 3:
		xs := make([]byte, rng.Intn(32))
		rng.Read(xs)
		return xs
	case 4:
		xs := make([]int, rng.Intn(16))
		for i := range xs {
			xs[i] = rng.Intn(1<<20) - 1<<19
		}
		return xs
	case 5:
		rows := make([][]int, rng.Intn(4))
		for i := range rows {
			rows[i] = make([]int, rng.Intn(5))
			for j := range rows[i] {
				rows[i][j] = rng.Intn(100) - 50
			}
		}
		return rows
	case 6:
		return rng.NormFloat64()
	case 7:
		return rng.Intn(1<<30) - 1<<29
	case 8:
		return string(rune('a' + rng.Intn(26)))
	default:
		return rng.Intn(2) == 0
	}
}

// FuzzPayloadCodec drives randomized payloads through both the binary
// codec and the gob fallback and requires the two decoded results to be
// equivalent — the codec must be a drop-in replacement for gob on every
// payload it fast-paths.
func FuzzPayloadCodec(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i <= int(n)%16; i++ {
			v := randomPayload(rng)

			bin, err := AppendAny(nil, v, false)
			if err != nil {
				t.Fatalf("binary AppendAny(%T): %v", v, err)
			}
			gotBin, rest, err := ReadAny(bin)
			if err != nil || len(rest) != 0 {
				t.Fatalf("binary ReadAny(%T): %v (rest %d)", v, err, len(rest))
			}

			gb, err := AppendAny(nil, v, true)
			if err != nil {
				t.Fatalf("gob AppendAny(%T): %v", v, err)
			}
			gotGob, rest, err := ReadAny(gb)
			if err != nil || len(rest) != 0 {
				t.Fatalf("gob ReadAny(%T): %v (rest %d)", v, err, len(rest))
			}

			// The gob round trip defines the reference semantics (it is
			// what the PR-9 wire delivered); the binary codec must agree
			// with it exactly, empty-to-nil collapse included.
			if !reflect.DeepEqual(gotBin, gotGob) {
				t.Fatalf("codec disagreement on %#v: binary %#v vs gob %#v", v, gotBin, gotGob)
			}
		}
	})
}

// FuzzReadAnyRobust feeds arbitrary bytes to the decoder: it may reject
// them but must never panic or hang.
func FuzzReadAnyRobust(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{tF64s, 200, 1, 2, 3})
	f.Add([]byte{tGob, 5, 1, 2})
	seed, _ := AppendAny(nil, []float64{1, 2}, false)
	f.Add(seed)
	f.Add([]byte{tInts, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20})
	for _, code := range []byte{tF64s, tF64Rows, tBytes, tInts, tIntRows} {
		for _, n := range []uint64{1 << 40, 1<<63 + 5} {
			f.Add(hostileLength(code, n))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, _, err := ReadAny(b)
		_ = v
		_ = err
	})
}
