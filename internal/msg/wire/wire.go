// Package wire implements the hot-path binary payload codec of the TCP
// transport: a hand-rolled, length-delimited encoding for the payload
// shapes that dominate the data plane ([]float64 slabs, []byte, []int
// offset vectors, nested slabs, the scalar types), a registry through
// which protocol packages install codecs for their own protocol structs
// (arraymgr's request, reply and array metadata; dcall's spawn order and
// result tuple), and a gob fallback that keeps every other
// gob.Register'd type shippable. No protocol payload takes the fallback;
// only user-defined values do (a distributed call's constant of the
// caller's own type), and Encodable checks one before a codec nests it.
//
// Why not gob everywhere: gob prices every byte with reflection and,
// used one encoder per frame (required once frames are relayed and
// batched as raw bytes), re-sends type descriptors on every message.
// E29 measured the resulting wire at 5-8x the in-process switch with
// most of the cost per crossing, not per byte. The codec here writes a
// one-byte type code and then raw little-endian data, so a []float64
// slab costs a memcpy-shaped loop and nothing else; decoded values are
// always fresh heap (the deep-copy-at-the-seam contract holds on the
// receive side by construction).
//
// Encoding conventions:
//   - integers travel as uvarint (counts, ids) or zigzag varint (signed
//     values);
//   - slices are length-prefixed, and a length of zero decodes as nil —
//     the same empty-to-nil collapse gob performs, so a built-in payload
//     decodes to exactly the value its gob fallback delivers
//     (FuzzPayloadCodec); a count the remaining bytes cannot hold is a
//     decode error, never an allocation;
//   - every Read* consumes exactly the bytes the matching Append* wrote
//     and returns the remainder, so values nest without outer length
//     prefixes (a registered codec may call AppendAny/ReadAny for its
//     interface-typed fields).
//
// All Append functions append to the caller's buffer and return it, so
// a pooled scratch buffer serves the whole encode without copies. The
// Size functions report how many bytes the matching Append writes, so a
// caller can draw a buffer that holds the whole encoding and the encode
// never regrows it: regrowing a small buffer word by word is what makes
// a multi-megabyte []float64 payload cost far more than its bytes.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"
)

// Type codes of the any-payload encoding. Codes below CustomBase are
// built in; protocol packages register codecs at CustomBase and above.
const (
	tNil     = 0
	tF64s    = 1 // []float64
	tF64Rows = 2 // [][]float64
	tBytes   = 3 // []byte
	tInts    = 4 // []int
	tIntRows = 5 // [][]int
	tF64     = 6 // float64
	tInt     = 7 // int
	tString  = 8 // string
	tBool    = 9 // bool
	tGob     = 10

	// CustomBase is the first type code available to registered codecs.
	CustomBase = 32
)

// Codec encodes and decodes one concrete payload type under a fixed
// type code. IDs must be stable across processes; since every part runs
// the same binary, compile-time constants per protocol package satisfy
// that by construction.
type Codec struct {
	ID     byte         // >= CustomBase, unique
	Type   reflect.Type // concrete type handled (e.g. reflect.TypeOf(&req{}))
	Append func(b []byte, v any) []byte
	Read   func(b []byte) (any, []byte, error)
	// Size returns the bytes Append writes for v. It sizes the encode
	// buffer, so a value it undercounts still encodes correctly, at the
	// price of a regrow.
	Size func(v any) int
}

var (
	codecMu      sync.RWMutex
	codecsByID   [256]*Codec
	codecsByType = map[reflect.Type]*Codec{}
)

// Register installs a codec. It panics on an out-of-range or colliding
// ID (a build-time bug: IDs are package constants).
func Register(c Codec) {
	if c.ID < CustomBase {
		panic(fmt.Sprintf("wire: codec id %d below CustomBase", c.ID))
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if codecsByID[c.ID] != nil {
		panic(fmt.Sprintf("wire: codec id %d already registered", c.ID))
	}
	cc := c
	codecsByID[c.ID] = &cc
	codecsByType[c.Type] = &cc
}

// ErrShort reports a truncated buffer; errors carry context of what was
// being read.
type DecodeError struct{ What string }

func (e *DecodeError) Error() string { return "wire: truncated or malformed " + e.What }

func short(what string) error { return &DecodeError{What: what} }

// --- integer primitives ---

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// SizeUvarint returns the bytes AppendUvarint writes for v.
func SizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ReadUvarint consumes one unsigned varint.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, short("uvarint")
	}
	return v, b[n:], nil
}

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// ReadVarint consumes one zigzag varint.
func ReadVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, short("varint")
	}
	return v, b[n:], nil
}

// AppendInt / ReadInt are the int-sized convenience forms.
func AppendInt(b []byte, v int) []byte { return AppendVarint(b, int64(v)) }

// SizeInt returns the bytes AppendInt writes for v.
func SizeInt(v int) int {
	x := int64(v)
	return SizeUvarint(uint64(x<<1) ^ uint64(x>>63))
}

func ReadInt(b []byte) (int, []byte, error) {
	v, rest, err := ReadVarint(b)
	return int(v), rest, err
}

// --- slice length convention: plain count; zero decodes as nil ---

// readLen consumes a slice count whose elements take at least size
// encoded bytes each. A count the remaining bytes cannot hold is
// rejected before anything is allocated, so a corrupt or hostile frame
// costs an error, never an out-of-memory crash; the bound also keeps the
// count within int.
func readLen(b []byte, what string, size int) (n int, rest []byte, err error) {
	v, rest, err := ReadUvarint(b)
	if err != nil || v > uint64(len(rest)/size) {
		return 0, b, short(what + " length")
	}
	return int(v), rest, nil
}

// --- typed slices and scalars ---

// AppendFloat64s appends a []float64 as a length prefix plus raw
// little-endian IEEE-754 words. The buffer grows at most once, to hold
// every word, before the word loop runs.
func AppendFloat64s(b []byte, xs []float64) []byte {
	b = AppendUvarint(b, uint64(len(xs)))
	b = slices.Grow(b, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// SizeFloat64s returns the bytes AppendFloat64s writes for xs.
func SizeFloat64s(xs []float64) int { return SizeUvarint(uint64(len(xs))) + 8*len(xs) }

// ReadFloat64s consumes a []float64. The result is freshly allocated.
func ReadFloat64s(b []byte) ([]float64, []byte, error) {
	return ReadFloat64sWith(b, func(n int) []float64 { return make([]float64, n) })
}

// ReadFloat64sWith consumes a []float64 into alloc(n), a slice of
// exactly n elements the caller supplies (a protocol with its own
// buffer pool passes its pool's get). alloc is called only for a count
// the buffer can hold, and never for an empty slice, which decodes as
// nil.
func ReadFloat64sWith(b []byte, alloc func(n int) []float64) ([]float64, []byte, error) {
	n, b, err := readLen(b, "[]float64", 8)
	if err != nil || n == 0 {
		return nil, b, err
	}
	xs := alloc(n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs, b[8*n:], nil
}

// AppendBytes appends a []byte with a length prefix.
func AppendBytes(b []byte, xs []byte) []byte {
	b = AppendUvarint(b, uint64(len(xs)))
	return append(b, xs...)
}

// ReadBytes consumes a []byte. The result is freshly allocated (never
// aliases the input buffer, which transports recycle).
func ReadBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := readLen(b, "[]byte", 1)
	if err != nil || n == 0 {
		return nil, b, err
	}
	xs := make([]byte, n)
	copy(xs, b[:n])
	return xs, b[n:], nil
}

// AppendInts appends a []int as zigzag varints.
func AppendInts(b []byte, xs []int) []byte {
	b = AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendVarint(b, int64(x))
	}
	return b
}

// SizeInts returns the bytes AppendInts writes for xs.
func SizeInts(xs []int) int {
	n := SizeUvarint(uint64(len(xs)))
	for _, x := range xs {
		n += SizeInt(x)
	}
	return n
}

// ReadInts consumes a []int.
func ReadInts(b []byte) ([]int, []byte, error) {
	n, b, err := readLen(b, "[]int", 1)
	if err != nil || n == 0 {
		return nil, b, err
	}
	xs := make([]int, n)
	for i := range xs {
		var v int64
		v, b, err = ReadVarint(b)
		if err != nil {
			return nil, b, err
		}
		xs[i] = int(v)
	}
	return xs, b, nil
}

// AppendIntRows / ReadIntRows handle [][]int (gather index vectors).
func AppendIntRows(b []byte, rows [][]int) []byte {
	b = AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = AppendInts(b, r)
	}
	return b
}

// SizeIntRows returns the bytes AppendIntRows writes for rows.
func SizeIntRows(rows [][]int) int {
	n := SizeUvarint(uint64(len(rows)))
	for _, r := range rows {
		n += SizeInts(r)
	}
	return n
}

func ReadIntRows(b []byte) ([][]int, []byte, error) {
	n, b, err := readLen(b, "[][]int", 1)
	if err != nil || n == 0 {
		return nil, b, err
	}
	rows := make([][]int, n)
	for i := range rows {
		rows[i], b, err = ReadInts(b)
		if err != nil {
			return nil, b, err
		}
	}
	return rows, b, nil
}

// AppendFloat64Rows / ReadFloat64Rows handle [][]float64 (halo slabs).
func AppendFloat64Rows(b []byte, rows [][]float64) []byte {
	b = AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = AppendFloat64s(b, r)
	}
	return b
}

// SizeFloat64Rows returns the bytes AppendFloat64Rows writes for rows.
func SizeFloat64Rows(rows [][]float64) int {
	n := SizeUvarint(uint64(len(rows)))
	for _, r := range rows {
		n += SizeFloat64s(r)
	}
	return n
}

func ReadFloat64Rows(b []byte) ([][]float64, []byte, error) {
	n, b, err := readLen(b, "[][]float64", 1)
	if err != nil || n == 0 {
		return nil, b, err
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i], b, err = ReadFloat64s(b)
		if err != nil {
			return nil, b, err
		}
	}
	return rows, b, nil
}

// AppendString / ReadString.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// SizeString returns the bytes AppendString writes for s.
func SizeString(s string) int { return SizeUvarint(uint64(len(s))) + len(s) }

func ReadString(b []byte) (string, []byte, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return "", b, err
	}
	if uint64(len(b)) < n {
		return "", b, short("string body")
	}
	return string(b[:n]), b[n:], nil
}

// AppendBool / ReadBool.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func ReadBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, b, short("bool")
	}
	return b[0] != 0, b[1:], nil
}

// AppendFloat64 / ReadFloat64.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func ReadFloat64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, b, short("float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// --- the any-payload encoding ---

// gobAny wraps an interface value so gob carries its concrete type by
// name; the types themselves are gob.Register'd by their packages, as
// before.
type gobAny struct{ V any }

// AppendAny appends one payload value: a one-byte type code, then the
// typed encoding. Hot payload shapes take the binary fast path, types
// with a registered codec take theirs, and everything else rides the
// gob fallback (self-describing, length-prefixed). forceGob routes even
// fast-path shapes through gob, for the codec-vs-gob equivalence tests
// and for pricing the fallback; the transport always passes false.
func AppendAny(b []byte, v any, forceGob bool) ([]byte, error) {
	if v == nil {
		return append(b, tNil), nil
	}
	if !forceGob {
		switch x := v.(type) {
		case []float64:
			return AppendFloat64s(append(b, tF64s), x), nil
		case [][]float64:
			return AppendFloat64Rows(append(b, tF64Rows), x), nil
		case []byte:
			return AppendBytes(append(b, tBytes), x), nil
		case []int:
			return AppendInts(append(b, tInts), x), nil
		case [][]int:
			return AppendIntRows(append(b, tIntRows), x), nil
		case float64:
			return AppendFloat64(append(b, tF64), x), nil
		case int:
			return AppendInt(append(b, tInt), x), nil
		case string:
			return AppendString(append(b, tString), x), nil
		case bool:
			return AppendBool(append(b, tBool), x), nil
		}
		if c := codecFor(v); c != nil {
			return c.Append(append(b, c.ID), v), nil
		}
	}
	var gb bytes.Buffer
	if err := gobEncode(&gb, v); err != nil {
		return b, err
	}
	b = append(b, tGob)
	b = AppendUvarint(b, uint64(gb.Len()))
	return append(b, gb.Bytes()...), nil
}

func gobEncode(w io.Writer, v any) error {
	if err := gob.NewEncoder(w).Encode(&gobAny{V: v}); err != nil {
		return fmt.Errorf("wire: gob fallback for %T: %w", v, err)
	}
	return nil
}

// Encodable reports the error AppendAny(b, v, false) would return for v,
// without keeping an encoding: nil at once for a built-in shape or a
// registered codec, which always encode, and the gob fallback's verdict
// otherwise. A registered codec's Append cannot return an error, so a
// protocol that nests caller-supplied values checks them here before
// the send.
func Encodable(v any) error {
	switch v.(type) {
	case nil, []float64, [][]float64, []byte, []int, [][]int, float64, int, string, bool:
		return nil
	}
	if codecFor(v) != nil {
		return nil
	}
	return gobEncode(io.Discard, v)
}

func codecFor(v any) *Codec {
	codecMu.RLock()
	c := codecsByType[reflect.TypeOf(v)]
	codecMu.RUnlock()
	return c
}

// SizeAny returns the bytes AppendAny(b, v, false) writes for v: exact
// for the built-in shapes and for registered codecs, whose Size reports
// theirs. A value that rides the gob fallback counts only its type code;
// its encoding is small and grows the buffer as it goes.
func SizeAny(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case []float64:
		return 1 + SizeFloat64s(x)
	case [][]float64:
		return 1 + SizeFloat64Rows(x)
	case []byte:
		return 1 + SizeUvarint(uint64(len(x))) + len(x)
	case []int:
		return 1 + SizeInts(x)
	case [][]int:
		return 1 + SizeIntRows(x)
	case float64:
		return 1 + 8
	case int:
		return 1 + SizeInt(x)
	case string:
		return 1 + SizeString(x)
	case bool:
		return 1 + 1
	}
	if c := codecFor(v); c != nil {
		return 1 + c.Size(v)
	}
	return 1
}

// ReadAny consumes one payload value written by AppendAny. Decoded
// values are fresh heap and never alias b.
func ReadAny(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, b, short("payload type code")
	}
	code, b := b[0], b[1:]
	switch code {
	case tNil:
		return nil, b, nil
	case tF64s:
		return retAny(ReadFloat64s(b))
	case tF64Rows:
		return retAny(ReadFloat64Rows(b))
	case tBytes:
		return retAny(ReadBytes(b))
	case tInts:
		return retAny(ReadInts(b))
	case tIntRows:
		return retAny(ReadIntRows(b))
	case tF64:
		return retAny(ReadFloat64(b))
	case tInt:
		return retAny(ReadInt(b))
	case tString:
		return retAny(ReadString(b))
	case tBool:
		return retAny(ReadBool(b))
	case tGob:
		n, b, err := ReadUvarint(b)
		if err != nil {
			return nil, b, err
		}
		if uint64(len(b)) < n {
			return nil, b, short("gob payload body")
		}
		var w gobAny
		if err := gob.NewDecoder(bytes.NewReader(b[:n])).Decode(&w); err != nil {
			return nil, b, fmt.Errorf("wire: gob payload: %w", err)
		}
		return w.V, b[n:], nil
	default:
		codecMu.RLock()
		c := codecsByID[code]
		codecMu.RUnlock()
		if c == nil {
			return nil, b, fmt.Errorf("wire: unknown payload type code %d", code)
		}
		return c.Read(b)
	}
}

func retAny[T any](v T, rest []byte, err error) (any, []byte, error) {
	if err != nil {
		return nil, rest, err
	}
	return v, rest, nil
}
