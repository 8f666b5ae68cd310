// Binary wire codecs for the distributed-call protocol: the spawn order
// a caller ships to every remote group member, a session's step and
// close orders, and the result tuple the combine tree and a remote rank
// 0 send back. Every cross-process call moves one spawn order per remote
// member and one tuple per remote tree edge, and every session step one
// step order per remote tree edge, so they get wire.Codec entries
// instead of riding the gob fallback, which rebuilds its type
// descriptors on every message.
//
// Layouts are positional and deterministic, like the array manager's
// (internal/arraymgr/codec.go): a spawn order is its program name,
// group, index, call id, result processor and resident flag, then each
// parameter as its kind, its array ID as two ints, its reduction length
// and combiner name, and its constant through wire.AppendAny (fields a
// kind does not use are zero); a step order is its close
// flag and its values through wire.AppendAny; a tuple is its status and
// its reductions as [][]float64. A value of a built-in shape or a
// registered type takes the binary path; only a user-defined constant
// type takes the gob fallback, and call and Step check it encodes
// before anything is sent (a codec's Append cannot return an error).
package dcall

import (
	"fmt"
	"reflect"

	"repro/internal/msg/wire"
)

// Codec IDs. Stable protocol constants, above the array manager's.
const (
	codecSpawn = wire.CustomBase + 5
	codecTuple = wire.CustomBase + 6
	codecStep  = wire.CustomBase + 7
)

func init() {
	wire.Register(wire.Codec{
		ID:     codecSpawn,
		Type:   reflect.TypeOf(&wireSpawn{}),
		Append: appendSpawn,
		Read:   readSpawn,
		Size:   sizeSpawn,
	})
	wire.Register(wire.Codec{
		ID:     codecTuple,
		Type:   reflect.TypeOf(tuple{}),
		Append: appendTuple,
		Read:   readTuple,
		Size:   sizeTuple,
	})
	wire.Register(wire.Codec{
		ID:     codecStep,
		Type:   reflect.TypeOf(&stepOrder{}),
		Append: appendStep,
		Read:   readStep,
		Size:   sizeStep,
	})
}

func appendSpawn(b []byte, v any) []byte {
	w := v.(*wireSpawn)
	b = wire.AppendString(b, w.Program)
	b = wire.AppendInts(b, w.Procs)
	b = wire.AppendInt(b, w.Index)
	b = wire.AppendUvarint(b, w.CallID)
	b = wire.AppendInt(b, w.ResultProc)
	b = wire.AppendBool(b, w.Resident)
	b = wire.AppendUvarint(b, uint64(len(w.Params)))
	for _, p := range w.Params {
		b = append(b, byte(p.Kind))
		b = wire.AppendInt(b, p.ID.Proc)
		b = wire.AppendInt(b, p.ID.Seq)
		b = wire.AppendInt(b, p.Length)
		b = wire.AppendString(b, p.Name)
		b = appendValue(b, p.Const)
	}
	return b
}

// appendValue encodes a constant or a step value. call and Step reject
// an unencodable one before they build an order, so an error here is a
// protocol bug.
func appendValue(b []byte, v any) []byte {
	b, err := wire.AppendAny(b, v, false)
	if err != nil {
		panic(fmt.Sprintf("dcall: unencodable constant: %v", err))
	}
	return b
}

func sizeSpawn(v any) int {
	w := v.(*wireSpawn)
	n := wire.SizeString(w.Program) + wire.SizeInts(w.Procs) + wire.SizeInt(w.Index) +
		wire.SizeUvarint(w.CallID) + wire.SizeInt(w.ResultProc) + 1 + wire.SizeUvarint(uint64(len(w.Params)))
	for _, p := range w.Params {
		n += 1 + wire.SizeInt(p.ID.Proc) + wire.SizeInt(p.ID.Seq) + wire.SizeInt(p.Length) +
			wire.SizeString(p.Name) + wire.SizeAny(p.Const)
	}
	return n
}

func readSpawn(b []byte) (any, []byte, error) {
	var err error
	w := &wireSpawn{}
	if w.Program, b, err = wire.ReadString(b); err != nil {
		return nil, b, err
	}
	if w.Procs, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Index, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.CallID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if w.ResultProc, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.Resident, b, err = wire.ReadBool(b); err != nil {
		return nil, b, err
	}
	n, b, err := wire.ReadUvarint(b)
	if err != nil {
		return nil, b, err
	}
	// Each parameter encodes a kind byte, three varints, a string length
	// and a type code.
	if n > uint64(len(b)/6) {
		return nil, b, &wire.DecodeError{What: "spawn parameter count"}
	}
	if n > 0 {
		w.Params = make([]wireParam, n)
	}
	for i := range w.Params {
		p := &w.Params[i]
		if len(b) < 1 || b[0] >= paramKinds {
			return nil, b, &wire.DecodeError{What: "spawn parameter kind"}
		}
		p.Kind, b = int(b[0]), b[1:]
		if p.ID.Proc, b, err = wire.ReadInt(b); err != nil {
			return nil, b, err
		}
		if p.ID.Seq, b, err = wire.ReadInt(b); err != nil {
			return nil, b, err
		}
		if p.Length, b, err = wire.ReadInt(b); err != nil {
			return nil, b, err
		}
		if p.Length < 0 {
			return nil, b, &wire.DecodeError{What: "spawn reduction length"}
		}
		if p.Name, b, err = wire.ReadString(b); err != nil {
			return nil, b, err
		}
		if p.Const, b, err = wire.ReadAny(b); err != nil {
			return nil, b, err
		}
	}
	return w, b, nil
}

func appendStep(b []byte, v any) []byte {
	o := v.(*stepOrder)
	b = wire.AppendBool(b, o.Close)
	b = wire.AppendUvarint(b, uint64(len(o.Vals)))
	for _, x := range o.Vals {
		b = appendValue(b, x)
	}
	return b
}

func sizeStep(v any) int {
	o := v.(*stepOrder)
	n := 1 + wire.SizeUvarint(uint64(len(o.Vals)))
	for _, x := range o.Vals {
		n += wire.SizeAny(x)
	}
	return n
}

func readStep(b []byte) (any, []byte, error) {
	var err error
	o := &stepOrder{}
	if o.Close, b, err = wire.ReadBool(b); err != nil {
		return nil, b, err
	}
	n, b, err := wire.ReadUvarint(b)
	if err != nil {
		return nil, b, err
	}
	// Each value encodes at least its type code.
	if n > uint64(len(b)) {
		return nil, b, &wire.DecodeError{What: "step value count"}
	}
	if n > 0 {
		o.Vals = make([]any, n)
	}
	for i := range o.Vals {
		if o.Vals[i], b, err = wire.ReadAny(b); err != nil {
			return nil, b, err
		}
	}
	return o, b, nil
}

func appendTuple(b []byte, v any) []byte {
	t := v.(tuple)
	b = wire.AppendInt(b, t.Status)
	return wire.AppendFloat64Rows(b, t.Reductions)
}

func sizeTuple(v any) int {
	t := v.(tuple)
	return wire.SizeInt(t.Status) + wire.SizeFloat64Rows(t.Reductions)
}

func readTuple(b []byte) (any, []byte, error) {
	var err error
	var t tuple
	if t.Status, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if t.Reductions, b, err = wire.ReadFloat64Rows(b); err != nil {
		return nil, b, err
	}
	return t, b, nil
}
