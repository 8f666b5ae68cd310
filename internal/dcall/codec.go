// Binary wire codecs for the distributed-call protocol: the spawn order
// a caller ships to every remote group member, and the result tuple the
// combine tree and a remote rank 0 send back. Every cross-process call
// moves one spawn order per remote member and one tuple per remote tree
// edge, so they get wire.Codec entries instead of riding the gob
// fallback, which rebuilds its type descriptors on every message.
//
// Layouts are positional and deterministic, like the array manager's
// (internal/arraymgr/codec.go): a spawn order is its program name,
// group, index, call id and result processor, then each parameter as
// its kind, its array ID as two ints and its constant through
// wire.AppendAny; a tuple is its status and its reductions as
// [][]float64. A constant of a built-in shape or a registered type takes
// the binary path; only a user-defined constant type takes the gob
// fallback, and call checks it encodes before anything is sent (a
// codec's Append cannot return an error).
package dcall

import (
	"fmt"
	"reflect"

	"repro/internal/darray"
	"repro/internal/msg/wire"
)

// Codec IDs. Stable protocol constants, above the array manager's.
const (
	codecSpawn = wire.CustomBase + 5
	codecTuple = wire.CustomBase + 6
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
}

func appendSpawn(b []byte, v any) []byte {
	w := v.(*wireSpawn)
	b = wire.AppendString(b, w.Program)
	b = wire.AppendInts(b, w.Procs)
	b = wire.AppendInt(b, w.Index)
	b = wire.AppendUvarint(b, w.CallID)
	b = wire.AppendInt(b, w.ResultProc)
	b = wire.AppendUvarint(b, uint64(len(w.Params)))
	for _, p := range w.Params {
		b = append(b, byte(p.Kind))
		b = wire.AppendInt(b, p.ID.Proc)
		b = wire.AppendInt(b, p.ID.Seq)
		var err error
		if b, err = wire.AppendAny(b, p.Const, false); err != nil {
			// call rejects an unencodable constant before it builds a
			// spawn order, so this is a protocol bug.
			panic(fmt.Sprintf("dcall: unencodable constant: %v", err))
		}
	}
	return b
}

func sizeSpawn(v any) int {
	w := v.(*wireSpawn)
	n := wire.SizeString(w.Program) + wire.SizeInts(w.Procs) + wire.SizeInt(w.Index) +
		wire.SizeUvarint(w.CallID) + wire.SizeInt(w.ResultProc) + wire.SizeUvarint(uint64(len(w.Params)))
	for _, p := range w.Params {
		n += 1 + wire.SizeInt(p.ID.Proc) + wire.SizeInt(p.ID.Seq) + wire.SizeAny(p.Const)
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
	n, b, err := wire.ReadUvarint(b)
	if err != nil {
		return nil, b, err
	}
	// Each parameter encodes a kind byte, two varints and a type code.
	if n > uint64(len(b)/4) {
		return nil, b, &wire.DecodeError{What: "spawn parameter count"}
	}
	if n > 0 {
		w.Params = make([]wireParam, n)
	}
	for i := range w.Params {
		p := &w.Params[i]
		if len(b) < 1 || b[0] > paramStatus {
			return nil, b, &wire.DecodeError{What: "spawn parameter kind"}
		}
		p.Kind, b = int(b[0]), b[1:]
		var proc, seq int
		if proc, b, err = wire.ReadInt(b); err != nil {
			return nil, b, err
		}
		if seq, b, err = wire.ReadInt(b); err != nil {
			return nil, b, err
		}
		p.ID = darray.ID{Proc: proc, Seq: seq}
		if p.Const, b, err = wire.ReadAny(b); err != nil {
			return nil, b, err
		}
	}
	return w, b, nil
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
