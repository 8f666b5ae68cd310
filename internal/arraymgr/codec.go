// Binary wire codecs for the array-manager envelopes. The protocol
// structs dominate the data plane's byte stream (every remote request,
// reply, and redistribution ack is one of them), so they get custom
// wire.Codec entries instead of riding the gob fallback: field-by-field
// varint/raw encoding with none of gob's per-message type description
// or reflect walk.
//
// Layouts are positional and fixed; the IDs are package constants and
// every part runs the same binary, so both sides agree by construction.
// The rare nested fields that are genuinely polymorphic (Meta, Info)
// recurse through wire.AppendAny and keep their gob fallback.
package arraymgr

import (
	"fmt"
	"reflect"

	"repro/internal/darray"
	"repro/internal/msg/wire"
)

// Codec IDs. Stable protocol constants, >= wire.CustomBase.
const (
	codecRequest  = wire.CustomBase + 0
	codecResponse = wire.CustomBase + 1
	codecAck      = wire.CustomBase + 2
)

func init() {
	wire.Register(wire.Codec{
		ID:     codecRequest,
		Type:   reflect.TypeOf(&wireRequest{}),
		Append: appendRequest,
		Read:   readRequest,
	})
	wire.Register(wire.Codec{
		ID:     codecResponse,
		Type:   reflect.TypeOf(&wireResponse{}),
		Append: appendResponse,
		Read:   readResponse,
	})
	wire.Register(wire.Codec{
		ID:     codecAck,
		Type:   reflect.TypeOf(&wireAck{}),
		Append: appendAck,
		Read:   readAck,
	})
}

// appendNested encodes a polymorphic field via the any-payload encoding.
// Codec Append cannot return an error; an unencodable nested value is a
// protocol bug of the same class as a codec-ID collision, so it panics
// rather than silently corrupting the stream. (Under PR-9's whole-frame
// gob the same value would have failed the frame encode.)
func appendNested(b []byte, v any, what string) []byte {
	b, err := wire.AppendAny(b, v, false)
	if err != nil {
		panic(fmt.Sprintf("arraymgr: unencodable %s: %v", what, err))
	}
	return b
}

func appendID(b []byte, id darray.ID) []byte {
	b = wire.AppendInt(b, id.Proc)
	return wire.AppendInt(b, id.Seq)
}

func readID(b []byte) (darray.ID, []byte, error) {
	proc, b, err := wire.ReadInt(b)
	if err != nil {
		return darray.ID{}, b, err
	}
	seq, b, err := wire.ReadInt(b)
	if err != nil {
		return darray.ID{}, b, err
	}
	return darray.ID{Proc: proc, Seq: seq}, b, nil
}

func appendRequest(b []byte, v any) []byte {
	w := v.(*wireRequest)
	b = wire.AppendString(b, w.Op)
	b = appendID(b, w.ID)
	b = appendID(b, w.ID2)
	if w.Meta == nil {
		b = wire.AppendBool(b, false)
	} else {
		b = wire.AppendBool(b, true)
		b = appendNested(b, w.Meta, "request meta")
	}
	b = wire.AppendInts(b, w.Gidx)
	b = wire.AppendIntRows(b, w.Gidxs)
	b = wire.AppendInts(b, w.Offs)
	b = wire.AppendInts(b, w.Lo)
	b = wire.AppendInts(b, w.Hi)
	b = wire.AppendInts(b, w.Step)
	b = wire.AppendInts(b, w.Lo2)
	b = wire.AppendFloat64s(b, w.Vals)
	b = wire.AppendInt(b, w.Slot)
	b = wire.AppendString(b, w.Which)
	b = wire.AppendInts(b, w.Procs)
	b = wire.AppendInt(b, w.Node)
	b = wire.AppendUvarint(b, uint64(len(w.Ships)))
	for i := range w.Ships {
		sh := &w.Ships[i]
		b = wire.AppendInt(b, sh.DstProc)
		b = wire.AppendInts(b, sh.SrcLo)
		b = wire.AppendInts(b, sh.SrcHi)
		b = wire.AppendInts(b, sh.SrcStep)
		b = wire.AppendInts(b, sh.DstLo)
		b = wire.AppendInts(b, sh.DstHi)
		b = wire.AppendInts(b, sh.DstStep)
		b = wire.AppendInts(b, sh.SrcOffs)
		b = wire.AppendInts(b, sh.DstOffs)
		b = wire.AppendInt(b, sh.SrcSlot)
		b = wire.AppendInt(b, sh.DstSlot)
		b = wire.AppendInt(b, sh.Pair)
	}
	b = wire.AppendUvarint(b, w.Seq)
	b = wire.AppendUvarint(b, w.Call)
	b = wire.AppendInt(b, w.Pair)
	b = wire.AppendInt(b, w.Src)
	b = wire.AppendInt(b, w.Dst)
	b = wire.AppendInt(b, w.Origin)
	b = wire.AppendUvarint(b, w.ReplyID)
	b = wire.AppendInt(b, w.AckProc)
	return wire.AppendUvarint(b, w.AckID)
}

func readRequest(b []byte) (any, []byte, error) {
	var err error
	w := &wireRequest{}
	if w.Op, b, err = wire.ReadString(b); err != nil {
		return nil, b, err
	}
	if w.ID, b, err = readID(b); err != nil {
		return nil, b, err
	}
	if w.ID2, b, err = readID(b); err != nil {
		return nil, b, err
	}
	hasMeta, b, err := wire.ReadBool(b)
	if err != nil {
		return nil, b, err
	}
	if hasMeta {
		var m any
		if m, b, err = wire.ReadAny(b); err != nil {
			return nil, b, err
		}
		meta, ok := m.(*darray.Meta)
		if !ok {
			return nil, b, fmt.Errorf("arraymgr: request meta decoded as %T", m)
		}
		w.Meta = meta
	}
	if w.Gidx, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Gidxs, b, err = wire.ReadIntRows(b); err != nil {
		return nil, b, err
	}
	if w.Offs, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Lo, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Hi, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Step, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Lo2, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Vals, b, err = wire.ReadFloat64s(b); err != nil {
		return nil, b, err
	}
	if w.Slot, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.Which, b, err = wire.ReadString(b); err != nil {
		return nil, b, err
	}
	if w.Procs, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if w.Node, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	nships, b, err := wire.ReadUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if nships > uint64(len(b)) {
		return nil, b, fmt.Errorf("arraymgr: ship count %d exceeds buffer", nships)
	}
	if nships > 0 {
		w.Ships = make([]wireShip, nships)
		for i := range w.Ships {
			sh := &w.Ships[i]
			if sh.DstProc, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.SrcLo, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.SrcHi, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.SrcStep, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.DstLo, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.DstHi, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.DstStep, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.SrcOffs, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.DstOffs, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.SrcSlot, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.DstSlot, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.Pair, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
		}
	}
	if w.Seq, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if w.Call, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if w.Pair, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.Src, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.Dst, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.Origin, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.ReplyID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if w.AckProc, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if w.AckID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	return w, b, nil
}

func appendResponse(b []byte, v any) []byte {
	w := v.(*wireResponse)
	b = wire.AppendUvarint(b, w.ReplyID)
	b = wire.AppendInt(b, int(w.Status))
	b = wire.AppendFloat64s(b, w.Vals)
	b = appendNested(b, w.Info, "response info")
	return wire.AppendInt(b, w.Pair)
}

func readResponse(b []byte) (any, []byte, error) {
	var err error
	w := &wireResponse{}
	if w.ReplyID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	var status int
	if status, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	w.Status = Status(status)
	if w.Vals, b, err = wire.ReadFloat64s(b); err != nil {
		return nil, b, err
	}
	if w.Info, b, err = wire.ReadAny(b); err != nil {
		return nil, b, err
	}
	if w.Pair, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	return w, b, nil
}

func appendAck(b []byte, v any) []byte {
	w := v.(*wireAck)
	b = wire.AppendUvarint(b, w.AckID)
	b = wire.AppendInt(b, int(w.Status))
	return wire.AppendInt(b, w.Pair)
}

func readAck(b []byte) (any, []byte, error) {
	var err error
	w := &wireAck{}
	if w.AckID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	var status int
	if status, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	w.Status = Status(status)
	if w.Pair, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	return w, b, nil
}
