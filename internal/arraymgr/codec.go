// Binary wire codecs for the array-manager protocol: the *request
// itself and the reply envelope. They dominate the data plane's byte
// stream (every remote request, reply and redistribution ack is one of
// them), so they get custom wire.Codec entries instead of riding the gob
// fallback: field-by-field varint/raw encoding of the unexported fields,
// with none of gob's per-message type description or reflect walk.
//
// Layouts are positional and fixed; the IDs are package constants and
// every part runs the same binary, so both sides agree by construction.
// The encoding is deterministic, so re-encoding an unchanged request
// (a retransmit) reproduces the same bytes. The rare nested fields that
// are genuinely polymorphic (Meta, Info) recurse through wire.AppendAny
// and keep their gob fallback.
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
)

func init() {
	wire.Register(wire.Codec{
		ID:     codecRequest,
		Type:   reflect.TypeOf(&request{}),
		Append: appendRequest,
		Read:   readRequest,
	})
	wire.Register(wire.Codec{
		ID:     codecResponse,
		Type:   reflect.TypeOf(&wireResponse{}),
		Append: appendResponse,
		Read:   readResponse,
	})
}

// appendNested encodes a polymorphic field via the any-payload encoding.
// Codec Append cannot return an error; an unencodable nested value is a
// protocol bug of the same class as a codec-ID collision, so it panics
// rather than silently corrupting the stream.
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

func readOp(b []byte) (opCode, []byte, error) {
	if len(b) < 1 {
		return 0, b, &wire.DecodeError{What: "request op"}
	}
	return opCode(b[0]), b[1:], nil
}

// appendRequest encodes every request field an op that can target a
// remote owner uses. The reply and ack channels stand in as replyID and
// (ackProc, ackID). spec, ndims, borders and indexing are never encoded:
// they belong to create_array and verify_array, which are always
// coordinator self-sends and so never cross the wire.
func appendRequest(b []byte, v any) []byte {
	r := v.(*request)
	b = append(b, byte(r.op))
	b = appendID(b, r.id)
	b = appendID(b, r.id2)
	if r.meta == nil {
		b = wire.AppendBool(b, false)
	} else {
		b = wire.AppendBool(b, true)
		b = appendNested(b, r.meta, "request meta")
	}
	b = wire.AppendInts(b, r.gidx)
	b = wire.AppendIntRows(b, r.gidxs)
	b = wire.AppendInts(b, r.offs)
	b = wire.AppendInts(b, r.lo)
	b = wire.AppendInts(b, r.hi)
	b = wire.AppendInts(b, r.step)
	b = wire.AppendInts(b, r.lo2)
	b = wire.AppendFloat64s(b, r.vals)
	b = wire.AppendInt(b, r.slot)
	b = wire.AppendString(b, r.which)
	b = append(b, byte(r.inner))
	b = wire.AppendInts(b, r.procs)
	b = wire.AppendInt(b, r.node)
	b = wire.AppendUvarint(b, uint64(len(r.ships)))
	for i := range r.ships {
		sh := &r.ships[i]
		b = wire.AppendInt(b, sh.dstProc)
		b = wire.AppendInts(b, sh.srcLo)
		b = wire.AppendInts(b, sh.srcHi)
		b = wire.AppendInts(b, sh.srcStep)
		b = wire.AppendInts(b, sh.dstLo)
		b = wire.AppendInts(b, sh.dstHi)
		b = wire.AppendInts(b, sh.dstStep)
		b = wire.AppendInts(b, sh.srcOffs)
		b = wire.AppendInts(b, sh.dstOffs)
		b = wire.AppendInt(b, sh.srcSlot)
		b = wire.AppendInt(b, sh.dstSlot)
		b = wire.AppendInt(b, sh.pair)
	}
	b = wire.AppendUvarint(b, r.seq)
	b = wire.AppendUvarint(b, r.call)
	b = wire.AppendInt(b, r.pair)
	b = wire.AppendInt(b, r.src)
	b = wire.AppendInt(b, r.dst)
	b = wire.AppendInt(b, r.origin)
	b = wire.AppendUvarint(b, r.replyID)
	b = wire.AppendInt(b, r.ackProc)
	return wire.AppendUvarint(b, r.ackID)
}

// readRequest decodes a request with nil reply and ack channels: a nil
// reply routes respond through the wire, a nil ack routes shipAck.
func readRequest(b []byte) (any, []byte, error) {
	var err error
	r := &request{}
	if r.op, b, err = readOp(b); err != nil {
		return nil, b, err
	}
	if r.id, b, err = readID(b); err != nil {
		return nil, b, err
	}
	if r.id2, b, err = readID(b); err != nil {
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
		r.meta = meta
	}
	if r.gidx, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.gidxs, b, err = wire.ReadIntRows(b); err != nil {
		return nil, b, err
	}
	if r.offs, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.lo, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.hi, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.step, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.lo2, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.vals, b, err = wire.ReadFloat64s(b); err != nil {
		return nil, b, err
	}
	if r.slot, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.which, b, err = wire.ReadString(b); err != nil {
		return nil, b, err
	}
	if r.inner, b, err = readOp(b); err != nil {
		return nil, b, err
	}
	if r.procs, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.node, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	nships, b, err := wire.ReadUvarint(b)
	if err != nil {
		return nil, b, err
	}
	// Each ship encodes twelve fields of at least one byte each.
	if nships > uint64(len(b)/12) {
		return nil, b, fmt.Errorf("arraymgr: ship count %d exceeds buffer", nships)
	}
	if nships > 0 {
		r.ships = make([]redistShip, nships)
		for i := range r.ships {
			sh := &r.ships[i]
			if sh.dstProc, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.srcLo, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.srcHi, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.srcStep, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.dstLo, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.dstHi, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.dstStep, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.srcOffs, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.dstOffs, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.srcSlot, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.dstSlot, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.pair, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
		}
	}
	if r.seq, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if r.call, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if r.pair, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.src, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.dst, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.origin, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.replyID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if r.ackProc, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.ackID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	return r, b, nil
}

func appendResponse(b []byte, v any) []byte {
	w := v.(*wireResponse)
	b = wire.AppendUvarint(b, w.ID)
	b = wire.AppendInt(b, int(w.Status))
	b = wire.AppendFloat64s(b, w.Vals)
	b = appendNested(b, w.Info, "response info")
	return wire.AppendInt(b, w.Pair)
}

func readResponse(b []byte) (any, []byte, error) {
	var err error
	w := &wireResponse{}
	if w.ID, b, err = wire.ReadUvarint(b); err != nil {
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
