// Binary wire codecs for the array-manager protocol: the *request
// itself, the reply envelope, and the array metadata a request carries.
// They dominate the data plane's byte stream (every remote
// request and answer is one of them), so they get
// custom wire.Codec entries instead of riding the gob fallback:
// field-by-field varint/raw encoding of the unexported fields, with none
// of gob's per-message type description or reflect walk.
//
// Layouts are positional and fixed; the IDs are package constants and
// every part runs the same binary, so both sides agree by construction.
// The encoding is deterministic, so re-encoding an unchanged request
// (a retransmit) reproduces the same bytes. A request's *darray.Meta
// (create_local, update_meta) is encoded in place; *darray.Meta,
// darray.ID and []grid.Dist also have codecs of their own, because a
// distributed call's tuples carry them. No array-manager payload takes
// the gob fallback. Each codec's Size walks the same fields as its
// Append, so the transport draws a frame that holds the whole encoding;
// payloads decode into the float-buffer pool (getBuf), and whoever
// consumes them returns them there.
package arraymgr

import (
	"fmt"
	"reflect"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg/wire"
)

// Codec IDs. Stable protocol constants, >= wire.CustomBase.
const (
	codecRequest  = wire.CustomBase + 0
	codecResponse = wire.CustomBase + 1
	codecMeta     = wire.CustomBase + 2
	codecID       = wire.CustomBase + 3
	codecDists    = wire.CustomBase + 4
)

func init() {
	wire.Register(wire.Codec{
		ID:     codecRequest,
		Type:   reflect.TypeOf(&request{}),
		Append: appendRequest,
		Read:   readRequest,
		Size:   sizeRequest,
	})
	wire.Register(wire.Codec{
		ID:     codecResponse,
		Type:   reflect.TypeOf(&wireResponse{}),
		Append: appendResponse,
		Read:   readResponse,
		Size:   sizeResponse,
	})
	wire.Register(wire.Codec{
		ID:     codecMeta,
		Type:   reflect.TypeOf(&darray.Meta{}),
		Append: func(b []byte, v any) []byte { return appendMeta(b, v.(*darray.Meta)) },
		Read:   func(b []byte) (any, []byte, error) { return retAny(readMeta(b)) },
		Size:   func(v any) int { return sizeMeta(v.(*darray.Meta)) },
	})
	wire.Register(wire.Codec{
		ID:     codecID,
		Type:   reflect.TypeOf(darray.ID{}),
		Append: func(b []byte, v any) []byte { return appendID(b, v.(darray.ID)) },
		Read:   func(b []byte) (any, []byte, error) { return retAny(readID(b)) },
		Size:   func(v any) int { return sizeID(v.(darray.ID)) },
	})
	wire.Register(wire.Codec{
		ID:     codecDists,
		Type:   reflect.TypeOf([]grid.Dist(nil)),
		Append: func(b []byte, v any) []byte { return appendDists(b, v.([]grid.Dist)) },
		Read:   func(b []byte) (any, []byte, error) { return retAny(readDists(b)) },
		Size:   func(v any) int { return sizeDists(v.([]grid.Dist)) },
	})
}

func retAny[T any](v T, rest []byte, err error) (any, []byte, error) {
	if err != nil {
		return nil, rest, err
	}
	return v, rest, nil
}

func appendID(b []byte, id darray.ID) []byte {
	b = wire.AppendInt(b, id.Proc)
	return wire.AppendInt(b, id.Seq)
}

func sizeID(id darray.ID) int { return wire.SizeInt(id.Proc) + wire.SizeInt(id.Seq) }

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

func appendDists(b []byte, ds []grid.Dist) []byte {
	b = wire.AppendUvarint(b, uint64(len(ds)))
	for _, d := range ds {
		b = append(b, byte(d.Kind))
		b = wire.AppendInt(b, d.B)
	}
	return b
}

func sizeDists(ds []grid.Dist) int {
	n := wire.SizeUvarint(uint64(len(ds)))
	for _, d := range ds {
		n += 1 + wire.SizeInt(d.B)
	}
	return n
}

// readDists consumes a []grid.Dist; like every wire slice, an empty one
// decodes as nil.
func readDists(b []byte) ([]grid.Dist, []byte, error) {
	n, b, err := wire.ReadUvarint(b)
	if err != nil {
		return nil, b, err
	}
	// Each dist encodes a kind byte and a varint.
	if n > uint64(len(b)/2) {
		return nil, b, &wire.DecodeError{What: "[]grid.Dist length"}
	}
	if n == 0 {
		return nil, b, nil
	}
	ds := make([]grid.Dist, n)
	for i := range ds {
		if len(b) < 2 {
			return nil, b, &wire.DecodeError{What: "grid.Dist"}
		}
		ds[i].Kind = grid.DistKind(b[0])
		if ds[i].B, b, err = wire.ReadInt(b[1:]); err != nil {
			return nil, b, err
		}
	}
	return ds, b, nil
}

// appendMeta encodes every field of an array's metadata, in declaration
// order; the two indexings and the element type are one byte each.
func appendMeta(b []byte, m *darray.Meta) []byte {
	b = appendID(b, m.ID)
	b = append(b, byte(m.Type))
	b = wire.AppendInts(b, m.Dims)
	b = wire.AppendInts(b, m.Procs)
	b = wire.AppendInts(b, m.GridDims)
	b = appendDists(b, m.Dists)
	b = wire.AppendInts(b, m.LocalDims)
	b = wire.AppendInts(b, m.Borders)
	b = wire.AppendInts(b, m.LocalDimsPlus)
	b = append(b, byte(m.Indexing), byte(m.GridIndexing))
	b = wire.AppendInt(b, m.Replicas)
	b = wire.AppendInt(b, m.Epoch)
	return wire.AppendInts(b, m.Origins)
}

func sizeMeta(m *darray.Meta) int {
	return sizeID(m.ID) + 1 + wire.SizeInts(m.Dims) + wire.SizeInts(m.Procs) + wire.SizeInts(m.GridDims) +
		sizeDists(m.Dists) + wire.SizeInts(m.LocalDims) + wire.SizeInts(m.Borders) +
		wire.SizeInts(m.LocalDimsPlus) + 2 + wire.SizeInt(m.Replicas) + wire.SizeInt(m.Epoch) +
		wire.SizeInts(m.Origins)
}

func readMeta(b []byte) (*darray.Meta, []byte, error) {
	var err error
	m := &darray.Meta{}
	if m.ID, b, err = readID(b); err != nil {
		return nil, b, err
	}
	if len(b) < 1 {
		return nil, b, &wire.DecodeError{What: "meta element type"}
	}
	m.Type, b = darray.ElemType(b[0]), b[1:]
	if m.Dims, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if m.Procs, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if m.GridDims, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if m.Dists, b, err = readDists(b); err != nil {
		return nil, b, err
	}
	if m.LocalDims, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if m.Borders, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if m.LocalDimsPlus, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if len(b) < 2 {
		return nil, b, &wire.DecodeError{What: "meta indexing"}
	}
	m.Indexing, m.GridIndexing, b = grid.Indexing(b[0]), grid.Indexing(b[1]), b[2:]
	if m.Replicas, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if m.Epoch, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if m.Origins, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

func readOp(b []byte) (opCode, []byte, error) {
	if len(b) < 1 {
		return 0, b, &wire.DecodeError{What: "request op"}
	}
	return opCode(b[0]), b[1:], nil
}

// appendRequest encodes every field of an owner request but dst (the
// sender's own record of where it went), among them the identity the
// handler answers and the owner dedups by: (origin, cid, idx) and the
// dedup flag. A request is only ever an owner's message, so the rest of
// the struct crosses whole.
func appendRequest(b []byte, v any) []byte {
	r := v.(*request)
	b = append(b, byte(r.op))
	b = appendID(b, r.id)
	b = appendID(b, r.id2)
	b = wire.AppendBool(b, r.meta != nil)
	if r.meta != nil {
		b = appendMeta(b, r.meta)
	}
	b = wire.AppendInts(b, r.gidx)
	b = wire.AppendInts(b, r.offs)
	b = wire.AppendInts(b, r.lo)
	b = wire.AppendInts(b, r.hi)
	b = wire.AppendInts(b, r.step)
	b = wire.AppendInts(b, r.runs)
	b = wire.AppendFloat64s(b, r.vals)
	b = wire.AppendInt(b, r.slot)
	b = wire.AppendInt(b, r.node)
	b = wire.AppendUvarint(b, uint64(len(r.ships)))
	for i := range r.ships {
		sh := &r.ships[i]
		b = wire.AppendInt(b, sh.SrcProc)
		b = wire.AppendInt(b, sh.DstProc)
		b = wire.AppendInts(b, sh.SrcLo)
		b = wire.AppendInts(b, sh.SrcHi)
		b = wire.AppendInts(b, sh.SrcStep)
		b = wire.AppendInts(b, sh.DstLo)
		b = wire.AppendInts(b, sh.DstHi)
		b = wire.AppendInts(b, sh.DstStep)
		b = wire.AppendInts(b, sh.Runs)
		b = wire.AppendInt(b, sh.SrcSlot)
		b = wire.AppendInt(b, sh.DstSlot)
		b = wire.AppendInt(b, sh.pair)
	}
	b = wire.AppendInt(b, r.origin)
	b = wire.AppendUvarint(b, r.cid)
	b = wire.AppendInt(b, r.idx)
	return wire.AppendBool(b, r.dedup)
}

// sizeRequest returns the bytes appendRequest writes for v.
func sizeRequest(v any) int {
	r := v.(*request)
	n := 1 + sizeID(r.id) + sizeID(r.id2) + 1
	if r.meta != nil {
		n += sizeMeta(r.meta)
	}
	n += wire.SizeInts(r.gidx) + wire.SizeInts(r.offs) +
		wire.SizeInts(r.lo) + wire.SizeInts(r.hi) + wire.SizeInts(r.step) + wire.SizeInts(r.runs) +
		wire.SizeFloat64s(r.vals) + wire.SizeInt(r.slot) +
		wire.SizeInt(r.node) + wire.SizeUvarint(uint64(len(r.ships)))
	for i := range r.ships {
		sh := &r.ships[i]
		n += wire.SizeInt(sh.SrcProc) + wire.SizeInt(sh.DstProc) + wire.SizeInts(sh.SrcLo) + wire.SizeInts(sh.SrcHi) +
			wire.SizeInts(sh.SrcStep) + wire.SizeInts(sh.DstLo) + wire.SizeInts(sh.DstHi) +
			wire.SizeInts(sh.DstStep) + wire.SizeInts(sh.Runs) +
			wire.SizeInt(sh.SrcSlot) + wire.SizeInt(sh.DstSlot) + wire.SizeInt(sh.pair)
	}
	return n + wire.SizeInt(r.origin) + wire.SizeUvarint(r.cid) + wire.SizeInt(r.idx) + 1
}

// readRequest decodes a request. Its identity answers the same way as
// an in-process request's: complete sends a *wireResponse under the same
// kindAM tag, since the call's origin is hosted elsewhere.
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
		if r.meta, b, err = readMeta(b); err != nil {
			return nil, b, err
		}
	}
	if r.gidx, b, err = wire.ReadInts(b); err != nil {
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
	if r.runs, b, err = wire.ReadInts(b); err != nil {
		return nil, b, err
	}
	if r.vals, b, err = wire.ReadFloat64sWith(b, getBuf); err != nil {
		return nil, b, err
	}
	if r.slot, b, err = wire.ReadInt(b); err != nil {
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
			if sh.SrcProc, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
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
			if sh.Runs, b, err = wire.ReadInts(b); err != nil {
				return nil, b, err
			}
			if sh.SrcSlot, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.DstSlot, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
			if sh.pair, b, err = wire.ReadInt(b); err != nil {
				return nil, b, err
			}
		}
	}
	if r.origin, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.cid, b, err = wire.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if r.idx, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	if r.dedup, b, err = wire.ReadBool(b); err != nil {
		return nil, b, err
	}
	return r, b, nil
}

func appendResponse(b []byte, v any) []byte {
	w := v.(*wireResponse)
	b = wire.AppendUvarint(b, w.ID)
	b = wire.AppendInt(b, int(w.Status))
	b = wire.AppendFloat64s(b, w.Vals)
	return wire.AppendInt(b, w.Idx)
}

func sizeResponse(v any) int {
	w := v.(*wireResponse)
	return wire.SizeUvarint(w.ID) + wire.SizeInt(int(w.Status)) + wire.SizeFloat64s(w.Vals) + wire.SizeInt(w.Idx)
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
	if w.Vals, b, err = wire.ReadFloat64sWith(b, getBuf); err != nil {
		return nil, b, err
	}
	if w.Idx, b, err = wire.ReadInt(b); err != nil {
		return nil, b, err
	}
	return w, b, nil
}
