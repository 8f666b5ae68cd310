// The data plane: one split, one coordinator and one owner handler per
// direction. Every region a task-parallel caller moves (§5.1) — a dense
// or strided rectangle, or a vector of scattered indices — is split into
// owner pieces, one request per owning section:
//
//   - a rectangle, on any layout, splits in closed form
//     (darray.Meta.Split, nil step meaning dense): per owner a
//     darray.PairBlock whose source side is the owner's interior-local
//     run lists — O(ndims) bounds, or a few runs per dimension on a
//     block-cyclic layout — and whose destination side places the piece
//     in the request buffer, one MoveLattice call each way;
//   - an index vector splits into offset sets (OwnerIndices): one
//     storage offset per element, placed by position.
//
// The owners serve both forms with one read and one write handler, the
// payload drawn from or returned to the float-buffer pool.
package arraymgr

import (
	"repro/internal/darray"
	"repro/internal/grid"
)

// region is what one read or write moves: the lattice (lo, hi, step) of
// a global rectangle, nil step meaning dense, or (idx non-nil) an index
// vector, one global index tuple per value.
type region struct {
	lo, hi, step []int
	idx          [][]int
}

// piece is one owner's part of a transfer, on the section at grid slot
// slot of processor proc: a rectangle's schedule block, whose source
// side is interior-local at the owner and whose destination side is its
// place in the request buffer, or (blk nil) an offset set, whose storage
// offsets offs hold the values of request positions pos.
type piece struct {
	proc, slot int
	blk        *darray.PairBlock
	offs, pos  []int
}

// size is the number of values the piece moves, sdims being the request
// buffer's lattice shape.
func (p *piece) size(sdims []int) int {
	if p.blk == nil {
		return len(p.offs)
	}
	n, _ := darray.LatticeSize(p.blk.DstLo, p.blk.DstHi, p.blk.DstStep, p.blk.Runs, sdims) // split built it
	return n
}

// place moves the piece's values between the request buffer full (of
// lattice shape sdims for a rectangle) and the piece's packed buffer
// sub: into full when toFull (a read reply), out of it otherwise (a
// write's snapshot). A rectangle piece is one MoveLattice on the request
// buffer, which allocates nothing up to darray.MaxFastDims dimensions.
func (p *piece) place(toFull bool, full, sub []float64, sdims []int) error {
	switch {
	case p.blk != nil:
		buf := darray.Section{Type: darray.Double, F: full}
		return buf.MoveLattice(!toFull, sub, p.blk.DstLo, p.blk.DstHi, p.blk.DstStep, p.blk.Runs, sdims, nil, grid.RowMajor)
	case toFull:
		for j, q := range p.pos {
			full[q] = sub[j]
		}
	default:
		for j, q := range p.pos {
			sub[j] = full[q]
		}
	}
	return nil
}

// ownerReq builds the owner request that moves the piece.
func (p *piece) ownerReq(op opCode, id darray.ID, vals []float64) *request {
	r := &request{op: op, id: id, offs: p.offs, vals: vals, slot: p.slot}
	if p.blk != nil {
		r.lo, r.hi, r.step, r.runs = p.blk.SrcLo, p.blk.SrcHi, p.blk.SrcStep, p.blk.Runs
	}
	return r
}

// split divides a region into owner pieces, returning the request
// buffer's length and, for a rectangle, its lattice shape. An index
// vector splits by OwnerIndices, sets ordered by first appearance so
// repeated indices keep last-writer-wins; a rectangle splits by Split.
func split(meta *darray.Meta, rg region) (pieces []piece, sdims []int, size int, err error) {
	if rg.idx == nil {
		blocks, err := meta.Split(rg.lo, rg.hi, rg.step)
		if err != nil {
			return nil, nil, 0, err
		}
		sdims = grid.StridedRectDims(rg.lo, rg.hi, rg.step)
		pieces = make([]piece, len(blocks))
		for i := range blocks {
			b := &blocks[i]
			pieces[i] = piece{proc: b.SrcProc, slot: b.SrcSlot, blk: b}
		}
		return pieces, sdims, grid.Size(sdims), nil
	}
	sets, err := meta.OwnerIndices(rg.idx)
	if err != nil {
		return nil, nil, 0, err
	}
	pieces = make([]piece, len(sets))
	for i, s := range sets {
		pieces[i] = piece{proc: s.Proc, slot: s.Slot, offs: s.Offs, pos: s.Pos}
	}
	return pieces, sdims, len(rg.idx), nil
}

// doRead is the read coordinator: it splits the region, opens one call
// with an index per piece, scatters one read_local request to every
// remote owner before waiting on any reply, services its own pieces
// while the remote owners work, then places each reply into the result
// as it arrives — out when the caller passed a buffer. Latency
// is one round trip to the slowest owner, and a transfer costs one
// request/reply pair per owner, never one per element. A reply whose
// length does not match its piece (possible only off the wire) is
// refused with StatusError rather than indexed out of range.
func (m *Manager) doRead(proc int, id darray.ID, rg region, out []float64) response {
	e, st := m.lookup(proc, id)
	if st != StatusOK {
		return response{status: st}
	}
	pieces, sdims, size, err := split(e.meta, rg)
	if err != nil {
		return response{status: StatusInvalid}
	}
	if out != nil && len(out) != size {
		return response{status: StatusInvalid}
	}
	if out == nil {
		out = make([]float64, size)
	}
	c := m.open(len(pieces))
	for i := range pieces {
		if p := &pieces[i]; p.proc != proc {
			m.send(c, i, proc, p.proc, p.ownerReq(opReadLocal, id, nil))
		}
	}
	// After a failover promotion one processor can own several slots, so
	// "local" is not necessarily unique.
	for i := range pieces {
		if p := &pieces[i]; p.proc == proc {
			m.deliver(c.id, i, m.doReadLocal(proc, p.ownerReq(opReadLocal, id, nil)))
		}
	}
	// Every reply is drained even after a failure, so no owner's
	// response is left dangling: each is checked against its piece,
	// placed, and its pooled buffer returned.
	status := StatusOK
	m.gather(c, nil, func(i int, r response) {
		p := &pieces[i]
		switch {
		case r.status != StatusOK:
			status = r.status
			return
		case len(r.vals) != p.size(sdims) || p.place(true, out, r.vals, sdims) != nil:
			status = StatusError
		}
		putBuf(r.vals)
	})
	if status != StatusOK {
		return response{status: status}
	}
	return response{status: StatusOK, vals: out}
}

// doWrite is the write coordinator: it splits the region, opens one
// call with an index per piece, sends each remote owner one write_local
// request carrying a packed snapshot of its piece's values, all posted
// before any reply is awaited, writes its own pieces in place and
// gathers the statuses. Offsets within an offset set
// keep request order, so an index repeated in one vector takes the value
// at its last occurrence, as a sequential loop of write_element calls
// would leave it.
func (m *Manager) doWrite(proc int, id darray.ID, rg region, vals []float64) response {
	e, st := m.lookup(proc, id)
	if st != StatusOK {
		return response{status: st}
	}
	pieces, sdims, size, err := split(e.meta, rg)
	if err != nil || len(vals) != size {
		return response{status: StatusInvalid}
	}
	// pack draws one piece's snapshot: messages carry copies, never views.
	// The pieces come from split, so placing them cannot fail.
	pack := func(p *piece) []float64 {
		sub := getBuf(p.size(sdims))
		_ = p.place(false, vals, sub, sdims)
		return sub
	}
	c := m.open(len(pieces))
	for i := range pieces {
		if p := &pieces[i]; p.proc != proc {
			m.send(c, i, proc, p.proc, p.ownerReq(opWriteLocal, id, pack(p)))
		}
	}
	for i := range pieces {
		if p := &pieces[i]; p.proc == proc {
			sub := pack(p)
			r := m.doWriteLocal(proc, p.ownerReq(opWriteLocal, id, sub))
			m.unsnapshot(proc, r.status, sub)
			m.deliver(c.id, i, r)
		}
	}
	status := StatusOK
	m.gather(c, nil, func(i int, r response) {
		if r.status != StatusOK {
			status = r.status
		}
		if req := c.slots[i].req; req != nil { // a remote owner's share
			m.unsnapshot(req.dst, r.status, req.vals)
		}
	})
	return response{status: status}
}

// doReadLocal is the owner read handler: one piece of the section
// addressed by req.slot is copied into a pooled reply buffer — zero
// allocations per request at a steady state. Ownership of the buffer
// passes to the coordinator, which returns it via putBuf after placing
// it (over the wire, handle returns it once the reply is serialized).
func (m *Manager) doReadLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		return response{status: StatusError}
	}
	n, ok := pieceSize(e.meta, req.offs, req.lo, req.hi, req.step, req.runs)
	if !ok {
		return response{status: StatusInvalid}
	}
	vals := getBuf(n)
	if st := movePiece(true, sec, e.meta, vals, req.offs, req.lo, req.hi, req.step, req.runs); st != StatusOK {
		putBuf(vals)
		return response{status: st}
	}
	return response{status: StatusOK, vals: vals}
}

// doWriteLocal is the owner write handler, serving both a coordinator's
// write_local and a primary's mirror_write: the piece lands in the
// section addressed by req.slot, then — for a primary write to a
// replicated array — is forwarded to the slot's buddies. mirrorWrite runs
// after the server lock is released (buddies mirror to each other, so
// awaiting under the lock could deadlock a ring) and never forwards a
// mirror further.
func (m *Manager) doWriteLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		srv.mu.Unlock()
		return response{status: StatusError}
	}
	st = movePiece(false, sec, e.meta, req.vals, req.offs, req.lo, req.hi, req.step, req.runs)
	meta := e.meta
	srv.mu.Unlock()
	if st != StatusOK {
		return response{status: st}
	}
	return response{status: m.mirrorWrite(proc, meta, req)}
}

// pieceSize validates one owner piece against the section shape before
// any buffer is sized for it, and returns its value count: len(offs) for
// an offset set (the copy bounds-checks each offset), else the point
// count of the interior-local lattice (lo, hi, step, runs) —
// darray.LatticeSize, which caps each dimension's runs at the section
// extent, so a request cannot size a reply larger than the section.
func pieceSize(meta *darray.Meta, offs, lo, hi, step, runs []int) (int, bool) {
	if offs != nil {
		return len(offs), true
	}
	if runs != nil {
		n, err := darray.LatticeSize(lo, hi, step, runs, meta.LocalDims)
		return n, err == nil
	}
	if grid.CheckStridedRect(lo, hi, step, meta.LocalDims) != nil {
		return 0, false
	}
	return grid.StridedRectSize(lo, hi, step), true
}

// movePiece moves one owner piece between vals and the section's storage,
// into vals when read: the storage offsets offs when non-nil, else the
// interior-local lattice (lo, hi, step, runs), dense when step is nil.
// Up to darray.MaxFastDims dimensions it allocates nothing. A failed copy
// is StatusError for offsets (an offset outside the storage) and
// StatusInvalid for a lattice (bounds outside the section).
func movePiece(read bool, sec *darray.Section, meta *darray.Meta, vals []float64, offs, lo, hi, step, runs []int) Status {
	var err error
	switch {
	case offs != nil && read:
		err = sec.GatherInto(vals, offs)
	case offs != nil:
		err = sec.ScatterFrom(vals, offs)
	default:
		err = sec.MoveLattice(read, vals, lo, hi, step, runs, meta.LocalDims, meta.Borders, meta.Indexing)
	}
	switch {
	case err == nil:
		return StatusOK
	case offs != nil:
		return StatusError
	default:
		return StatusInvalid
	}
}
