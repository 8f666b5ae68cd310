// The redistribution plane: direct owner↔owner copies between two
// distributed arrays. The classic path for a phase change (a block LU
// panel feeding a cyclic solve, a transpose between FFT stages) is the
// client bounce — gather the rectangle to one process, scatter it back
// out under the new distribution — which doubles the messages and bytes
// and funnels everything through a single process's bandwidth. Here the
// coordinator instead computes the owner-pair intersection schedule from
// both arrays' distributions (darray.Meta.TransferSchedule) and ships
// every non-empty src-owner→dst-owner piece directly:
//
//   - one redist_src message per remote source owner, carrying that
//     owner's ships (the coordinator's own ships are serviced inline);
//   - one redist_ship message per cross-process pair, carrying the
//     packed piece from source owner to destination owner;
//   - zero messages for a pair whose source and destination cells land
//     on the same process — the piece moves with darray.CopyRect under
//     that server's lock.
//
// A pair ships as bounds on any layout: interior-local run lists on each
// side, with its own step per side (a block→cyclic panel pair reads
// every P-th row at the source and lands dense at the destination), and
// a few runs per dimension where a side is block-cyclic of width > 1.
//
// That is ≤1 message per non-empty owner pair (plus the per-owner
// redist_src fan-out), against read+write coordinator rounds for the
// bounce. Completion is the one every coordinator uses: one call in the
// completion table with an index per pair, each pair answered at its
// index (complete, wire.go), so an answer from an owner in the
// coordinator's process costs no message, and the one gather loop
// waits. Under a call policy it re-sends unanswered pairs regrouped
// under their source owners. Ship traffic is one-way: it travels as an
// ordinary request, and handle dispatches its two ops without a reply.
package arraymgr

import (
	"sync"

	"repro/internal/darray"
	"repro/internal/grid"
)

// redistShip is one owner pair's piece of a redistribution, as shipped
// to the source owner: the schedule block, whose slots route each side
// to the right section (after a failover promotion a processor may own
// several slots), and the pair's index in the coordinator's pair list —
// the index of the call it answers, and so part of its ship's identity
// and dedup key at the destination.
type redistShip struct {
	darray.PairBlock
	pair int
}

// The ship-request free list. Ship requests are created by one processor
// and released by another after a one-way send, so the list is shared;
// being deterministic (rather than a sync.Pool, whose GC interaction
// would flake the 0 allocs/op pins) it keeps the steady state
// allocation-free. It stays on under a fault plan: the router duplicates
// a delivery as a codec copy, never as the same pointer, and a delayed
// ship is released only by the handler that serves it. A retry draws a
// new request rather than re-sending the old one.
var (
	shipReqMu   sync.Mutex
	shipReqFree []*request
)

// getShipReq draws a recycled request for one-way ship traffic.
func getShipReq() *request {
	shipReqMu.Lock()
	if n := len(shipReqFree); n > 0 {
		r := shipReqFree[n-1]
		shipReqFree = shipReqFree[:n-1]
		shipReqMu.Unlock()
		return r
	}
	shipReqMu.Unlock()
	return new(request)
}

// putShipReq returns a ship request to the free list. Callers must not
// touch the request afterwards.
func putShipReq(r *request) {
	*r = request{}
	shipReqMu.Lock()
	if len(shipReqFree) < maxPooledBufs {
		shipReqFree = append(shipReqFree, r)
	}
	shipReqMu.Unlock()
}

// doRedistribute is the redistribution coordinator: it computes the
// owner-pair schedule for copying the source lattice (origin srcLo) of
// array src onto the destination lattice (lo, hi, step) of array dst,
// opens one call with an index per pair, groups the pairs by source
// owner, sends each remote source owner one redist_src request
// (servicing its own group inline), and gathers one answer per pair.
// Sends and deliveries never block, so the protocol cannot deadlock;
// the merged status is the worst any pair reported.
func (m *Manager) doRedistribute(proc int, dst, src darray.ID, lo, hi, srcLo, step []int) response {
	if dst == src {
		return response{status: StatusInvalid} // aliasing copies are undefined
	}
	de, st := m.lookup(proc, dst)
	if st != StatusOK {
		return response{status: st}
	}
	se, st := m.lookup(proc, src)
	if st != StatusOK {
		return response{status: st}
	}
	if len(hi) != len(lo) || len(srcLo) != len(lo) {
		return response{status: StatusInvalid}
	}
	dims := make([]int, len(lo))
	for i := range dims {
		dims[i] = hi[i] - lo[i]
	}
	sched, err := de.meta.TransferSchedule(se.meta, lo, srcLo, dims, step)
	if err != nil {
		return response{status: StatusInvalid}
	}
	npairs := len(sched.Blocks)
	if npairs == 0 {
		return response{status: StatusOK}
	}
	// The pair list, flattened in schedule order; a pair's index is its
	// index in the call.
	rc := &redistCall{m: m, c: m.open(npairs), proc: proc, src: src, dst: dst,
		pairs: make([]redistShip, npairs), dedup: m.policy.Load() != nil}
	all := make([]int, npairs)
	for i, pb := range sched.Blocks {
		rc.pairs[i] = redistShip{pb, i}
		all[i] = i
	}
	rc.resend(all)
	status := StatusOK
	m.gather(rc.c, rc, func(_ int, r response) {
		if r.status > status {
			status = r.status
		}
	})
	return response{status: status}
}

// redistCall is one redistribution in flight and its resend hook: the
// pairs of call c, (re)sent grouped by source owner.
type redistCall struct {
	m        *Manager
	c        call
	proc     int // the coordinator
	src, dst darray.ID
	pairs    []redistShip
	dedup    bool // sent under a call policy
	sends    int  // send generations so far
}

// lost reports whether pair i has a dead endpoint.
func (rc *redistCall) lost(i int) bool {
	router := rc.m.machine.Router()
	return router.Down(rc.pairs[i].SrcProc) || router.Down(rc.pairs[i].DstProc)
}

// resend (re)issues the listed pairs, grouped by source owner in
// schedule order: one redist_src per remote owner, the local group
// serviced inline. Each generation's orders take index -1-generation,
// so a source owner's dedup filter tells a duplicated order from a
// re-send while its ships keep their pair indexes. A send refused up
// front (dead or closed) answers its pairs at once, so gather never
// waits on them.
func (rc *redistCall) resend(todo []int) {
	m, proc := rc.m, rc.proc
	router := m.machine.Router()
	gen := rc.sends
	rc.sends++
	order := make([]int, 0, 8)
	bySrc := make(map[int][]redistShip)
	for _, pi := range todo {
		sp := rc.pairs[pi].SrcProc
		if _, ok := bySrc[sp]; !ok {
			order = append(order, sp)
		}
		bySrc[sp] = append(bySrc[sp], rc.pairs[pi])
	}
	fail := func(ships []redistShip, st Status) {
		for _, sh := range ships {
			m.deliver(rc.c.id, sh.pair, response{status: st})
		}
	}
	for _, sp := range order {
		oreq := request{op: opRedistSrc, id: rc.src, id2: rc.dst, ships: bySrc[sp],
			origin: proc, cid: rc.c.id, idx: -1 - gen, dedup: rc.dedup}
		if sp == proc {
			m.doRedistSrc(proc, &oreq)
			continue
		}
		if router.Down(sp) {
			fail(oreq.ships, StatusDown)
			continue
		}
		sreq := getShipReq()
		*sreq = oreq
		if err := m.post(proc, sp, sreq); err != nil {
			fail(oreq.ships, sendStatus(err))
			putShipReq(sreq)
		} else if !router.Local(sp) {
			// A remote send serialized the request before returning,
			// so the object is already free.
			putShipReq(sreq)
		}
	}
}

// doRedistSrc services one source owner's group of a redistribution
// (req.id names the source array, req.id2 the destination): each pair
// whose destination is this same processor is copied in place under the
// server lock; every other pair is read into a pooled buffer and
// forwarded to its destination owner as one redist_ship message.
// Exactly one answer is produced per pair — by this routine on a local
// copy or any failure, by the destination owner otherwise.
func (m *Manager) doRedistSrc(proc int, req *request) {
	e, st := m.lookup(proc, req.id)
	srv := m.servers[proc]
	router := m.machine.Router()
	for _, sh := range req.ships {
		if st != StatusOK {
			m.complete(proc, req, sh.pair, response{status: st})
			continue
		}
		if sh.DstProc == proc {
			m.complete(proc, req, sh.pair, response{status: m.redistLocalPair(proc, req.id2, e, sh)})
			continue
		}
		var vals []float64
		fail := StatusOK
		srv.mu.Lock()
		// A promoted processor can source several slots of the same array;
		// the ship's slot picks the section the piece actually lives in.
		sec := e.sectionFor(sh.SrcSlot)
		n, ok := pieceSize(e.meta, nil, sh.SrcLo, sh.SrcHi, sh.SrcStep, sh.Runs)
		switch {
		case sec == nil:
			fail = StatusError
		case !ok:
			fail = StatusInvalid
		default:
			vals = getBuf(n)
			fail = movePiece(true, sec, e.meta, vals, nil, sh.SrcLo, sh.SrcHi, sh.SrcStep, sh.Runs)
		}
		srv.mu.Unlock()
		if fail != StatusOK {
			putBuf(vals)
			m.complete(proc, req, sh.pair, response{status: fail})
			continue
		}
		dreq := getShipReq()
		*dreq = request{op: opRedistShip, id: req.id2, slot: sh.DstSlot,
			lo: sh.DstLo, hi: sh.DstHi, step: sh.DstStep, runs: sh.Runs,
			vals: vals, node: proc,
			origin: req.origin, cid: req.cid, idx: sh.pair, dedup: req.dedup}
		if err := m.post(proc, sh.DstProc, dreq); err != nil {
			putBuf(vals)
			putShipReq(dreq)
			m.complete(proc, req, sh.pair, response{status: sendStatus(err)})
		} else if !router.Local(sh.DstProc) {
			// Remote ship: the transport serialized the piece before
			// returning, so the buffer and request recycle immediately.
			putBuf(vals)
			putShipReq(dreq)
		}
	}
}

// redistLocalPair moves one pair whose source and destination cells
// live on the same processor: no message and no intermediate buffer,
// just CopyRect between the two sections under the server lock — the
// zero-copy fast path of the redistribution plane.
func (m *Manager) redistLocalPair(proc int, dstID darray.ID, srcE *entry, sh redistShip) Status {
	srv := m.servers[proc]
	srv.mu.Lock()
	de, ok := srv.entries[dstID]
	if !ok || de.freed {
		srv.mu.Unlock()
		return StatusNotFound
	}
	dsec := de.sectionFor(sh.DstSlot)
	ssec := srcE.sectionFor(sh.SrcSlot)
	if dsec == nil || ssec == nil {
		srv.mu.Unlock()
		return StatusError
	}
	if darray.CopyRect(dsec, de.meta, sh.DstLo, sh.DstStep, ssec, srcE.meta, sh.SrcLo, sh.SrcHi, sh.SrcStep, sh.Runs) != nil {
		srv.mu.Unlock()
		return StatusInvalid
	}
	if de.meta.Replicas == 0 {
		srv.mu.Unlock()
		return StatusOK
	}
	// Replicated destination: read the landed piece back out of the
	// section so the buddy owners receive exactly the bytes the zero-copy
	// path just wrote, then mirror outside the lock (buddies mirror to
	// each other, so awaiting under the lock could deadlock a ring).
	meta := de.meta
	n, _ := pieceSize(meta, nil, sh.DstLo, sh.DstHi, sh.DstStep, sh.Runs) // the copy above validated it
	vals := make([]float64, n)
	st := movePiece(true, dsec, meta, vals, nil, sh.DstLo, sh.DstHi, sh.DstStep, sh.Runs)
	srv.mu.Unlock()
	if st != StatusOK {
		return StatusError
	}
	return m.mirrorWrite(proc, meta, &request{id: dstID, slot: sh.DstSlot,
		lo: sh.DstLo, hi: sh.DstHi, step: sh.DstStep, runs: sh.Runs, vals: vals})
}

// doRedistShip lands one shipped piece at its destination owner: the
// packed values are written to the destination run lists, the pair is
// answered, and the buffer is returned to the pool of the source owner
// that drew it.
func (m *Manager) doRedistShip(proc int, req *request) {
	node, vals := req.node, req.vals
	var meta *darray.Meta
	e, st := m.lookup(proc, req.id)
	if st == StatusOK {
		srv := m.servers[proc]
		srv.mu.Lock()
		if sec := e.sectionFor(req.slot); sec == nil {
			st = StatusError
		} else {
			st = movePiece(false, sec, e.meta, vals, nil, req.lo, req.hi, req.step, req.runs)
		}
		if st == StatusOK {
			meta = e.meta
		}
		srv.mu.Unlock()
	}
	if meta != nil && meta.Replicas > 0 {
		// Mirror before answering and before any recycling: the answer
		// releases the coordinator, and the free lists must not reuse
		// vals or req while a mirror is still reading them.
		if mst := m.mirrorWrite(proc, meta, req); mst > st {
			st = mst
		}
	}
	m.complete(proc, req, req.idx, response{status: st})
	// The piece came from the float-buffer pool either way: drawn by the
	// source owner in this process, or by the codec that decoded it (off
	// the wire, or into a fault-plane duplicate). Only a request whose
	// source owner is in this process returns to the ship-request free
	// list; one decoded off the wire is left to the collector.
	putBuf(vals)
	if m.machine.Router().Local(node) {
		putShipReq(req)
	}
}

// localRedistFast attempts the wholly-local fast path of the
// redistribution plane: when both arrays have entries with sections on
// proc and both rectangles resolve to single local rectangles there,
// the data moves section-to-section with darray.CopyRect under one
// server lock — no message, no intermediate buffer, and no heap
// allocation up to darray.MaxFastDims dimensions. Validation mirrors
// the coordinator's, so a malformed request is declined (ok=false) and
// falls through for the authoritative status. ok reports whether the
// fast path applied.
func (m *Manager) localRedistFast(proc int, dstID, srcID darray.ID, dstLo, srcLo, dims, step []int) (Status, bool) {
	if dstID == srcID {
		return StatusOK, false
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	de, ok := srv.entries[dstID]
	if !ok || de.freed || de.section == nil {
		return StatusOK, false
	}
	se, ok := srv.entries[srcID]
	if !ok || se.freed || se.section == nil {
		return StatusOK, false
	}
	// Post-promotion ownership and replicated-destination writes belong
	// to the coordinator, as in localBlockFast.
	if de.meta.Epoch > 0 || se.meta.Epoch > 0 || de.meta.Replicas > 0 {
		return StatusOK, false
	}
	n := de.meta.NDims()
	if n > darray.MaxFastDims || se.meta.NDims() != n ||
		len(dstLo) != n || len(srcLo) != n || len(dims) != n {
		return StatusOK, false
	}
	if step != nil && len(step) != n {
		return StatusOK, false
	}
	var srcHi, dstHi, hiEffS, hiEffD [darray.MaxFastDims]int
	for i := 0; i < n; i++ {
		if dims[i] < 1 {
			return StatusOK, false
		}
		st := grid.StepAt(step, i)
		if st < 1 {
			return StatusOK, false
		}
		srcHi[i] = srcLo[i] + dims[i]
		dstHi[i] = dstLo[i] + dims[i]
		// Locality is decided by the lattice's bounding box: clamp each
		// bound to just past the last lattice point.
		lastOff := (dims[i] - 1) / st * st
		hiEffS[i] = srcLo[i] + lastOff + 1
		hiEffD[i] = dstLo[i] + lastOff + 1
	}
	if grid.CheckStridedRect(srcLo, srcHi[:n], step, se.meta.Dims) != nil ||
		grid.CheckStridedRect(dstLo, dstHi[:n], step, de.meta.Dims) != nil {
		return StatusOK, false
	}
	var sLo, sHi, dLo, dHi [darray.MaxFastDims]int
	if !se.meta.LocalRect(proc, srcLo, hiEffS[:n], sLo[:n], sHi[:n]) {
		return StatusOK, false
	}
	if !de.meta.LocalRect(proc, dstLo, hiEffD[:n], dLo[:n], dHi[:n]) {
		return StatusOK, false
	}
	if darray.CopyRect(de.section, de.meta, dLo[:n], step, se.section, se.meta, sLo[:n], sHi[:n], step, nil) != nil {
		return StatusInvalid, true
	}
	return StatusOK, true
}

// Redistribute copies the global rectangle [lo, hi) of array src onto
// the same rectangle of array dst — the two arrays may have entirely
// different distributions (block↔cyclic↔block-cyclic, uneven trailing
// blocks). Each non-empty src-owner/dst-owner intersection travels
// owner-to-owner in at most one message, with no client bounce; a
// wholly-local transfer moves section-to-section with no message and
// zero heap allocations.
func (m *Manager) Redistribute(onProc int, dst, src darray.ID, lo, hi []int) Status {
	if st := m.enter(onProc, "redistribute", dst); st != StatusOK {
		return st
	}
	n := len(lo)
	if len(hi) == n && n <= darray.MaxFastDims {
		var dims [darray.MaxFastDims]int
		okDims := true
		for i := 0; i < n; i++ {
			dims[i] = hi[i] - lo[i]
			if dims[i] < 1 {
				okDims = false
				break
			}
		}
		if okDims {
			if st, ok := m.localRedistFast(onProc, dst, src, lo, lo, dims[:n], nil); ok {
				return st
			}
		}
	}
	return m.sendData(onProc, []darray.ID{dst, src}, func() response {
		return m.doRedistribute(onProc, dst, src, lo, hi, lo, nil)
	}).status
}

// RedistributeRect is the offset variant of Redistribute: source
// element srcLo+j moves to destination element dstLo+j for every
// componentwise 0 <= j < dims, so the rectangle may land at a different
// origin in the destination array (a panel handoff into column 0, a
// shifted copy).
func (m *Manager) RedistributeRect(onProc int, dst, src darray.ID, dstLo, srcLo, dims []int) Status {
	if st := m.enter(onProc, "redistribute", dst); st != StatusOK {
		return st
	}
	if st, ok := m.localRedistFast(onProc, dst, src, dstLo, srcLo, dims, nil); ok {
		return st
	}
	hi := make([]int, len(dstLo))
	for i := range hi {
		if i < len(dims) {
			hi[i] = dstLo[i] + dims[i]
		}
	}
	return m.sendData(onProc, []darray.ID{dst, src}, func() response {
		return m.doRedistribute(onProc, dst, src, dstLo, hi, srcLo, nil)
	}).status
}

// RedistributeStrided copies every step[i]-th element of the global
// rectangle [lo, hi) of array src onto the matching lattice of array
// dst.
func (m *Manager) RedistributeStrided(onProc int, dst, src darray.ID, lo, hi, step []int) Status {
	if st := m.enter(onProc, "redistribute", dst); st != StatusOK {
		return st
	}
	n := len(lo)
	if len(hi) == n && len(step) == n && n <= darray.MaxFastDims {
		var dims [darray.MaxFastDims]int
		okDims := true
		for i := 0; i < n; i++ {
			dims[i] = hi[i] - lo[i]
			if dims[i] < 1 || step[i] < 1 {
				okDims = false
				break
			}
		}
		if okDims {
			if st, ok := m.localRedistFast(onProc, dst, src, lo, lo, dims[:n], step); ok {
				return st
			}
		}
	}
	return m.sendData(onProc, []darray.ID{dst, src}, func() response {
		return m.doRedistribute(onProc, dst, src, lo, hi, lo, step)
	}).status
}
