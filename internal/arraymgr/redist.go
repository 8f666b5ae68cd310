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
// bounce. Completion is one ack channel shared by all pairs and entered
// in the completion table; each pair is acknowledged by that id
// (complete, wire.go), so an ack from an owner in the coordinator's
// process costs no message. Ship traffic is one-way: it travels as an
// ordinary request, and handle dispatches its two ops without a reply.
package arraymgr

import (
	"sync"
	"time"

	"repro/internal/darray"
	"repro/internal/grid"
)

// redistShip is one owner pair's piece of a redistribution, as shipped
// to the source owner: the schedule block, whose slots route each side
// to the right section (after a failover promotion a processor may own
// several slots), and the pair's index in the coordinator's pair list —
// the ack identity of the resilient protocol and, with the coordinator's
// call id, the dedup identity at the destination.
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
// groups the pairs by source owner, sends each remote source owner one
// redist_src request (servicing its own group inline), and waits for
// one ack per pair on a shared buffered channel entered in the
// completion table. Sends and deliveries never block, so the
// protocol cannot deadlock; the merged status is the worst any pair
// reported.
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
	pol := m.policy.Load()
	router := m.machine.Router()
	// The pair list, flattened in schedule order; a pair's index is its
	// ack identity. Under a call policy the whole operation also gets a
	// call id, which with the pair index lets destination owners dedup
	// re-shipped pieces across retransmit attempts.
	var call uint64
	ackCap := npairs
	if pol != nil {
		call = m.nextSeq()
		// Every attempt can produce at most one ack per pair; size the
		// channel so even a fully retried run (plus stragglers landing
		// after abandonment) can never block a server goroutine.
		ackCap = npairs * (pol.Retries + 3)
	}
	ack := make(chan response, ackCap)
	// Every owner acknowledges through the completion table;
	// deliver's non-blocking send plus the acked[] filter below make a
	// straggler or a duplicate harmless.
	ackID := m.register(ack)
	defer m.unregister(ackID)
	pairs := make([]redistShip, npairs)
	for i, pb := range sched.Blocks {
		pairs[i] = redistShip{pb, i}
	}
	// sendGroups (re)issues the listed pairs, grouped by source owner in
	// schedule order: one redist_src per remote owner, the local group
	// serviced inline. A send refused up front (dead or closed) acks its
	// pairs immediately so the gather never waits on it.
	sendGroups := func(todo []int) {
		order := make([]int, 0, 8)
		bySrc := make(map[int][]redistShip)
		for _, pi := range todo {
			sp := pairs[pi].SrcProc
			if _, ok := bySrc[sp]; !ok {
				order = append(order, sp)
			}
			bySrc[sp] = append(bySrc[sp], pairs[pi])
		}
		for _, sp := range order {
			if sp == proc {
				m.doRedistSrc(proc, &request{op: opRedistSrc, id: src, id2: dst, ships: bySrc[sp],
					call: call, origin: proc, ackProc: proc, ackID: ackID})
				continue
			}
			sreq := getShipReq()
			*sreq = request{op: opRedistSrc, id: src, id2: dst, ships: bySrc[sp],
				call: call, origin: proc, ackProc: proc, ackID: ackID}
			if pol != nil {
				sreq.seq = m.nextSeq()
			}
			if router.Down(sp) {
				for _, sh := range bySrc[sp] {
					ack <- response{status: StatusDown, pair: sh.pair}
				}
				putShipReq(sreq)
				continue
			}
			if err := m.post(proc, sp, sreq); err != nil {
				for _, sh := range bySrc[sp] {
					ack <- response{status: sendStatus(err), pair: sh.pair}
				}
				putShipReq(sreq)
			} else if !router.Local(sp) {
				// A remote send serialized the request before returning,
				// so the object is already free.
				putShipReq(sreq)
			}
		}
	}
	all := make([]int, npairs)
	for i := range all {
		all[i] = i
	}
	sendGroups(all)
	// Gather acks by pair identity; selecting on Done keeps a mid-call
	// shutdown from deadlocking the gather. With no policy the deadline
	// channel is nil and exactly one ack arrives per pair. Under a policy
	// each attempt has a deadline: unacked pairs with a dead endpoint
	// fail as StatusDown, the rest are re-sent (bounded exponential
	// backoff) until the retry budget is spent.
	acked := make([]bool, npairs)
	remaining := npairs
	status := StatusOK
	var timer *time.Timer
	var deadline <-chan time.Time
	var backoff time.Duration
	if pol != nil {
		timer = time.NewTimer(pol.Timeout)
		defer timer.Stop()
		deadline, backoff = timer.C, pol.Backoff
	}
	for attempt := 0; ; attempt++ {
		expired := false
		for remaining > 0 && !expired {
			select {
			case r := <-ack:
				if r.pair >= 0 && r.pair < npairs && !acked[r.pair] {
					acked[r.pair] = true
					remaining--
					if r.status > status {
						status = r.status
					}
				}
			case <-router.Done():
				return response{status: StatusClosed}
			case <-deadline:
				expired = true
			}
		}
		if remaining == 0 {
			return response{status: status}
		}
		m.timeouts.Add(1)
		todo := make([]int, 0, remaining)
		for i := range pairs {
			if acked[i] {
				continue
			}
			if router.Down(pairs[i].SrcProc) || router.Down(pairs[i].DstProc) {
				acked[i] = true
				remaining--
				if StatusDown > status {
					status = StatusDown
				}
				continue
			}
			todo = append(todo, i)
		}
		if remaining == 0 {
			return response{status: status}
		}
		if attempt >= pol.Retries {
			if StatusTimeout > status {
				status = StatusTimeout
			}
			return response{status: status}
		}
		if backoff > 0 {
			time.Sleep(m.jitterBackoff(backoff))
			backoff *= 2
		}
		m.retransmits.Add(uint64(len(todo)))
		sendGroups(todo)
		timer.Reset(pol.Timeout)
	}
}

// doRedistSrc services one source owner's group of a redistribution
// (req.id names the source array, req.id2 the destination): each pair
// whose destination is this same processor is copied in place under the
// server lock; every other pair is read into a pooled buffer and
// forwarded to its destination owner as one redist_ship message.
// Exactly one ack is produced per pair — by this routine on a local
// copy or any failure, by the destination owner otherwise.
func (m *Manager) doRedistSrc(proc int, req *request) {
	e, st := m.lookup(proc, req.id)
	srv := m.servers[proc]
	router := m.machine.Router()
	for _, sh := range req.ships {
		if st != StatusOK {
			m.complete(proc, req.ackProc, req.ackID, response{status: st, pair: sh.pair})
			continue
		}
		if sh.DstProc == proc {
			m.complete(proc, req.ackProc, req.ackID, response{status: m.redistLocalPair(proc, req.id2, e, sh), pair: sh.pair})
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
			m.complete(proc, req.ackProc, req.ackID, response{status: fail, pair: sh.pair})
			continue
		}
		dreq := getShipReq()
		*dreq = request{op: opRedistShip, id: req.id2, slot: sh.DstSlot,
			lo: sh.DstLo, hi: sh.DstHi, step: sh.DstStep, runs: sh.Runs,
			vals: vals, node: proc, call: req.call, pair: sh.pair,
			origin: req.origin, ackProc: req.ackProc, ackID: req.ackID}
		if err := m.post(proc, sh.DstProc, dreq); err != nil {
			putBuf(vals)
			putShipReq(dreq)
			m.complete(proc, req.ackProc, req.ackID, response{status: sendStatus(err), pair: sh.pair})
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
// acknowledged, and the buffer is returned to the pool of the source
// owner that drew it.
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
		// Mirror before acking and before any recycling: the ack releases
		// the coordinator, and the free lists must not reuse vals or req
		// while a mirror is still reading them.
		if mst := m.mirrorWrite(proc, meta, req); mst > st {
			st = mst
		}
	}
	m.complete(proc, req.ackProc, req.ackID, response{status: st, pair: req.pair})
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
