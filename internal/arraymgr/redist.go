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
//     on the same process — the piece moves with darray.CopyRect or
//     CopyOffsets under that server's lock.
//
// A pair ships as bounds: a strided local rectangle on each side, with
// its own step per side (a block→cyclic panel pair reads every P-th row
// at the source and lands dense at the destination). Only a block-cyclic
// side of width > 1 ships paired offset lists instead.
//
// That is ≤1 message per non-empty owner pair (plus the per-owner
// redist_src fan-out), against read+write coordinator rounds for the
// bounce. Completion travels on an in-process ack channel shared by all
// pairs — acks ride channels like request replies, so they cost no
// messages. Ship traffic is one-way (no reply channel), so it travels
// under its own reserved message kind and bypasses handle's
// unconditional reply send.
package arraymgr

import (
	"sync"
	"time"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/trace"
)

// kindAMShip is the reserved task-class message kind carrying one-way
// redistribution traffic (redist_src, redist_ship): requests that are
// acknowledged through the coordinator's shared ack channel rather than
// a per-request reply (-101 is dcall's combine kind).
const kindAMShip = -102

// redistShip is one owner pair's piece of a redistribution, as shipped
// to the source owner: either a strided local rectangle on each side,
// each with its own step (nil = dense), or paired storage offsets
// (srcOffs non-nil marks that form).
type redistShip struct {
	dstProc               int
	srcLo, srcHi, srcStep []int
	dstLo, dstHi, dstStep []int
	srcOffs               []int
	dstOffs               []int
	// srcSlot/dstSlot are the grid slots the pair's cells belong to:
	// after a failover promotion a processor may own several slots, so
	// owners route each piece to the right section by slot, not by
	// processor.
	srcSlot, dstSlot int
	// pair is this ship's index in the coordinator's flattened pair
	// list: the ack identity of the resilient protocol and, with the
	// coordinator's call id, the dedup identity at the destination.
	pair int
}

// The ship-request free list. Ship requests are created by one process
// and released by another after a one-way send, so they cannot ride a
// per-server pool; a deterministic shared free list (rather than a
// sync.Pool, whose GC interaction would flake the 0 allocs/op pins)
// keeps the steady state allocation-free.
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

// newShipReq draws a ship request, bypassing the free list under an
// active fault plan: the router may re-deliver the same *request pointer
// (duplication) or hold it queued past this call (jitter), so a recycled
// object could alias a later send. Faulty mode trades the 0 allocs/op
// pin for aliasing safety; reliable mode keeps the pooled path bitwise
// intact.
func newShipReq(faulty bool) *request {
	if faulty {
		return new(request)
	}
	return getShipReq()
}

// recycleShipReq is putShipReq's faulty-aware counterpart.
func recycleShipReq(faulty bool, r *request) {
	if !faulty {
		putShipReq(r)
	}
}

// handleShip dispatches one-way redistribution traffic at the server on
// proc: redist_src (this processor is a source owner; read and forward
// each piece) and redist_ship (this processor is a destination owner;
// write the piece and acknowledge).
func (m *Manager) handleShip(proc int, req *request) {
	if trace.Enabled(trace.Ops) {
		trace.Logf(trace.Ops, proc, "am: %s %v", req.op, req.id)
	}
	switch req.op {
	case opRedistSrc:
		m.doRedistSrc(proc, req)
		recycleShipReq(m.machine.Router().Faulty(), req)
	case opRedistShip:
		m.doRedistShip(proc, req)
	}
}

// doRedistribute is the redistribution coordinator: it computes the
// owner-pair schedule for copying the source rectangle (origin req.lo2)
// of array req.id2 onto the destination rectangle (req.lo, req.hi) of
// array req.id, groups the pairs by source owner, sends each remote
// source owner one redist_src request (servicing its own group inline),
// and waits for exactly one ack per pair on a shared buffered channel.
// Sends never block and the ack channel holds every ack, so the
// protocol cannot deadlock; the merged status is the worst any pair
// reported.
func (m *Manager) doRedistribute(proc int, req *request) response {
	if req.id == req.id2 {
		return response{status: StatusInvalid} // aliasing copies are undefined
	}
	de, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	se, st := m.lookup(proc, req.id2)
	if st != StatusOK {
		return response{status: st}
	}
	if len(req.hi) != len(req.lo) || len(req.lo2) != len(req.lo) {
		return response{status: StatusInvalid}
	}
	dims := make([]int, len(req.lo))
	for i := range dims {
		dims[i] = req.hi[i] - req.lo[i]
	}
	sched, err := de.meta.TransferSchedule(se.meta, req.lo, req.lo2, dims, req.step)
	if err != nil {
		return response{status: StatusInvalid}
	}
	npairs := sched.NPairs()
	if npairs == 0 {
		return response{status: StatusOK}
	}
	pol := m.policy.Load()
	router := m.machine.Router()
	faulty := router.Faulty()
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
	// On a partitioned router remote owners acknowledge through the
	// completion table (wire.go) instead of the channel; deliverReply's
	// non-blocking send plus the acked[] filter below make straggler
	// overflow safe.
	var ackID uint64
	if router.Partitioned() {
		ackID = m.register(ack)
		defer m.unregister(ackID)
	}
	type pairRec struct {
		srcProc int
		ship    redistShip
	}
	pairs := make([]pairRec, 0, npairs)
	for _, pb := range sched.Blocks {
		pairs = append(pairs, pairRec{pb.SrcProc, redistShip{
			dstProc: pb.DstProc,
			srcLo:   pb.SrcLo, srcHi: pb.SrcHi, srcStep: pb.SrcStep,
			dstLo: pb.DstLo, dstHi: pb.DstHi, dstStep: pb.DstStep,
			srcSlot: pb.SrcSlot, dstSlot: pb.DstSlot,
		}})
	}
	for _, ps := range sched.Sets {
		pairs = append(pairs, pairRec{ps.SrcProc, redistShip{
			dstProc: ps.DstProc,
			srcOffs: ps.SrcOffs, dstOffs: ps.DstOffs,
			srcSlot: ps.SrcSlot, dstSlot: ps.DstSlot,
		}})
	}
	for i := range pairs {
		pairs[i].ship.pair = i
	}
	// sendGroups (re)issues the listed pairs, grouped by source owner in
	// schedule order: one redist_src per remote owner, the local group
	// serviced inline. A send refused up front (dead or closed) acks its
	// pairs immediately so the gather never waits on it.
	sendGroups := func(todo []int) {
		order := make([]int, 0, 8)
		bySrc := make(map[int][]redistShip)
		for _, pi := range todo {
			sp := pairs[pi].srcProc
			if _, ok := bySrc[sp]; !ok {
				order = append(order, sp)
			}
			bySrc[sp] = append(bySrc[sp], pairs[pi].ship)
		}
		for _, sp := range order {
			if sp == proc {
				// The inline group still carries (ackProc, ackID): its
				// onward ships may target remote destination owners, which
				// acknowledge over the wire.
				m.doRedistSrc(proc, &request{op: opRedistSrc, id: req.id2, id2: req.id, ships: bySrc[sp],
					ack: ack, call: call, origin: proc, ackProc: proc, ackID: ackID})
				continue
			}
			sreq := newShipReq(faulty)
			*sreq = request{op: opRedistSrc, id: req.id2, id2: req.id, ships: bySrc[sp],
				ack: ack, call: call, origin: proc, ackProc: proc, ackID: ackID}
			if pol != nil {
				sreq.seq = m.nextSeq()
			}
			if router.Down(sp) {
				for _, sh := range bySrc[sp] {
					ack <- response{status: StatusDown, pair: sh.pair}
				}
				recycleShipReq(faulty, sreq)
				continue
			}
			if err := m.postShip(proc, sp, sreq); err != nil {
				for _, sh := range bySrc[sp] {
					ack <- response{status: sendStatus(err), pair: sh.pair}
				}
				recycleShipReq(faulty, sreq)
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
	if pol == nil {
		// Reliable mode: exactly one ack arrives per pair; selecting on
		// Done keeps a mid-call shutdown from deadlocking the gather.
		status := StatusOK
		for i := 0; i < npairs; i++ {
			select {
			case r := <-ack:
				if r.status > status {
					status = r.status
				}
			case <-router.Done():
				return response{status: StatusClosed}
			}
		}
		return response{status: status}
	}
	// Resilient mode: gather acks by pair identity with a per-attempt
	// deadline; unacked pairs with a dead endpoint fail as StatusDown,
	// the rest are re-sent (bounded exponential backoff) until the retry
	// budget is spent.
	acked := make([]bool, npairs)
	remaining := npairs
	status := StatusOK
	backoff := pol.Backoff
	timer := time.NewTimer(pol.Timeout)
	defer timer.Stop()
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
			case <-timer.C:
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
			if router.Down(pairs[i].srcProc) || router.Down(pairs[i].ship.dstProc) {
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
	// Under a fault plan, shipped buffers and ship requests must not come
	// from (or return to) the pools: the router may duplicate a delivery
	// or hold one queued past the destination's release of the object.
	faulty := router.Faulty()
	alloc := func(n int) []float64 {
		if faulty {
			return make([]float64, n)
		}
		return srv.getBuf(n)
	}
	for _, sh := range req.ships {
		if st != StatusOK {
			m.shipAck(proc, req, response{status: st, pair: sh.pair})
			continue
		}
		if sh.dstProc == proc {
			m.shipAck(proc, req, response{status: m.redistLocalPair(proc, req.id2, e, sh), pair: sh.pair})
			continue
		}
		var vals []float64
		fail := StatusOK
		srv.mu.Lock()
		// A promoted processor can source several slots of the same array;
		// the ship's slot picks the section the piece actually lives in.
		sec := e.sectionFor(sh.srcSlot)
		switch {
		case sec == nil:
			fail = StatusError
		case sh.srcOffs != nil:
			vals = alloc(len(sh.srcOffs))
			if sec.GatherInto(vals, sh.srcOffs) != nil {
				fail = StatusError
			}
		case sh.srcStep != nil:
			// Validate before sizing the buffer: getBuf of a bogus extent
			// must not happen.
			if grid.CheckStridedRect(sh.srcLo, sh.srcHi, sh.srcStep, e.meta.LocalDims) != nil {
				fail = StatusInvalid
			} else {
				vals = alloc(grid.StridedRectSize(sh.srcLo, sh.srcHi, sh.srcStep))
				if sec.ReadBlockStridedInto(vals, sh.srcLo, sh.srcHi, sh.srcStep, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing) != nil {
					fail = StatusInvalid
				}
			}
		default:
			if grid.CheckRect(sh.srcLo, sh.srcHi, e.meta.LocalDims) != nil {
				fail = StatusInvalid
			} else {
				vals = alloc(grid.RectSize(sh.srcLo, sh.srcHi))
				if sec.ReadBlockInto(vals, sh.srcLo, sh.srcHi, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing) != nil {
					fail = StatusInvalid
				}
			}
		}
		srv.mu.Unlock()
		if fail != StatusOK {
			srv.putBuf(vals)
			m.shipAck(proc, req, response{status: fail, pair: sh.pair})
			continue
		}
		dreq := newShipReq(faulty)
		*dreq = request{op: opRedistShip, id: req.id2, slot: sh.dstSlot,
			lo: sh.dstLo, hi: sh.dstHi, step: sh.dstStep, offs: sh.dstOffs,
			vals: vals, node: proc, ack: req.ack, call: req.call, pair: sh.pair,
			origin: req.origin, ackProc: req.ackProc, ackID: req.ackID}
		if err := m.postShip(proc, sh.dstProc, dreq); err != nil {
			srv.putBuf(vals)
			recycleShipReq(faulty, dreq)
			m.shipAck(proc, req, response{status: sendStatus(err), pair: sh.pair})
		} else if !router.Local(sh.dstProc) {
			// Remote ship: the transport serialized the piece before
			// returning, so the buffer and request recycle immediately —
			// the wire analogue of the destination owner's putBuf.
			srv.putBuf(vals)
			putShipReq(dreq)
		}
	}
}

// redistLocalPair moves one pair whose source and destination cells
// live on the same processor: no message and no intermediate buffer,
// just CopyRect/CopyOffsets between the two sections under the server
// lock — the zero-copy fast path of the redistribution plane.
func (m *Manager) redistLocalPair(proc int, dstID darray.ID, srcE *entry, sh redistShip) Status {
	srv := m.servers[proc]
	srv.mu.Lock()
	de, ok := srv.entries[dstID]
	if !ok || de.freed {
		srv.mu.Unlock()
		return StatusNotFound
	}
	dsec := de.sectionFor(sh.dstSlot)
	ssec := srcE.sectionFor(sh.srcSlot)
	if dsec == nil || ssec == nil {
		srv.mu.Unlock()
		return StatusError
	}
	if sh.srcOffs != nil {
		if darray.CopyOffsets(dsec, ssec, sh.dstOffs, sh.srcOffs) != nil {
			srv.mu.Unlock()
			return StatusError
		}
	} else if darray.CopyRect(dsec, de.meta, sh.dstLo, sh.dstStep, ssec, srcE.meta, sh.srcLo, sh.srcHi, sh.srcStep) != nil {
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
	var vals []float64
	var err error
	switch {
	case sh.srcOffs != nil:
		vals = make([]float64, len(sh.dstOffs))
		err = dsec.GatherInto(vals, sh.dstOffs)
	case sh.dstStep != nil:
		vals = make([]float64, grid.StridedRectSize(sh.dstLo, sh.dstHi, sh.dstStep))
		err = dsec.ReadBlockStridedInto(vals, sh.dstLo, sh.dstHi, sh.dstStep, meta.LocalDims, meta.Borders, meta.Indexing)
	default:
		vals = make([]float64, grid.RectSize(sh.dstLo, sh.dstHi))
		err = dsec.ReadBlockInto(vals, sh.dstLo, sh.dstHi, meta.LocalDims, meta.Borders, meta.Indexing)
	}
	srv.mu.Unlock()
	if err != nil {
		return StatusError
	}
	return m.mirrorWrite(proc, meta, &request{id: dstID, slot: sh.dstSlot,
		lo: sh.dstLo, hi: sh.dstHi, step: sh.dstStep, offs: sh.dstOffs, vals: vals})
}

// doRedistShip lands one shipped piece at its destination owner: the
// packed values are written to the destination rectangle (or scattered
// to the destination offsets), the pair is acknowledged, and the buffer
// is returned to the pool of the source owner that drew it.
func (m *Manager) doRedistShip(proc int, req *request) {
	node, vals := req.node, req.vals
	var meta *darray.Meta
	e, st := m.lookup(proc, req.id)
	if st == StatusOK {
		srv := m.servers[proc]
		srv.mu.Lock()
		sec := e.sectionFor(req.slot)
		switch {
		case sec == nil:
			st = StatusError
		case req.offs != nil:
			if sec.ScatterFrom(vals, req.offs) != nil {
				st = StatusError
			}
		case req.step != nil:
			if sec.WriteBlockStrided(vals, req.lo, req.hi, req.step, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing) != nil {
				st = StatusInvalid
			}
		default:
			if sec.WriteBlock(vals, req.lo, req.hi, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing) != nil {
				st = StatusInvalid
			}
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
	m.shipAck(proc, req, response{status: st, pair: req.pair})
	router := m.machine.Router()
	if !router.Faulty() {
		// A piece that crossed the wire was decoded onto fresh heap, its
		// request included — neither came from (or returns to) the source
		// owner's pools.
		if router.Local(node) {
			m.servers[node].putBuf(vals)
			putShipReq(req)
		}
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
		st := 1
		if step != nil {
			st = step[i]
			if st < 1 {
				return StatusOK, false
			}
		}
		srcHi[i] = srcLo[i] + dims[i]
		dstHi[i] = dstLo[i] + dims[i]
		// Locality is decided by the lattice's bounding box: clamp each
		// bound to just past the last lattice point.
		lastOff := (dims[i] - 1) / st * st
		hiEffS[i] = srcLo[i] + lastOff + 1
		hiEffD[i] = dstLo[i] + lastOff + 1
	}
	if step == nil {
		if grid.CheckRect(srcLo, srcHi[:n], se.meta.Dims) != nil ||
			grid.CheckRect(dstLo, dstHi[:n], de.meta.Dims) != nil {
			return StatusOK, false
		}
	} else if grid.CheckStridedRect(srcLo, srcHi[:n], step, se.meta.Dims) != nil ||
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
	if darray.CopyRect(de.section, de.meta, dLo[:n], step, se.section, se.meta, sLo[:n], sHi[:n], step) != nil {
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
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
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
	return m.sendData(onProc, []darray.ID{dst, src}, func() *request {
		return &request{op: opRedistribute, id: dst, id2: src, lo: lo, hi: hi, lo2: lo}
	}).status
}

// RedistributeRect is the offset variant of Redistribute: source
// element srcLo+j moves to destination element dstLo+j for every
// componentwise 0 <= j < dims, so the rectangle may land at a different
// origin in the destination array (a panel handoff into column 0, a
// shifted copy).
func (m *Manager) RedistributeRect(onProc int, dst, src darray.ID, dstLo, srcLo, dims []int) Status {
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
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
	return m.sendData(onProc, []darray.ID{dst, src}, func() *request {
		return &request{op: opRedistribute, id: dst, id2: src, lo: dstLo, hi: hi, lo2: srcLo}
	}).status
}

// RedistributeStrided copies every step[i]-th element of the global
// rectangle [lo, hi) of array src onto the matching lattice of array
// dst. A unit step in every dimension delegates to the dense path.
func (m *Manager) RedistributeStrided(onProc int, dst, src darray.ID, lo, hi, step []int) Status {
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	if len(step) == len(lo) && unitStep(step) {
		return m.Redistribute(onProc, dst, src, lo, hi)
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
	return m.sendData(onProc, []darray.ID{dst, src}, func() *request {
		return &request{op: opRedistribute, id: dst, id2: src, lo: lo, hi: hi, lo2: lo, step: step}
	}).status
}
