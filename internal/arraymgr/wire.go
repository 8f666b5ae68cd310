// The array manager's one completion path, and what else the protocol
// needs once it spans OS processes. The *request itself crosses the
// wire (codec.go encodes it field by field).
//
//   - every waiter is registered: sendAsync enters each awaited
//     request's one-shot channel, and doRedistribute its shared ack
//     channel, in one completion table (pending) under an id from
//     nextReply. A request carries its waiter's id as replyID, a ship
//     order as (ackProc, ackID), and no field a handler reads holds a
//     channel. A handler answers by id alone (complete): straight into
//     the table when the waiter's processor is hosted in this process
//     (no router message), as a *wireResponse message (kindAM, the
//     requests' kind) addressed to that processor otherwise. Delivery never blocks, so
//     a late or duplicate answer is dropped at the table;
//   - pooled buffers never cross: the Transport contract says Send
//     serializes synchronously, so an owner's reply buffer or a ship
//     request can be recycled the moment a remote Send returns. The
//     codec decodes every payload into the float-buffer pool, so the
//     receiving side recycles it exactly like a same-process buffer: the
//     coordinator after assembling a reply, the owner after applying a
//     write;
//   - retransmission re-sends the same *request, which is read-only once
//     sent, so a remote retransmit re-encodes to identical bytes.
//
// Decode happens in the transport, before the serve loop's dedup
// filter, so retransmitted wire requests are filtered exactly like
// in-process ones.
package arraymgr

import (
	"errors"

	"repro/internal/msg"
)

// wireResponse is one reply or redistribution ack travelling back over
// the wire; ID is the completion-table id it answers. Info is part of
// the reply format, but no owner op answers with one: the ops that
// return a value (create_array's ID, find_info) are coordinators, which
// run in their caller's process.
type wireResponse struct {
	ID     uint64
	Status Status
	Vals   []float64
	Info   any
	Pair   int
}

// waiter is one awaited request and the channel its completion-table id
// resolves to: sendAsync returns it, await consumes it.
type waiter struct {
	req  *request
	done chan response
}

// register enters a completion channel — a request's one-shot reply
// channel or a redistribution's shared ack channel — in the pending
// table and returns its id. Ids are never zero.
func (m *Manager) register(ch chan response) uint64 {
	id := m.nextReply.Add(1)
	m.pendMu.Lock()
	m.pending[id] = ch
	m.pendMu.Unlock()
	return id
}

// unregister drops a pending entry once its waiter has its answer (or
// gave up); a straggler addressed to a dropped id is discarded by
// deliver.
func (m *Manager) unregister(id uint64) {
	m.pendMu.Lock()
	delete(m.pending, id)
	m.pendMu.Unlock()
}

// deliver puts one answer into its waiter's channel without blocking
// and reports whether it did. An answer to an unregistered id (abandoned
// call, finished redistribution) or to a full channel (already answered,
// a duplicate delivery) is dropped, so no handler or serve loop ever
// waits on a coordinator; the caller still owns the answer's buffer.
func (m *Manager) deliver(id uint64, r response) bool {
	m.pendMu.Lock()
	ch := m.pending[id]
	m.pendMu.Unlock()
	if ch == nil {
		return false
	}
	select {
	case ch <- r:
		return true
	default:
		return false
	}
}

// complete answers completion-table entry id, whose waiter runs on
// processor dst: straight into the table when dst is hosted in this
// process, as a *wireResponse message from proc otherwise. Id 0 means
// nobody waits. It reports whether a waiter in this process took the
// answer; when none did, the answer's buffers are the caller's again.
func (m *Manager) complete(proc, dst int, id uint64, r response) bool {
	if id == 0 {
		return false
	}
	router := m.machine.Router()
	if router.Local(dst) {
		return m.deliver(id, r)
	}
	w := &wireResponse{ID: id, Status: r.status, Vals: r.vals, Pair: r.pair}
	_ = router.Send(proc, dst, msg.Tag{Class: msg.ClassTask, Kind: kindAM}, w)
	return false
}

// post sends one request to the server on dst: a request a coordinator
// awaits, a retransmit of one, or one-way ship traffic (redist_src,
// redist_ship). A remote send serializes before returning, so the
// caller may recycle the request and its buffers as soon as post
// returns.
func (m *Manager) post(src, dst int, req *request) error {
	return m.machine.Router().Send(src, dst, msg.Tag{Class: msg.ClassTask, Kind: kindAM}, req)
}

// sendStatus maps a router send failure to a status: a closed router is
// StatusClosed (so core surfaces msg.ErrClosed), anything else a system
// error.
func sendStatus(err error) Status {
	if errors.Is(err, msg.ErrClosed) {
		return StatusClosed
	}
	return StatusError
}
