// The array-manager protocol across OS processes. The *request itself
// crosses the wire (codec.go encodes it field by field); this file
// supplies the wire analogues of the three things the in-process
// protocol leans on shared memory for:
//
//   - replies and redistribution acks ride channels in-process. A
//     request headed to a remote owner carries a replyID instead, and a
//     ship order carries (ackProc, ackID); both ids index one completion
//     table (pending), and the owner answers with a *wireResponse
//     message (kindAMReply) addressed to the coordinator's processor;
//   - pooled buffers never cross: the Transport contract says Send
//     serializes synchronously, so a pooled buffer or ship request can
//     be recycled the moment a remote Send returns, and a decoded
//     payload on the receiving side is fresh heap that is dropped, not
//     pooled (recycle guards every coordinator put site);
//   - retransmission re-sends the same *request, which is read-only once
//     sent, so a remote retransmit re-encodes to identical bytes.
//
// Decode happens in the transport, before the serve loop's dedup
// filter, so retransmitted wire requests are filtered exactly like
// in-process ones.
package arraymgr

import (
	"encoding/gob"
	"errors"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
)

// kindAMReply carries replies and redistribution acks back to a
// coordinator's completion table. It exists only because channels
// cannot cross process boundaries — in-process traffic never uses it.
const kindAMReply = -103

func init() {
	// Concrete types nested inside the request's Meta or the reply's Info
	// field, which ride the gob fallback. Registration is by name in both
	// processes (same binary on both ends), so ids always agree.
	gob.Register(&darray.Meta{})
	gob.Register(darray.ID{})
	gob.Register([]grid.Dist(nil))
}

// wireResponse is one reply or redistribution ack travelling back over
// the wire; ID is the completion-table id it answers. Section never
// crosses: Find is a local-address-space operation (§5.1.4).
type wireResponse struct {
	ID     uint64
	Status Status
	Vals   []float64
	Info   any
	Pair   int
}

// register enters a completion channel — a request's one-shot reply
// channel or a redistribution's shared ack channel — in the pending
// table and returns its id. Ids are never zero.
func (m *Manager) register(ch chan response) uint64 {
	id := m.nextReply.Add(1)
	m.pendMu.Lock()
	if m.pending == nil {
		m.pending = make(map[uint64]chan response)
	}
	m.pending[id] = ch
	m.pendMu.Unlock()
	return id
}

// unregister drops a pending entry once its waiter has its answer (or
// gave up); a straggler addressed to a dropped id is discarded by
// deliverReply. No-op for id 0 (nothing crossed the wire).
func (m *Manager) unregister(id uint64) {
	if id == 0 {
		return
	}
	m.pendMu.Lock()
	delete(m.pending, id)
	m.pendMu.Unlock()
}

// deliverReply routes one wire reply or ack into its waiter's channel.
// Late or duplicate completions (abandoned call, already answered, an
// ack channel overflowing after abandonment) are dropped without
// blocking the serve loop.
func (m *Manager) deliverReply(w *wireResponse) {
	m.pendMu.Lock()
	ch := m.pending[w.ID]
	m.pendMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- response{status: w.Status, vals: w.Vals, info: w.Info, pair: w.Pair}:
	default:
	}
}

// sendReply answers completion-table entry id on processor dst. Id 0
// means nobody waits.
func (m *Manager) sendReply(proc, dst int, id uint64, r response) {
	if id == 0 {
		return
	}
	w := &wireResponse{ID: id, Status: r.status, Vals: r.vals, Info: r.info, Pair: r.pair}
	tag := msg.Tag{Class: msg.ClassTask, Kind: kindAMReply}
	_ = m.machine.Router().Send(proc, dst, tag, w)
}

// respond completes one handled request: through the one-shot channel
// in-process, as a kindAMReply message when the request arrived over
// the wire. Section results never cross (Find is local-only).
func (m *Manager) respond(proc int, req *request, resp response) {
	if req.reply == nil {
		m.sendReply(proc, req.src, req.replyID, resp)
		return
	}
	if req.seq != 0 {
		// Recovery mode: the coordinator may have abandoned this call
		// (timeout, dead peer) with a late reply already buffered; never
		// let a server goroutine block on the one-shot channel.
		select {
		case req.reply <- resp:
		default:
		}
		return
	}
	req.reply <- resp
}

// shipAck acknowledges one redistribution pair: through the shared
// channel in-process, as a kindAMReply to the coordinator's processor
// when the ship order arrived over the wire.
func (m *Manager) shipAck(proc int, req *request, r response) {
	if req.ack == nil {
		m.sendReply(proc, req.ackProc, req.ackID, r)
		return
	}
	req.ack <- r
}

// postShip sends one one-way ship message (redist_src or redist_ship).
// A remote send serializes before returning, so the caller may recycle
// the request and its buffers as soon as postShip returns.
func (m *Manager) postShip(src, dst int, req *request) error {
	return m.machine.Router().Send(src, dst, msg.Tag{Class: msg.ClassTask, Kind: kindAMShip}, req)
}

// recycle returns a reply buffer to the pool of the server that drew
// it — unless that server lives in another OS process, in which case
// the local bytes are a decoded copy on fresh heap and are left to the
// garbage collector.
func (m *Manager) recycle(owner int, vals []float64) {
	if !m.machine.Router().Local(owner) {
		return
	}
	m.servers[owner].putBuf(vals)
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
