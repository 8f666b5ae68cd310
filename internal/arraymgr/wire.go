// The array manager's one completion path, and what else the protocol
// needs once it spans OS processes. The *request itself crosses the
// wire (codec.go encodes it field by field).
//
//   - every coordinator call (doRead, doWrite, fanout, mirrorWrite,
//     doRedistribute) opens one entry in the completion table (pending)
//     for its n answers, under an id from nextID, and every owner
//     request or ship the call causes carries one identity: (origin, id,
//     index) — the coordinator's processor, the entry, and which of the
//     n answers it gives. No field a handler reads holds a channel. A
//     handler answers by that identity alone (complete): straight into
//     the table when the origin is hosted in this process (no router
//     message), as a *wireResponse message (kindAM, the requests' kind)
//     addressed to the origin otherwise. The table takes at most one
//     answer per index and never blocks, so a late or duplicate answer
//     is refused there; one gather loop (resilient.go) waits for all n;
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

// wireResponse is one answer travelling back over the wire: ID is the
// completion-table entry it answers and Idx the answer's index there.
// It has no slot for a polymorphic value: the ops that return one
// (create_array's ID, find_info) are coordinators, which run in their
// caller's process.
type wireResponse struct {
	ID     uint64
	Status Status
	Vals   []float64
	Idx    int
}

// slot is one answer of a call: the owner request posted for it (nil
// for an index the coordinator serves itself, and for a redistribution
// pair, which its resend hook regroups) and, once the table has taken
// it, the answer.
type slot struct {
	req   *request
	r     response
	taken bool
}

// call is one coordinator call's completion-table entry: one slot per
// answer, and a channel sized to match on which the table posts the
// index of each answer it takes. Copies share the slots and the
// channel, so the table holds the entry by value.
type call struct {
	id    uint64
	slots []slot
	ready chan int
}

// nextID draws a fresh nonzero entry id. Ids are manager-global — every
// coordinator in one process draws from the same counter — and scoped
// by origin processor in the dedup key, so two managers in different
// processes drawing the same number never collide. Zero is skipped
// explicitly on wraparound: it names no entry, so a wrapped counter
// must not mint it.
func (m *Manager) nextID() uint64 {
	for {
		if id := m.nextCall.Add(1); id != 0 {
			return id
		}
	}
}

// open enters a new call of n answers in the completion table.
func (m *Manager) open(n int) call {
	c := call{id: m.nextID(), slots: make([]slot, n), ready: make(chan int, n)}
	m.pendMu.Lock()
	m.pending[c.id] = c
	m.pendMu.Unlock()
	return c
}

// close drops a call's entry once its gather is done; deliver refuses
// any answer to it after that.
func (m *Manager) close(id uint64) {
	m.pendMu.Lock()
	delete(m.pending, id)
	m.pendMu.Unlock()
}

// deliver offers answer r to index i of entry id and reports whether
// the table took it. A closed entry, an index out of range or an index
// already answered (a duplicate, or a late answer to an index gather
// gave up on) refuses it, so no handler or serve loop ever waits on a
// coordinator; the caller still owns a refused answer's buffer. A taken
// index is then posted on the call's channel: the channel holds one
// index per slot and each is taken once, so the post never blocks.
func (m *Manager) deliver(id uint64, i int, r response) bool {
	m.pendMu.Lock()
	c, ok := m.pending[id]
	if !ok || i < 0 || i >= len(c.slots) || c.slots[i].taken {
		m.pendMu.Unlock()
		return false
	}
	c.slots[i].taken, c.slots[i].r = true, r
	m.pendMu.Unlock()
	c.ready <- i
	return true
}

// unanswered lists the indexes of c the table has not taken yet.
func (m *Manager) unanswered(c call) []int {
	var todo []int
	m.pendMu.Lock()
	for i := range c.slots {
		if !c.slots[i].taken {
			todo = append(todo, i)
		}
	}
	m.pendMu.Unlock()
	return todo
}

// complete answers index i of the call req belongs to, on behalf of
// processor proc: straight into the table when the call's origin is
// hosted in this process, as a *wireResponse message from proc
// otherwise. It reports whether the table in this process took the
// answer; when it did not, the answer's buffers are the caller's again.
func (m *Manager) complete(proc int, req *request, i int, r response) bool {
	router := m.machine.Router()
	if router.Local(req.origin) {
		return m.deliver(req.cid, i, r)
	}
	w := &wireResponse{ID: req.cid, Status: r.status, Vals: r.vals, Idx: i}
	_ = router.Send(proc, req.origin, msg.Tag{Class: msg.ClassTask, Kind: kindAM}, w)
	return false
}

// send stamps req as the owner request for index i of call c and posts
// it from processor origin to the server on dst. Router sends never
// block, so a coordinator posts to every owner before gathering any
// answer. Under a call policy the request is marked for the owner's
// dedup filter, and a destination known to be dead — the router or a
// membership view says so — is answered StatusDown at once rather than
// after a full timeout. A send the router refuses is answered with its
// status too, so gather never waits on an index nobody was asked for.
func (m *Manager) send(c call, i, origin, dst int, req *request) {
	req.origin, req.dst, req.cid, req.idx = origin, dst, c.id, i
	c.slots[i].req = req
	if m.policy.Load() != nil {
		req.dedup = true
		mem := m.membership.Load()
		if m.machine.Router().Down(dst) || mem != nil && mem.State(dst) == msg.StateDead {
			m.deliver(c.id, i, response{status: StatusDown})
			return
		}
	}
	if err := m.post(origin, dst, req); err != nil {
		m.deliver(c.id, i, response{status: sendStatus(err)})
	}
}

// post sends one request to the server on dst: an owner request, a
// re-send of one, or one-way ship traffic (redist_src, redist_ship). A
// remote send serializes before returning, so the caller may recycle the
// request and its buffers as soon as post returns.
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
