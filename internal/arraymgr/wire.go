// Wire marshalling for the array-manager protocol: typed envelopes that
// replace the in-process *request/*response pointers at the transport
// seam, so the data planes run unchanged across real OS processes.
//
// In-process, the protocol leans on shared memory in three ways a wire
// cannot carry: replies and acks ride channels embedded in the request,
// pooled reply/ship buffers are recycled by whichever side finishes with
// them, and retransmission re-sends the same *request pointer. Each gets
// an explicit wire analogue here:
//
//   - requests to a non-hosted owner travel as *wireRequest (exported
//     fields, gob-encodable); the reply channel is replaced by a ReplyID
//     into the coordinator's pending table, and the owner answers with a
//     *wireResponse message (kindAMReply) instead of a channel send;
//   - redistribution acks are replaced the same way: ship orders carry
//     the coordinator's (AckProc, AckID) and destination owners answer
//     with *wireAck messages (kindAMAck) into the ack table;
//   - pooled buffers never cross: the Transport contract says Send
//     serializes synchronously, so a pooled buffer or ship request can
//     be recycled the moment a remote Send returns, and a decoded
//     payload on the receiving side is fresh heap that is dropped, not
//     pooled (recycle guards every coordinator put site).
//
// Envelope decode happens in the serve loop, before the dedup filter, so
// retransmitted wire requests are filtered exactly like in-process ones.
package arraymgr

import (
	"encoding/gob"
	"errors"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
)

// kindAMReply carries wire replies back to a coordinator's pending
// table; kindAMAck carries redistribution acks to the ack table. Both
// exist only because channels cannot cross process boundaries —
// in-process traffic never uses them.
const (
	kindAMReply = -103
	kindAMAck   = -104
)

func init() {
	// Concrete types that cross the wire inside `any` payloads or the
	// wireResponse.Info field. Registration is by name in both processes
	// (same binary on both ends), so ids always agree.
	gob.Register(&wireRequest{})
	gob.Register(&wireResponse{})
	gob.Register(&wireAck{})
	gob.Register(&darray.Meta{})
	gob.Register(darray.ID{})
	gob.Register([]grid.Dist(nil))
}

// wireShip is redistShip with exported fields.
type wireShip struct {
	DstProc               int
	SrcLo, SrcHi, SrcStep []int
	DstLo, DstHi, DstStep []int
	SrcOffs, DstOffs      []int
	SrcSlot, DstSlot      int
	Pair                  int
}

// wireRequest is the gob-encodable subset of request: every field an op
// that can target a remote owner uses. CreateSpec and BorderSpec are
// absent by design — create_array and verify_array are coordinator
// self-sends, always local.
type wireRequest struct {
	Op      string
	ID, ID2 darray.ID
	Meta    *darray.Meta
	Gidx    []int
	Gidxs   [][]int
	Offs    []int
	Lo, Hi  []int
	Step    []int
	Lo2     []int
	Vals    []float64
	Slot    int
	Which   string
	Procs   []int
	Node    int
	Ships   []wireShip

	Seq      uint64
	Call     uint64
	Pair     int
	Src, Dst int
	Origin   int

	// ReplyID indexes the coordinator's pending-reply table (request/
	// reply ops); AckProc/AckID name the redistribution coordinator's
	// ack table (ship ops). Zero means "no remote completion expected".
	ReplyID uint64
	AckProc int
	AckID   uint64
}

// wireResponse is one reply travelling back over the wire. Section never
// crosses: Find is a local-address-space operation (§5.1.4).
type wireResponse struct {
	ReplyID uint64
	Status  Status
	Vals    []float64
	Info    any
	Pair    int
}

// wireAck is one redistribution pair acknowledgement.
type wireAck struct {
	AckID  uint64
	Status Status
	Pair   int
}

// toWire builds the envelope for req. Slices are shared, not copied:
// the Transport contract requires Send to serialize before returning,
// which is the deep copy.
func toWire(req *request) *wireRequest {
	w := &wireRequest{
		Op: req.op, ID: req.id, ID2: req.id2,
		Meta: req.meta,
		Gidx: req.gidx, Gidxs: req.gidxs, Offs: req.offs,
		Lo: req.lo, Hi: req.hi, Step: req.step, Lo2: req.lo2,
		Vals: req.vals, Slot: req.slot, Which: req.which,
		Procs: req.procs, Node: req.node,
		Seq: req.seq, Call: req.call, Pair: req.pair,
		Src: req.src, Dst: req.dst, Origin: req.origin,
		ReplyID: req.replyID, AckProc: req.ackProc, AckID: req.ackID,
	}
	if len(req.ships) > 0 {
		w.Ships = make([]wireShip, len(req.ships))
		for i, sh := range req.ships {
			w.Ships[i] = wireShip{
				DstProc: sh.dstProc,
				SrcLo:   sh.srcLo, SrcHi: sh.srcHi, SrcStep: sh.srcStep,
				DstLo: sh.dstLo, DstHi: sh.dstHi, DstStep: sh.dstStep,
				SrcOffs: sh.srcOffs, DstOffs: sh.dstOffs,
				SrcSlot: sh.srcSlot, DstSlot: sh.dstSlot,
				Pair: sh.pair,
			}
		}
	}
	return w
}

// toRequest rebuilds a request from a decoded envelope. reply and ack
// stay nil — a nil reply routes respond through the wire, a nil ack
// routes shipAck through the wire.
func (w *wireRequest) toRequest() *request {
	req := &request{
		op: w.Op, id: w.ID, id2: w.ID2,
		meta: w.Meta,
		gidx: w.Gidx, gidxs: w.Gidxs, offs: w.Offs,
		lo: w.Lo, hi: w.Hi, step: w.Step, lo2: w.Lo2,
		vals: w.Vals, slot: w.Slot, which: w.Which,
		procs: w.Procs, node: w.Node,
		seq: w.Seq, call: w.Call, pair: w.Pair,
		src: w.Src, dst: w.Dst, origin: w.Origin,
		replyID: w.ReplyID, ackProc: w.AckProc, ackID: w.AckID,
	}
	if len(w.Ships) > 0 {
		req.ships = make([]redistShip, len(w.Ships))
		for i, sh := range w.Ships {
			req.ships[i] = redistShip{
				dstProc: sh.DstProc,
				srcLo:   sh.SrcLo, srcHi: sh.SrcHi, srcStep: sh.SrcStep,
				dstLo: sh.DstLo, dstHi: sh.DstHi, dstStep: sh.DstStep,
				srcOffs: sh.SrcOffs, dstOffs: sh.DstOffs,
				srcSlot: sh.SrcSlot, dstSlot: sh.DstSlot,
				pair: sh.Pair,
			}
		}
	}
	return req
}

// registerReply allocates a reply id for a request headed to a remote
// owner, enters its one-shot channel in the pending table, and caches
// the wire form for retransmission. Ids are never zero.
func (m *Manager) registerReply(req *request) {
	id := m.nextReply.Add(1)
	req.replyID = id
	m.pendMu.Lock()
	if m.pending == nil {
		m.pending = make(map[uint64]chan response)
	}
	m.pending[id] = req.reply
	m.pendMu.Unlock()
	req.wire = toWire(req)
}

// unregisterReply drops the pending entry once await has its answer (or
// gave up); a straggler reply to a dropped id is discarded by
// deliverReply. No-op for requests that never crossed the wire.
func (m *Manager) unregisterReply(req *request) {
	if req.replyID == 0 {
		return
	}
	m.pendMu.Lock()
	delete(m.pending, req.replyID)
	m.pendMu.Unlock()
}

// deliverReply routes one wire reply into the awaiting coordinator's
// one-shot channel. Late or duplicate replies (abandoned call, already
// answered) are dropped without blocking the serve loop.
func (m *Manager) deliverReply(w *wireResponse) {
	m.pendMu.Lock()
	ch := m.pending[w.ReplyID]
	m.pendMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- response{status: w.Status, vals: w.Vals, info: w.Info, pair: w.Pair}:
	default:
	}
}

// registerAck enters a redistribution coordinator's shared ack channel
// in the ack table for the duration of the operation.
func (m *Manager) registerAck(ch chan response) uint64 {
	id := m.nextAck.Add(1)
	m.ackMu.Lock()
	if m.acks == nil {
		m.acks = make(map[uint64]chan response)
	}
	m.acks[id] = ch
	m.ackMu.Unlock()
	return id
}

func (m *Manager) unregisterAck(id uint64) {
	if id == 0 {
		return
	}
	m.ackMu.Lock()
	delete(m.acks, id)
	m.ackMu.Unlock()
}

// deliverAck routes one wire ack into its coordinator's shared channel.
// The channel is buffered for the worst case; a straggler overflowing
// it after abandonment is dropped rather than blocking the serve loop.
func (m *Manager) deliverAck(w *wireAck) {
	m.ackMu.Lock()
	ch := m.acks[w.AckID]
	m.ackMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- response{status: w.Status, pair: w.Pair}:
	default:
	}
}

// respond completes one handled request: through the one-shot channel
// in-process, as a kindAMReply message when the request arrived over
// the wire. Section results never cross (Find is local-only).
func (m *Manager) respond(proc int, req *request, resp response) {
	if req.reply != nil {
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
		return
	}
	if req.replyID == 0 {
		return
	}
	w := &wireResponse{ReplyID: req.replyID, Status: resp.status, Vals: resp.vals, Info: resp.info, Pair: resp.pair}
	tag := msg.Tag{Class: msg.ClassTask, Kind: kindAMReply}
	_ = m.machine.Router().Send(proc, req.src, tag, w)
}

// shipAck acknowledges one redistribution pair: through the shared
// channel in-process, as a kindAMAck message when the ship order
// arrived over the wire.
func (m *Manager) shipAck(proc int, req *request, r response) {
	if req.ack != nil {
		req.ack <- r
		return
	}
	if req.ackID == 0 {
		return
	}
	w := &wireAck{AckID: req.ackID, Status: r.status, Pair: r.pair}
	tag := msg.Tag{Class: msg.ClassTask, Kind: kindAMAck}
	_ = m.machine.Router().Send(proc, req.ackProc, tag, w)
}

// postShip sends one one-way ship message (redist_src or redist_ship),
// as the request pointer in-process or its envelope over the wire. A
// remote send serializes before returning, so the caller may recycle
// the request and its buffers as soon as postShip returns.
func (m *Manager) postShip(src, dst int, req *request) error {
	router := m.machine.Router()
	tag := msg.Tag{Class: msg.ClassTask, Kind: kindAMShip}
	if router.Local(dst) {
		return router.Send(src, dst, tag, req)
	}
	return router.Send(src, dst, tag, toWire(req))
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
