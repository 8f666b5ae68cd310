package arraymgr

import (
	"bytes"
	"math/bits"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/msg/wire"
	"repro/internal/trace"
	"repro/internal/vp"
)

// TestUnknownOpFromWire serves a request whose op byte names no
// operation, as decoded off the wire: the owner answers StatusError
// through the completion table, the am: trace line names it op(N), and
// nothing panics.
func TestUnknownOpFromWire(t *testing.T) {
	var buf bytes.Buffer
	trace.SetOutput(&buf)
	trace.SetLevel(trace.Ops)
	defer func() {
		trace.SetLevel(trace.Off)
		trace.SetOutput(os.Stderr)
	}()

	_, m := newTestManager(t, 2)
	const bad = opCode(200)
	if got := bad.String(); got != "op(200)" {
		t.Fatalf("String() = %q, want op(200)", got)
	}
	reply := make(chan response, 1)
	replyID := m.register(reply)
	b, err := wire.AppendAny(nil, &request{op: bad, src: 1, replyID: replyID}, false)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.ReadAny(b)
	if err != nil {
		t.Fatal(err)
	}
	req := v.(*request)
	if req.op != bad || req.replyID != replyID {
		t.Fatalf("decoded op %v, reply id %d, want %v and %d", req.op, req.replyID, bad, replyID)
	}
	m.handle(0, req)
	select {
	case r := <-reply:
		if r.status != StatusError {
			t.Fatalf("unknown op answered %v, want %v", r.status, StatusError)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to an unknown op")
	}
	if !strings.Contains(buf.String(), "am: op(200)") {
		t.Fatalf("trace does not name the unknown op:\n%s", buf.String())
	}
}

// TestLateAckDropped drives redistribution acks through the wire path
// (kindAMReply) into the completion table after their channel filled up
// and after their coordinator unregistered: both are dropped, and the
// serve loop that received them goes on serving.
func TestLateAckDropped(t *testing.T) {
	machine, m := newTestManager(t, 2)
	ack := make(chan response, 1)
	id := m.register(ack)
	ack <- response{status: StatusOK, pair: 0}
	tag := msg.Tag{Class: msg.ClassTask, Kind: kindAMReply}
	send := func(pair int) {
		if err := machine.Router().Send(0, 0, tag, &wireResponse{ID: id, Status: StatusOK, Pair: pair}); err != nil {
			t.Fatal(err)
		}
	}
	send(1) // channel full
	m.unregister(id)
	send(2) // id unknown

	done := make(chan Status, 1)
	go func() {
		_, st := m.CreateArray(0, distSpec(4, 2, grid.BlockDefault(), darray.Double))
		done <- st
	}()
	select {
	case st := <-done:
		if st != StatusOK {
			t.Fatalf("CreateArray after late acks: %v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop blocked on a late ack")
	}
	if len(ack) != 1 || (<-ack).pair != 0 {
		t.Fatal("a late ack reached the channel")
	}
}

// TestLateReplyDroppedInProcess is TestLateAckDropped without the wire:
// handlers answer, in the process their waiters live in, one id that was
// already answered and one its waiter unregistered — a read reply, a
// write's reply and a redistribution ack to each. Every answer is
// dropped at the table without blocking its handler, the answered
// waiter keeps its first answer, no answer reaches another waiter, and
// both dropped read replies return their buffers to the pool.
func TestLateReplyDroppedInProcess(t *testing.T) {
	machine, m := newTestManager(t, 2)
	id := mustCreate(t, m, 0, distSpec(8, 2, grid.BlockDefault(), darray.Double))
	// Empty the classes a 4-element reply is drawn from, so after each
	// read the reply class holds exactly what the dropped reply returned.
	class := bits.Len(4) - 1
	for c := class; c <= class+1; c++ {
		floatPool[c].mu.Lock()
		floatPool[c].bufs = nil
		floatPool[c].mu.Unlock()
	}
	pooled := func() int {
		floatPool[class].mu.Lock()
		defer floatPool[class].mu.Unlock()
		return len(floatPool[class].bufs)
	}
	var afterRead []int
	answered := make(chan response, 1)
	answeredID := m.register(answered)
	answered <- response{status: StatusOK, pair: -1}
	gone := make(chan response, 1)
	goneID := m.register(gone)
	m.unregister(goneID)
	other := make(chan response, 8)
	defer m.unregister(m.register(other))

	before := machine.Router().Sent()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rid := range []uint64{answeredID, goneID} {
			m.handle(1, &request{op: opReadLocal, id: id, slot: 1, lo: []int{0}, hi: []int{4}, src: 0, replyID: rid})
			afterRead = append(afterRead, pooled())
			m.handle(1, &request{op: opWriteLocal, id: id, slot: 1, lo: []int{0}, hi: []int{4}, vals: make([]float64, 4), src: 0, replyID: rid})
			m.doRedistSrc(1, &request{op: opRedistSrc, id: darray.ID{Proc: 0, Seq: 99}, ships: []redistShip{{pair: 0}}, ackProc: 0, ackID: rid})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a handler blocked on a late answer")
	}
	if len(answered) != 1 || (<-answered).pair != -1 {
		t.Fatal("a late answer displaced the first one")
	}
	if len(gone) != 0 || len(other) != 0 {
		t.Fatalf("late answers reached %d (unregistered) and %d (another waiter) channels", len(gone), len(other))
	}
	if sent := machine.Router().Sent() - before; sent != 0 {
		t.Fatalf("in-process answers sent %d messages, want 0", sent)
	}
	// The second read draws the buffer the first returned, so each
	// dropped reply leaves exactly one buffer in the class.
	if afterRead[0] != 1 || afterRead[1] != 1 {
		t.Fatalf("the reply class held %v buffers after each dropped read reply, want [1 1]", afterRead)
	}
}

// TestWireOwnerReplyRecycled pins the owner side of a read whose
// waiter is hosted in another part: the transport serializes the reply
// before Send returns, so the owner returns its pooled reply buffer as
// soon as the reply is sent, and at a steady state a wire-served
// read_local allocates only its small reply envelope, never the
// payload. The transport here drops every message without serializing
// it; nothing reads the reply's values.
func TestWireOwnerReplyRecycled(t *testing.T) {
	const perProc = 8192 // 64 KiB of float64 per owner
	machine := vp.NewMachine(2)
	t.Cleanup(machine.Shutdown)
	machine.Router().SetTransport(dropTransport{}, []bool{true, false})
	m := New(machine)
	id := mustCreate(t, m, 0, distSpec(perProc, 1, grid.BlockDefault(), darray.Double))
	req := &request{op: opReadLocal, id: id, lo: []int{0}, hi: []int{perProc}, src: 1, replyID: 1 << 40}
	for i := 0; i < 3; i++ { // warm the pool
		m.handle(0, req)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m.handle(0, req)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= perProc {
		t.Errorf("wire-served read_local: %d bytes/op, want under %d (an eighth of the %d-byte payload: the reply buffer is recycled)", perOp, perProc, 8*perProc)
	}
}

// dropTransport is a transport to parts that never answer.
type dropTransport struct{}

func (dropTransport) Send(msg.Message) error { return nil }
func (dropTransport) Close() error           { return nil }

// wrongLengthOwner is a transport standing in for a part whose owners
// answer every request with StatusOK, each read's values skewed by delta
// elements from its piece's size. Replies are round-tripped through the
// codec, as a reply off the wire is.
type wrongLengthOwner struct {
	router *msg.Router
	delta  int
}

func (o *wrongLengthOwner) Send(mm msg.Message) error {
	req, ok := mm.Data.(*request)
	if !ok {
		return nil
	}
	w := &wireResponse{ID: req.replyID, Status: StatusOK}
	if req.op == opReadLocal {
		n := len(req.offs)
		if req.offs == nil {
			n = grid.StridedRectSize(req.lo, req.hi, req.step)
		}
		w.Vals = make([]float64, n+o.delta)
	}
	b, err := wire.AppendAny(nil, w, false)
	if err != nil {
		return err
	}
	v, _, err := wire.ReadAny(b)
	if err != nil {
		return err
	}
	return o.router.Inject(msg.Message{Src: mm.Dst, Dst: mm.Src, Tag: msg.Tag{Class: msg.ClassTask, Kind: kindAMReply}, Data: v})
}

func (o *wrongLengthOwner) Close() error { return nil }

// TestWrongLengthReplyRefused pins the coordinator's check of wire
// replies: an OK read reply one element short of its piece, or one
// element long, fails the read with StatusError — for a rectangle share
// and for an offset set alike — instead of indexing out of range or
// placing a wrong-shaped piece.
func TestWrongLengthReplyRefused(t *testing.T) {
	for _, delta := range []int{-1, 1} {
		machine := vp.NewMachine(2)
		t.Cleanup(machine.Shutdown)
		machine.Router().SetTransport(&wrongLengthOwner{router: machine.Router(), delta: delta}, []bool{true, false})
		m := New(machine)
		id := mustCreate(t, m, 0, distSpec(8, 2, grid.BlockDefault(), darray.Double))
		if _, st := m.ReadBlock(0, id, []int{0}, []int{8}); st != StatusError {
			t.Errorf("delta %d: ReadBlock = %v, want %v", delta, st, StatusError)
		}
		if _, st := m.ReadBlockStrided(0, id, []int{1}, []int{8}, []int{3}); st != StatusError {
			t.Errorf("delta %d: ReadBlockStrided = %v, want %v", delta, st, StatusError)
		}
		if _, st := m.GatherElements(0, id, [][]int{{1}, {6}, {5}}); st != StatusError {
			t.Errorf("delta %d: GatherElements = %v, want %v", delta, st, StatusError)
		}
	}
}

// TestRepeatedRunsRefused pins the guard against request amplification:
// an owner request whose run list names the owner's whole section k
// times is a few hundred bytes on the wire but would size a reply of k
// sections. darray.LatticeSize caps each dimension's listed points at
// the section extent, so the owner read refuses it with StatusInvalid
// and no reply buffer, and a redistribution ship carrying the same list
// is acknowledged StatusInvalid without being read.
func TestRepeatedRunsRefused(t *testing.T) {
	const n, k = 64, 64
	_, m := newTestManager(t, 2)
	id := mustCreate(t, m, 0, distSpec(n, 2, grid.BlockDefault(), darray.Double))
	dst := mustCreate(t, m, 0, distSpec(n, 2, grid.CyclicDefault(), darray.Double))
	lo, hi := make([]int, k), make([]int, k)
	for i := range hi {
		hi[i] = n / 2
	}
	raw, err := wire.AppendAny(nil, &request{op: opReadLocal, id: id, lo: lo, hi: hi, runs: []int{k}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 4*k {
		t.Fatalf("the hostile request takes %d bytes; the test wants a small one", len(raw))
	}
	v, _, err := wire.ReadAny(raw)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.doReadLocal(0, v.(*request)); r.status != StatusInvalid || r.vals != nil {
		t.Fatalf("read_local over %d copies of the section: %v with %d values, want %v and no reply buffer",
			k, r.status, len(r.vals), StatusInvalid)
	}
	ack := make(chan response, 1)
	m.doRedistSrc(0, &request{op: opRedistSrc, id: id, id2: dst, ackID: m.register(ack), ships: []redistShip{{PairBlock: darray.PairBlock{
		DstProc: 1, SrcLo: lo, SrcHi: hi, DstLo: lo, DstHi: hi, Runs: []int{k}}}}})
	if r := <-ack; r.status != StatusInvalid {
		t.Fatalf("redist_src over %d copies of the section: ack %v, want %v", k, r.status, StatusInvalid)
	}
}
