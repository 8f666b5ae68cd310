package arraymgr

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/msg/wire"
	"repro/internal/trace"
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
	b, err := wire.AppendAny(nil, &request{op: bad, src: 1, replyID: m.register(reply)}, false)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.ReadAny(b)
	if err != nil {
		t.Fatal(err)
	}
	req := v.(*request)
	if req.op != bad || req.reply != nil {
		t.Fatalf("decoded op %v, reply channel %v", req.op, req.reply)
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
