// Cross-process distributed calls: when a call's processor group spans
// (or lives entirely in) another OS process, the caller cannot spawn
// wrapper goroutines there with Machine.Go. Instead it ships one spawn
// order per remote group member; a spawn server in the hosting process
// looks the program up in its own registry (both processes run the same
// binary, so registration is symmetric) and runs the standard wrapper.
// The combine tree is unchanged — wrapper-to-wrapper messages already
// travel over the router, which now spans processes — and only the
// merged result changes shape: a remote rank 0 sends it back as a
// kindResult message instead of defining the caller's local defval.
//
// Two parameter kinds cannot cross a process boundary, because they
// carry caller-side functions or variables: Reduce (a combine func and
// an output defval) and Options.StatusCombine. A remote call using
// either fails cleanly with StatusInvalid; everything the paper's
// climate and stencil drivers need — Const, Local, Index, Status —
// ships. Spawn orders and tuples have binary codecs (codec.go); a Const
// travels through the wire's any-payload encoding, so a user-defined
// constant type must be gob.Register'd, and one that cannot be encoded
// fails the call with StatusError before any order is sent.
package dcall

import (
	"repro/internal/darray"
	"repro/internal/defval"
	"repro/internal/msg"
	"repro/internal/msg/wire"
)

// kindSpawn carries spawn orders to remote group members; kindResult
// carries the merged tuple from a remote rank 0 back to the caller.
// (-100..-104 are the array manager's, -101 is kindCombine.)
const (
	kindSpawn  = -105
	kindResult = -106
)

// Kinds of a shippable parameter.
const (
	paramConst = iota
	paramLocal
	paramIndex
	paramStatus
)

// wireParam is one shippable parameter: a global constant, a local
// section reference, the index parameter, or the status variable.
type wireParam struct {
	Kind  int // paramConst, paramLocal, paramIndex or paramStatus
	Const any
	ID    darray.ID
}

// wireSpawn is one remote group member's spawn order.
type wireSpawn struct {
	Program    string
	Procs      []int
	Index      int
	CallID     uint64
	Params     []wireParam
	ResultProc int // rank 0 only: where the merged tuple goes
}

// wireParams converts a shippable parameter list. It fails with
// StatusInvalid on a parameter kind that cannot cross a process boundary
// and with StatusError on a constant the wire cannot encode.
func wireParams(params []Param) ([]wireParam, int) {
	out := make([]wireParam, len(params))
	for i, prm := range params {
		switch q := prm.(type) {
		case constParam:
			if wire.Encodable(q.v) != nil {
				return nil, StatusError
			}
			out[i] = wireParam{Kind: paramConst, Const: q.v}
		case localParam:
			out[i] = wireParam{Kind: paramLocal, ID: q.id}
		case indexParam:
			out[i] = wireParam{Kind: paramIndex}
		case statusParam:
			out[i] = wireParam{Kind: paramStatus}
		default:
			return nil, StatusInvalid
		}
	}
	return out, StatusOK
}

// params rebuilds the parameter list on the hosting side.
func (w *wireSpawn) params() []Param {
	out := make([]Param, len(w.Params))
	for i, p := range w.Params {
		switch p.Kind {
		case paramConst:
			out[i] = constParam{v: p.Const}
		case paramLocal:
			out[i] = localParam{id: p.ID}
		case paramIndex:
			out[i] = indexParam{}
		default:
			out[i] = statusParam{}
		}
	}
	return out
}

// SetCallBase offsets this runtime's call-id counter. Call ids salt the
// combine-tree and world message tags; each process draws from its own
// counter, so a cluster harness gives every part a disjoint base (say
// rank<<40) to keep concurrent calls from different parts untangled.
func (r *Runtime) SetCallBase(base uint64) { r.nextCall.Store(base + 1) }

// spawnServe is one processor's spawn server: it turns arriving spawn
// orders into wrapper runs. Started only on partitioned routers — an
// in-process machine spawns every wrapper directly.
func (r *Runtime) spawnServe(proc int) {
	router := r.Machine.Router()
	for {
		m, err := router.Recv(proc, func(mm msg.Message) bool {
			return mm.Tag.Class == msg.ClassTask && mm.Tag.Kind == kindSpawn
		})
		if err != nil {
			return // router closed (or this processor killed)
		}
		w, ok := m.Data.(*wireSpawn)
		if !ok {
			continue
		}
		r.Machine.Go(proc, func(proc int) {
			var body Program
			if p, ok := r.Lookup(w.Program); ok {
				body = p.Body
			}
			// A nil body (name not registered here) still runs the
			// wrapper: it contributes StatusInvalid to the combine tree
			// instead of hanging every peer rank.
			r.runWrapper(proc, w.Procs, w.Index, w.CallID, body, w.params(),
				defaultStatusCombine, nil, w.ResultProc)
		})
	}
}

// callRemote executes a distributed call whose group includes remote
// processors: spawn orders go to the remote members, local members run
// their wrappers directly, and the merged tuple arrives either in the
// local defval (local rank 0) or as a kindResult message (remote rank
// 0). program must be a registered name — an anonymous body cannot
// cross a process boundary.
func (r *Runtime) callRemote(caller int, groupProcs []int, program string,
	body Program, params []Param, opt Options) int {

	if program == "" || opt.StatusCombine != nil {
		return StatusInvalid
	}
	wps, st := wireParams(params)
	if st != StatusOK {
		return st
	}
	router := r.Machine.Router()
	callID := r.nextCall.Add(1)

	// The merged tuple must arrive at a mailbox this process hosts. The
	// caller usually qualifies, but a program may name a remote caller
	// (climate's atmosphere call is issued "from" the atmosphere group's
	// first processor, which lives in another part): receive at any
	// locally hosted processor instead — the tag, not the mailbox,
	// identifies the call.
	resultProc := caller
	if !router.Local(resultProc) {
		resultProc = router.LocalProcs()[0]
	}

	rank0Local := router.Local(groupProcs[0])
	var result *defval.Var[tuple]
	if rank0Local {
		result = defval.New[tuple]()
	}
	spawnTag := msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindSpawn}
	for i := range groupProcs {
		i := i
		if router.Local(groupProcs[i]) {
			r.Machine.Go(groupProcs[i], func(proc int) {
				r.runWrapper(proc, groupProcs, i, callID, body, params,
					defaultStatusCombine, result, resultProc)
			})
			continue
		}
		w := &wireSpawn{Program: program, Procs: groupProcs, Index: i,
			CallID: callID, Params: wps, ResultProc: resultProc}
		if err := router.Send(caller, groupProcs[i], spawnTag, w); err != nil {
			// The group cannot assemble; peers that did spawn will fail
			// their combine receives when the router closes. Surface the
			// send failure rather than hanging.
			return StatusError
		}
	}
	if rank0Local {
		return result.Value().Status
	}
	resultTag := msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindResult}
	m, err := router.RecvFrom(resultProc, groupProcs[0], resultTag)
	if err != nil {
		return StatusError
	}
	t, ok := m.Data.(tuple)
	if !ok {
		return StatusError
	}
	return t.Status
}

// defaultStatusCombine is the paper's default status merge: max.
func defaultStatusCombine(a, b int) int {
	if a > b {
		return a
	}
	return b
}
