// Cross-process distributed calls: the part of the one spawn path (call,
// dcall.go) that reaches a group member hosted by another OS process.
// The caller cannot spawn a wrapper goroutine there with Machine.Go, so
// it ships the member a spawn order; a spawn server in the hosting
// process looks the program up in its own registry (both processes run
// the same binary, so registration is symmetric) and runs the standard
// wrapper. The combine tree is the same either way — wrapper-to-wrapper
// messages travel over the router, which spans processes — and only the
// merged result changes shape: a remote rank 0 sends it back as a
// kindResult message instead of defining the caller's local defval.
//
// What cannot cross a process boundary is what carries a caller-side
// function or variable: an anonymous Reduce (a combine func),
// Options.StatusCombine, and an anonymous CallFn body. A call with a
// remote member that uses any of them fails cleanly with StatusInvalid
// before anything is spawned. Everything else ships — Const, Local,
// Index, Status, a session's StepConst, and ReduceNamed, whose combiner
// each part resolves by name in its own registry, as it does the
// program. Spawn orders, step orders and tuples have binary codecs
// (codec.go); a Const or a step value travels through the wire's
// any-payload encoding, so a user-defined constant type must be
// gob.Register'd, and one that cannot be encoded fails the call or the
// step with StatusError before any order is sent. A resident member
// (Open, session.go) is spawned by the same order with Resident set.
package dcall

import (
	"repro/internal/darray"
	"repro/internal/msg"
	"repro/internal/msg/wire"
)

// kindSpawn carries spawn orders to remote group members, under one tag
// whatever the call (the call id travels in wireSpawn.CallID); kindResult
// carries the merged tuple from a remote rank 0 back to the caller.
// (-100 is the array manager's, -101 is kindCombine.)
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
	paramStepConst
	paramReduce // named: Length and Name
	paramKinds  // the number of kinds
)

// wireParam is one shippable parameter: a global constant, a local
// section reference, the index parameter, the status variable, a step
// constant, or a named reduction.
type wireParam struct {
	Kind   int // paramConst ... paramReduce
	Const  any
	ID     darray.ID
	Length int
	Name   string
}

// wireSpawn is one remote group member's spawn order.
type wireSpawn struct {
	Program    string
	Procs      []int
	Index      int
	CallID     uint64
	Params     []wireParam
	ResultProc int  // rank 0 only: where the merged tuple goes
	Resident   bool // a session member (serveSteps), not a one-shot wrapper
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
		case stepConstParam:
			out[i] = wireParam{Kind: paramStepConst}
		case reduceParam:
			if q.name == "" {
				return nil, StatusInvalid
			}
			out[i] = wireParam{Kind: paramReduce, Length: q.length, Name: q.name}
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
		case paramStepConst:
			out[i] = stepConstParam{}
		case paramReduce:
			out[i] = reduceParam{length: p.Length, name: p.Name}
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
		m, err := router.RecvFrom(proc, msg.AnySource, msg.Tag{Class: msg.ClassTask, Kind: kindSpawn})
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
			if w.Resident {
				r.serveSteps(proc, w.Procs, w.Index, w.CallID, body, w.params(),
					Options{}.statusCombine(), w.ResultProc)
				return
			}
			r.runWrapper(proc, w.Procs, w.Index, w.CallID, body, w.params(),
				Options{}.statusCombine(), nil, w.ResultProc)
		})
	}
}
