// Resident distributed calls: a session spawns its group once (Open) and
// then runs the call's wrapper once per Step, the fusion of a
// time-stepping loop of calls on the same processors into one launch.
// Fixed constants and Local ids travel once, in the spawn orders; each
// step moves one step order down spmd's binomial tree, carrying the
// StepConst values, and one merged tuple up, carrying the status and
// the reductions the caller reads instead of re-reading array elements.
package dcall

import (
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/msg/wire"
	"repro/internal/spmd"
)

// kindStep carries a session's step and close orders, salted with the
// session's call id (-105 and -106 are wire.go's).
const kindStep = -107

// stepOrder is one step's values, bound to the StepConst parameters in
// parameter order, or, with Close, the end of the session. It crosses
// the wire through its codec (codec.go) when a member is remote.
type stepOrder struct {
	Close bool
	Vals  []any
}

// Session is a resident distributed call (Open). Its steps are strictly
// sequential: Step and Close must not run concurrently on one session,
// which is what lets every step reuse the call id's combine and result
// tags without aliasing.
type Session struct {
	r          *Runtime
	caller     int
	procs      []int
	callID     uint64
	resultProc int
	nStep      int  // StepConst parameters
	remote     bool // a member is hosted elsewhere: step values must encode
	closed     atomic.Bool
}

// Open starts a resident distributed call to the named registered
// program: it validates and spawns like Call, but the wrapper copies
// stay up and run the program once per Session.Step until Close. The
// parameter list may hold StepConst parameters, and its reductions'
// outs are nil (Step returns the merged values). It returns the status
// Call would for an invalid list, a down member or a failed spawn, with
// a nil session.
func (r *Runtime) Open(caller int, procs []int, program string, params []Param, opts ...Options) (*Session, int) {
	p, ok := r.Lookup(program)
	if !ok {
		return nil, StatusInvalid
	}
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	wps, st := r.check(caller, procs, program, p.Body, params, opt, true)
	if st != StatusOK {
		return nil, st
	}
	s := &Session{r: r, caller: caller, procs: append([]int(nil), procs...),
		callID: r.nextCall.Add(1), resultProc: r.resultProc(caller), remote: wps != nil}
	for _, prm := range params {
		if _, ok := prm.(stepConstParam); ok {
			s.nStep++
		}
	}
	if st := r.spawn(caller, s.procs, program, p.Body, params, wps, opt.statusCombine(), s.callID, nil, s.resultProc, true); st != StatusOK {
		s.Close()
		return nil, st
	}
	return s, StatusOK
}

// Step runs the session's program once on every member, with vals bound
// to the StepConst parameters in order, and returns the merged status
// and reductions (in parameter order), as a call would. A session that
// is closed, or vals of the wrong count, give StatusInvalid; a value the
// wire cannot encode when a member is remote gives StatusError; a member
// Router.Down reports gives StatusDown. None of these sends anything.
func (s *Session) Step(vals ...any) (int, [][]float64) {
	if s.closed.Load() || len(vals) != s.nStep {
		return StatusInvalid, nil
	}
	router := s.r.Machine.Router()
	for _, pr := range s.procs {
		if router.Down(pr) {
			return StatusDown, nil
		}
	}
	if s.remote {
		for _, v := range vals {
			if wire.Encodable(v) != nil {
				return StatusError, nil
			}
		}
	}
	if err := router.Send(s.caller, s.procs[0], s.tag(), &stepOrder{Vals: vals}); err != nil {
		return StatusError, nil
	}
	t := s.r.await(nil, s.resultProc, s.procs[0], s.callID)
	return t.Status, t.Reductions
}

// Close ends the session: every member gets a close order straight from
// the caller, so members below a killed one end too. It does not wait
// for them to exit — a member in another process would need one more
// round trip to say so — and it returns at once if the session is
// already closed or the router is. A member whose processor was killed
// ends on its own failed receive.
func (s *Session) Close() {
	if s.closed.Swap(true) {
		return
	}
	router := s.r.Machine.Router()
	order := &stepOrder{Close: true}
	for _, pr := range s.procs {
		_ = router.Send(s.caller, pr, s.tag(), order)
	}
}

func (s *Session) tag() msg.Tag {
	return msg.Tag{Class: msg.ClassTask, Call: s.callID, Kind: kindStep}
}

// serveSteps is one resident member: it waits for an order, forwards a
// step order to its spmd.TreeChildren, and runs the one-shot wrapper
// with the step's values bound, which answers up the same tree; a close
// order, or a failed receive (router closed, processor killed), ends it.
// It is its own function, not a loop inside runWrapper, so a one-shot
// wrapper keeps its frame depth: a deeper wrapper goroutine grows its
// stack dearer on every call.
func (r *Runtime) serveSteps(proc int, procs []int, index int, callID uint64,
	body Program, params []Param, statusCombine func(a, b int) int, resultProc int) {
	router := r.Machine.Router()
	tag := msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindStep}
	for {
		m, err := router.RecvFrom(proc, msg.AnySource, tag)
		if err != nil {
			return
		}
		order, ok := m.Data.(*stepOrder)
		if !ok || order.Close {
			return
		}
		for c := range spmd.TreeChildren(len(procs), index) {
			_ = router.Send(proc, procs[c], tag, order)
		}
		r.runWrapper(proc, procs, index, callID, body, bind(params, order.Vals), statusCombine, nil, resultProc)
	}
}

// bind returns params with one step's values in place of the StepConst
// parameters, in order. A StepConst left without a value (a malformed
// order) stays, and the wrapper answers StatusInvalid for it.
func bind(params []Param, vals []any) []Param {
	out := make([]Param, len(params))
	copy(out, params)
	k := 0
	for i, prm := range out {
		if _, ok := prm.(stepConstParam); ok && k < len(vals) {
			out[i] = constParam{v: vals[k]}
			k++
		}
	}
	return out
}
