// Package dcall implements distributed calls (§3.3, §4.3, §5.2, §F of the
// paper): calling an SPMD data-parallel program from a task-parallel
// program, semantically equivalent to calling a sequential subprogram.
//
// A distributed call names a registered data-parallel program, the
// processors to run it on (a 1-dimensional array of processor numbers), and
// a parameter list. Executing the call:
//
//  1. creates one copy of the program on each named processor,
//  2. passes each copy its parameters — global constants (same value
//     everywhere, input only), local sections of distributed arrays
//     (resolved per processor via find_local, input/output), an index
//     variable (each copy's position in the processor array, input only),
//     at most one status variable (output), and any number of reduction
//     variables (output),
//  3. waits for all copies to complete,
//  4. merges the copies' status and reduction variables pairwise with
//     binary associative combine operators (default max for status) and
//     returns the merged values to the caller.
//
// The per-copy work of resolving local sections, allocating local
// status/reduction variables, running the program body and merging results
// is done by a generated "wrapper program" in the paper (§5.2.2); here the
// wrapper is the runWrapper function, constructed at runtime from the
// parameter specifications. Every call takes one spawn path: a group
// member hosted by this OS process runs its wrapper as a goroutine, any
// other receives a spawn order (wire.go). The pairwise merge runs up
// spmd's binomial tree (spmd.TreeChildren) in group-rank order, so any
// associative operator is acceptable, exactly as specified.
//
// A resident call (Open, session.go) takes the same spawn path once and
// then runs the same wrapper once per Session.Step, so a time-stepping
// task-level loop pays one order down and one merged tuple up per step
// instead of a spawn.
package dcall

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arraymgr"
	"repro/internal/darray"
	"repro/internal/defval"
	"repro/internal/msg"
	"repro/internal/spmd"
	"repro/internal/vp"
)

// Status codes returned by a distributed call mirror the array-manager
// codes (§4.1.2); called programs may return any int, merged with the
// status combine operator.
const (
	StatusOK       = int(arraymgr.StatusOK)
	StatusInvalid  = int(arraymgr.StatusInvalid)
	StatusNotFound = int(arraymgr.StatusNotFound)
	StatusError    = int(arraymgr.StatusError)
	StatusDown     = int(arraymgr.StatusDown)
)

// Program is the body of a data-parallel SPMD program: each copy receives
// the call's communication world and its resolved argument list. Programs
// communicate with their peer copies only through w (§3.5's relocatability
// and communication-compatibility requirements are then satisfied by
// construction).
type Program func(w *spmd.World, a *Args)

// BorderFn supplies local-section border sizes for a parameter number, the
// paper's Program_ convention supporting the foreign_borders option
// (§3.2.1.3). ndims is the dimensionality of the array being created or
// verified.
type BorderFn func(parmNum, ndims int) ([]int, error)

// Registered is a program registered under a module:program-style name.
type Registered struct {
	Name    string
	Body    Program
	Borders BorderFn // optional
}

// Param is one parameter of a distributed call (§4.3.1).
type Param interface{ isParam() }

type constParam struct{ v any }
type localParam struct{ id darray.ID }
type indexParam struct{}
type statusParam struct{}
type stepConstParam struct{}
type reduceParam struct {
	length  int
	name    string // a registered combiner (ReduceNamed); "" with combine
	combine func(a, b []float64) []float64
	out     *defval.Var[[]float64]
}

func (constParam) isParam()     {}
func (localParam) isParam()     {}
func (indexParam) isParam()     {}
func (statusParam) isParam()    {}
func (stepConstParam) isParam() {}
func (reduceParam) isParam()    {}

// Const passes a global constant: every copy receives the same value,
// usable as input only.
func Const(v any) Param { return constParam{v: v} }

// Local passes the local section of the distributed array with the given
// ID: each copy receives its own section, usable as input and/or output.
// The array must be distributed over the call's processors.
func Local(id darray.ID) Param { return localParam{id: id} }

// StepConst passes a global constant whose value each Session.Step
// supplies: the step's values bind to the StepConst parameters in
// parameter order. Only a session (Open) takes one.
func StepConst() Param { return stepConstParam{} }

// Index passes an integer index: copy i receives i, its position in the
// call's processor array. Input only.
func Index() Param { return indexParam{} }

// Status declares the call's status variable: each copy gets a local
// status it may set; at termination the locals are merged (by default with
// max, or the operator given in Options.StatusCombine) into the call's
// returned status. At most one Status parameter is allowed.
func Status() Param { return statusParam{} }

// Reduce declares a reduction variable of the given length: each copy gets
// a local []float64 it fills; at termination the locals are merged pairwise
// in rank order with combine, and the result defines out.
func Reduce(length int, combine func(a, b []float64) []float64, out *defval.Var[[]float64]) Param {
	return reduceParam{length: length, combine: combine, out: out}
}

// ReduceNamed is Reduce with a combiner registered under name
// (RegisterCombine). The parameter ships as its length and name, and
// every copy resolves the name in its own runtime's registry, so unlike
// Reduce it crosses a process boundary; a copy that does not know the
// name contributes StatusInvalid. In a session out is nil: Step returns
// the merged reductions instead.
func ReduceNamed(length int, name string, out *defval.Var[[]float64]) Param {
	return reduceParam{length: length, name: name, out: out}
}

// Args is the resolved argument list one program copy receives. Accessors
// are positional, matching the call's parameter list.
type Args struct {
	specs []Param
	vals  []any
}

// Len returns the number of parameters.
func (a *Args) Len() int { return len(a.specs) }

// Const returns the value of the global-constant parameter at position i.
func (a *Args) Const(i int) any { return a.vals[i] }

// Int returns the global-constant parameter at position i as an int.
func (a *Args) Int(i int) int { return a.vals[i].(int) }

// Float returns the global-constant parameter at position i as a float64.
func (a *Args) Float(i int) float64 { return a.vals[i].(float64) }

// IntArray returns the global-constant parameter at position i as []int
// (e.g. the processor array the caller passed through, per §3.5).
func (a *Args) IntArray(i int) []int { return a.vals[i].([]int) }

// Section returns the local section at position i. The section is mutable:
// writes are visible to the task-parallel program after the call returns
// (Fig 3.3 data flow).
func (a *Args) Section(i int) *darray.Section { return a.vals[i].(*darray.Section) }

// Index returns the index parameter at position i.
func (a *Args) Index(i int) int { return a.vals[i].(int) }

// SetStatus assigns this copy's local status variable at position i.
func (a *Args) SetStatus(i, v int) { *(a.vals[i].(*int)) = v }

// Reduction returns this copy's local reduction variable at position i;
// the program fills it before returning.
func (a *Args) Reduction(i int) []float64 { return a.vals[i].([]float64) }

// Options adjusts a distributed call.
type Options struct {
	// StatusCombine merges two status values; nil means max (§4.3.1: "by
	// default max, but the user may provide a different operator").
	StatusCombine func(a, b int) int
}

// statusCombine is the call's status merge, max by default. It is
// computed once, so the wrapper closures capture it by value.
func (o Options) statusCombine() func(a, b int) int {
	if o.StatusCombine != nil {
		return o.StatusCombine
	}
	return func(a, b int) int { return max(a, b) }
}

// Runtime executes distributed calls against a machine and its array
// manager, and owns the program registry (the analogue of PCN's module
// loading, §B.2: linking data-parallel object code into the runtime).
type Runtime struct {
	Machine *vp.Machine
	AM      *arraymgr.Manager

	mu        sync.Mutex
	programs  map[string]Registered
	combiners map[string]func(a, b []float64) []float64
	nextCall  atomic.Uint64
}

// NewRuntime creates a runtime and installs its registry as the array
// manager's border resolver, so foreign_borders array creation consults
// registered programs.
func NewRuntime(machine *vp.Machine, am *arraymgr.Manager) *Runtime {
	r := &Runtime{Machine: machine, AM: am, programs: make(map[string]Registered),
		combiners: make(map[string]func(a, b []float64) []float64)}
	r.nextCall.Store(1)
	am.SetBorderResolver(func(program string, parmNum, ndims int) ([]int, error) {
		p, ok := r.Lookup(program)
		if !ok {
			return nil, fmt.Errorf("dcall: program %q not registered", program)
		}
		if p.Borders == nil {
			return nil, fmt.Errorf("dcall: program %q supplies no borders", program)
		}
		return p.Borders(parmNum, ndims)
	})
	// On a partitioned router every hosted processor runs a spawn server,
	// so callers in other OS processes can start wrapper copies here. An
	// in-process machine spawns wrappers directly and pays nothing.
	if router := machine.Router(); router.Partitioned() {
		for _, p := range router.LocalProcs() {
			p := p
			go r.spawnServe(p)
		}
	}
	return r
}

// Register adds a program to the registry. Re-registering a name is an
// error (as is loading two modules defining the same program in PCN).
func (r *Runtime) Register(p Registered) error {
	if p.Name == "" || p.Body == nil {
		return fmt.Errorf("dcall: program needs a name and a body")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.programs[p.Name]; dup {
		return fmt.Errorf("dcall: program %q already registered", p.Name)
	}
	r.programs[p.Name] = p
	return nil
}

// RegisterCombine adds a named reduction combiner for ReduceNamed. Like
// a program, it must be registered under the same name in every process
// a call's group spans, and re-registering a name is an error.
func (r *Runtime) RegisterCombine(name string, combine func(a, b []float64) []float64) error {
	if name == "" || combine == nil {
		return fmt.Errorf("dcall: combiner needs a name and a function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.combiners[name]; dup {
		return fmt.Errorf("dcall: combiner %q already registered", name)
	}
	r.combiners[name] = combine
	return nil
}

// combiner is a reduction's combine function: its own, or the one
// registered under its name (nil if unknown).
func (r *Runtime) combiner(q reduceParam) func(a, b []float64) []float64 {
	if q.name == "" {
		return q.combine
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.combiners[q.name]
}

// Lookup finds a registered program by name.
func (r *Runtime) Lookup(name string) (Registered, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[name]
	return p, ok
}

// Programs lists registered program names (sorted; diagnostics).
func (r *Runtime) Programs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.programs))
	for n := range r.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Call executes a distributed call to the named registered program
// (am_user_distributed_call, §4.3.1). caller is the processor on which the
// task-parallel program makes the call; it suspends until all copies have
// completed (Fig 3.2 control flow). The returned status is the pairwise
// merge of the copies' status variables, or STATUS_OK if no Status
// parameter was given and every wrapper succeeded.
func (r *Runtime) Call(caller int, procs []int, program string, params []Param, opts ...Options) int {
	p, ok := r.Lookup(program)
	if !ok {
		return StatusInvalid
	}
	return r.call(caller, procs, program, p.Body, params, opts...)
}

// CallFn is Call for an unregistered program body (a convenience beyond
// the paper's name-based dispatch; the call semantics are identical).
// An anonymous body cannot cross a process boundary, so on a partitioned
// machine the group must be wholly local — use Call with a registered
// name to reach remote processors.
func (r *Runtime) CallFn(caller int, procs []int, body Program, params []Param, opts ...Options) int {
	return r.call(caller, procs, "", body, params, opts...)
}

// call is the one spawn path behind Call and CallFn, in-process or
// across OS processes: program is the registered name ("" for CallFn),
// which is what a spawn order carries to a member hosted elsewhere.
func (r *Runtime) call(caller int, procs []int, program string, body Program, params []Param, opts ...Options) int {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	wps, st := r.check(caller, procs, program, body, params, opt, false)
	if st != StatusOK {
		return st
	}
	group := append([]int(nil), procs...)
	callID := r.nextCall.Add(1)
	resultProc := r.resultProc(caller)
	// The merged tuple arrives in result when rank 0 runs on a processor
	// this process hosts, and otherwise as a kindResult message.
	var result *defval.Var[tuple]
	if r.Machine.Router().Local(group[0]) {
		result = defval.New[tuple]()
	}
	// The caller "suspends execution while the copies execute" (Fig 3.2).
	if st := r.spawn(caller, group, program, body, params, wps, opt.statusCombine(), callID, result, resultProc, false); st != StatusOK {
		return st
	}
	merged := r.await(result, resultProc, group[0], callID)

	// Assign reduction outputs in parameter order.
	k := 0
	for _, prm := range params {
		if q, ok := prm.(reduceParam); ok {
			q.out.MustDefine(merged.Reductions[k])
			k++
		}
	}
	return merged.Status
}

// check validates a call (resident false) or a session (resident true)
// before anything is sent: the caller, the group, the parameter list, no
// member Router.Down reports (StatusDown), and, when a member is hosted
// by another OS process, what a spawn order can carry — a registered
// name, shippable parameters and the default status merge. It returns
// the shippable parameters when a member is remote, nil otherwise.
func (r *Runtime) check(caller int, procs []int, program string, body Program, params []Param, opt Options, resident bool) ([]wireParam, int) {
	if r.Machine.CheckProc(caller) != nil || body == nil || len(procs) == 0 {
		return nil, StatusInvalid
	}
	seen := make(map[int]bool, len(procs))
	for _, pr := range procs {
		if r.Machine.CheckProc(pr) != nil || seen[pr] {
			return nil, StatusInvalid
		}
		seen[pr] = true
	}
	// At most one status (§4.3.1 precondition). A call defines each
	// reduction's out; a session's Step returns them, and only a session
	// has step values to bind.
	nStatus := 0
	for _, prm := range params {
		switch q := prm.(type) {
		case statusParam:
			nStatus++
		case reduceParam:
			if q.length < 1 || (q.combine == nil) == (q.name == "") || (q.out == nil) != resident {
				return nil, StatusInvalid
			}
		case stepConstParam:
			if !resident {
				return nil, StatusInvalid
			}
		case constParam, localParam, indexParam:
		default:
			return nil, StatusInvalid
		}
	}
	if nStatus > 1 {
		return nil, StatusInvalid
	}
	router := r.Machine.Router()
	for _, pr := range procs {
		if router.Down(pr) {
			return nil, StatusDown
		}
	}
	for _, pr := range procs {
		if router.Local(pr) {
			continue
		}
		if program == "" || opt.StatusCombine != nil {
			return nil, StatusInvalid
		}
		return wireParams(params)
	}
	return nil, StatusOK
}

// spawn launches one wrapper per group member — a goroutine on a member
// this process hosts, a spawn order to any other. A one-shot wrapper
// (runWrapper) answers once; a resident one (serveSteps) runs the same
// wrapper once per step order.
func (r *Runtime) spawn(caller int, procs []int, program string, body Program, params []Param, wps []wireParam,
	statusCombine func(a, b int) int, callID uint64, result *defval.Var[tuple], resultProc int, resident bool) int {
	router := r.Machine.Router()
	for i := range procs {
		i := i
		if !router.Local(procs[i]) {
			w := &wireSpawn{Program: program, Procs: procs, Index: i, CallID: callID,
				Params: wps, ResultProc: resultProc, Resident: resident}
			if err := router.Send(caller, procs[i], msg.Tag{Class: msg.ClassTask, Kind: kindSpawn}, w); err != nil {
				// The group cannot assemble; peers that did spawn will fail
				// their receives when the router closes. Surface the send
				// failure rather than hanging.
				return StatusError
			}
		} else if resident {
			r.Machine.Go(procs[i], func(proc int) {
				r.serveSteps(proc, procs, i, callID, body, params, statusCombine, resultProc)
			})
		} else {
			r.Machine.Go(procs[i], func(proc int) {
				r.runWrapper(proc, procs, i, callID, body, params, statusCombine, result, resultProc)
			})
		}
	}
	return StatusOK
}

// await returns the merged tuple of one call or step: from result when
// rank 0 runs here and defines it, otherwise as the kindResult message
// rank 0 sends to resultProc. A failed receive is StatusError.
func (r *Runtime) await(result *defval.Var[tuple], resultProc, rank0 int, callID uint64) tuple {
	if result != nil {
		return result.Value()
	}
	m, err := r.Machine.Router().RecvFrom(resultProc, rank0, msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindResult})
	if err != nil {
		return tuple{Status: StatusError}
	}
	t, ok := m.Data.(tuple)
	if !ok {
		return tuple{Status: StatusError}
	}
	return t
}

// resultProc is where a kindResult tuple for this caller arrives. That
// mailbox must be hosted here. The caller usually qualifies, but a
// program may name a remote caller (climate's atmosphere call is issued
// "from" the atmosphere group's first processor, which lives in another
// part): receive at any locally hosted processor instead — the tag, not
// the mailbox, identifies the call.
func (r *Runtime) resultProc(caller int) int {
	router := r.Machine.Router()
	if router.Local(caller) {
		return caller
	}
	return router.LocalProcs()[0]
}

// tuple is the {status, reductions...} record each wrapper produces and the
// combine tree merges (§5.2.2-§5.2.3). It crosses the wire, through its
// codec (codec.go), when a call's group spans OS processes.
type tuple struct {
	Status     int
	Reductions [][]float64
}

// kindCombine is the reserved task-class message kind for wrapper merges;
// tagged with the call ID so concurrent calls stay disjoint.
const kindCombine = -101

// runWrapper is the generated wrapper program of §5.2.2: executed once per
// group member, it resolves local sections, declares local status and
// reduction variables, calls the data-parallel program, and participates in
// the pairwise merge of result tuples. Rank 0 delivers the merged tuple
// into result when non-nil (the caller is in this process), otherwise as
// a kindResult message to resultProc (the caller is in another one, or
// this is a session's step). A nil body — a spawn order naming a program
// this process never registered — or an unknown named combiner
// contributes StatusInvalid instead of hanging the tree.
func (r *Runtime) runWrapper(proc int, procs []int, index int, callID uint64,
	body Program, params []Param, statusCombine func(a, b int) int,
	result *defval.Var[tuple], resultProc int) {

	world := spmd.NewWorld(r.Machine.Router(), procs, index, callID)

	// Resolve arguments; collect local status/reduction variables.
	args := &Args{specs: params, vals: make([]any, len(params))}
	wrapperStatus := StatusOK
	localStatus := StatusOK
	var reductionSlices [][]float64
	for i, prm := range params {
		switch q := prm.(type) {
		case constParam:
			args.vals[i] = q.v
		case localParam:
			sec, st := r.AM.FindLocal(proc, q.id)
			if st != arraymgr.StatusOK {
				// find_local failed: the wrapper's status reflects it and
				// the program is not called (§5.2.4, first example).
				if wrapperStatus == StatusOK {
					wrapperStatus = int(st)
				}
				continue
			}
			args.vals[i] = sec
		case indexParam:
			args.vals[i] = index
		case statusParam:
			args.vals[i] = &localStatus
		case reduceParam:
			s := make([]float64, q.length)
			args.vals[i] = s
			reductionSlices = append(reductionSlices, s)
			if r.combiner(q) == nil && wrapperStatus == StatusOK {
				wrapperStatus = StatusInvalid // a combiner this process never registered
			}
		default: // a StepConst no step value was bound to
			if wrapperStatus == StatusOK {
				wrapperStatus = StatusInvalid
			}
		}
	}

	if body == nil && wrapperStatus == StatusOK {
		wrapperStatus = StatusInvalid
	}
	if wrapperStatus == StatusOK {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					wrapperStatus = StatusError
				}
			}()
			body(world, args)
		}()
	}

	st := localStatus
	if wrapperStatus != StatusOK {
		st = wrapperStatus
	}
	mine := tuple{Status: st, Reductions: reductionSlices}

	// combine merges two tuples; the tree keeps the lower rank as the
	// left operand, so any associative combine is valid.
	combine := func(a, b tuple) tuple {
		out := tuple{Status: statusCombine(a.Status, b.Status)}
		out.Reductions = make([][]float64, len(a.Reductions))
		for k := range a.Reductions {
			var cmb func(x, y []float64) []float64
			kk := 0
			for _, prm := range params {
				if q, ok := prm.(reduceParam); ok {
					if kk == k {
						cmb = r.combiner(q)
						break
					}
					kk++
				}
			}
			if cmb == nil { // this copy's status is already StatusInvalid
				out.Reductions[k] = a.Reductions[k]
				continue
			}
			out.Reductions[k] = cmb(a.Reductions[k], b.Reductions[k])
		}
		return out
	}

	// Pairwise merge up spmd's binomial tree in rank order, over
	// task-class combine messages (§3.4.1) received with no deadline. A
	// failed receive combines in StatusError and ends the climb.
	router := r.Machine.Router()
	tag := msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindCombine}
	for src := range spmd.TreeChildren(len(procs), index) {
		m, err := router.RecvFrom(proc, procs[src], tag)
		if err != nil {
			mine.Status = statusCombine(mine.Status, StatusError)
			break
		}
		mine = combine(mine, m.Data.(tuple))
	}
	if index != 0 {
		// A failed send means the router is closed, and the caller is
		// gone too: either way this wrapper copy is done.
		_ = router.Send(proc, procs[spmd.TreeParent(index)], tag, mine)
		return
	}
	if result != nil {
		result.MustDefine(mine)
		return
	}
	rtag := msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindResult}
	_ = router.Send(proc, resultProc, rtag, mine)
}
