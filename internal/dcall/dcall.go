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
type reduceParam struct {
	length  int
	combine func(a, b []float64) []float64
	out     *defval.Var[[]float64]
}

func (constParam) isParam()  {}
func (localParam) isParam()  {}
func (indexParam) isParam()  {}
func (statusParam) isParam() {}
func (reduceParam) isParam() {}

// Const passes a global constant: every copy receives the same value,
// usable as input only.
func Const(v any) Param { return constParam{v: v} }

// Local passes the local section of the distributed array with the given
// ID: each copy receives its own section, usable as input and/or output.
// The array must be distributed over the call's processors.
func Local(id darray.ID) Param { return localParam{id: id} }

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

// Runtime executes distributed calls against a machine and its array
// manager, and owns the program registry (the analogue of PCN's module
// loading, §B.2: linking data-parallel object code into the runtime).
type Runtime struct {
	Machine *vp.Machine
	AM      *arraymgr.Manager

	mu       sync.Mutex
	programs map[string]Registered
	nextCall atomic.Uint64
}

// NewRuntime creates a runtime and installs its registry as the array
// manager's border resolver, so foreign_borders array creation consults
// registered programs.
func NewRuntime(machine *vp.Machine, am *arraymgr.Manager) *Runtime {
	r := &Runtime{Machine: machine, AM: am, programs: make(map[string]Registered)}
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
	if r.Machine.CheckProc(caller) != nil || body == nil {
		return StatusInvalid
	}
	if len(procs) == 0 {
		return StatusInvalid
	}
	seen := make(map[int]bool, len(procs))
	for _, pr := range procs {
		if r.Machine.CheckProc(pr) != nil || seen[pr] {
			return StatusInvalid
		}
		seen[pr] = true
	}
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	statusCombine := opt.StatusCombine
	if statusCombine == nil {
		statusCombine = defaultStatusCombine
	}
	// Validate parameter list: at most one status (§4.3.1 precondition).
	nStatus := 0
	for _, prm := range params {
		switch q := prm.(type) {
		case statusParam:
			nStatus++
		case reduceParam:
			if q.length < 1 || q.combine == nil || q.out == nil {
				return StatusInvalid
			}
		case constParam, localParam, indexParam:
		default:
			return StatusInvalid
		}
	}
	if nStatus > 1 {
		return StatusInvalid
	}

	groupProcs := append([]int(nil), procs...)
	router := r.Machine.Router()

	// A member hosted by another OS process is reached by a spawn order,
	// which carries a registered name, shippable parameters and the
	// default status merge only: check all three before anything is
	// spawned.
	var wps []wireParam
	for _, pr := range groupProcs {
		if router.Local(pr) {
			continue
		}
		if program == "" || opt.StatusCombine != nil {
			return StatusInvalid
		}
		var st int
		if wps, st = wireParams(params); st != StatusOK {
			return st
		}
		break
	}

	callID := r.nextCall.Add(1)

	result, resultProc := r.resultSink(caller, groupProcs[0])

	// Launch one wrapper per group member — a goroutine on a member this
	// process hosts, a spawn order to any other — and wait for the merged
	// result tuple from rank 0: the caller "suspends execution while the
	// copies execute" (Fig 3.2).
	spawnTag := msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindSpawn}
	for i := range groupProcs {
		i := i
		if router.Local(groupProcs[i]) {
			r.Machine.Go(groupProcs[i], func(proc int) {
				r.runWrapper(proc, groupProcs, i, callID, body, params, statusCombine, result, resultProc)
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
	var merged tuple
	if result != nil {
		merged = result.Value()
	} else {
		resultTag := msg.Tag{Class: msg.ClassTask, Call: callID, Kind: kindResult}
		m, err := router.RecvFrom(resultProc, groupProcs[0], resultTag)
		if err != nil {
			return StatusError
		}
		t, ok := m.Data.(tuple)
		if !ok {
			return StatusError
		}
		merged = t
	}

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

// resultSink says where a call's merged tuple arrives: in the returned
// defval when rank 0 runs on a processor this process hosts, and
// otherwise (nil defval) as a kindResult message at resultProc. That
// mailbox must be hosted here. The caller usually qualifies, but a
// program may name a remote caller (climate's atmosphere call is issued
// "from" the atmosphere group's first processor, which lives in another
// part): receive at any locally hosted processor instead — the tag, not
// the mailbox, identifies the call. Computed here rather than assigned
// in place in call, so the wrapper closures capture both by value and
// neither moves to the heap on every call.
func (r *Runtime) resultSink(caller, rank0 int) (result *defval.Var[tuple], resultProc int) {
	router := r.Machine.Router()
	resultProc = caller
	if !router.Local(caller) {
		resultProc = router.LocalProcs()[0]
	}
	if router.Local(rank0) {
		result = defval.New[tuple]()
	}
	return result, resultProc
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
// a kindResult message to resultProc (the caller is in another one). A
// nil body — a spawn order naming a program this process never
// registered — contributes StatusInvalid instead of hanging the tree.
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
						cmb = q.combine
						break
					}
					kk++
				}
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
