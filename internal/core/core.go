// Package core is the public face of the library: it ties together the
// virtual-processor machine, the array manager, and the distributed-call
// runtime into the integrated task/data-parallel programming model of the
// paper (§2–§3).
//
// A core.Machine gives a task-parallel Go program exactly the two
// operations the model adds to a task-parallel notation's repertoire
// (§2.1):
//
//   - creation and manipulation of distributed arrays, viewed globally
//     (NewArray, Array.Read/Write/Verify/Free, ...);
//   - distributed calls to SPMD data-parallel programs, semantically
//     equivalent to sequential subprogram calls (Register, Call, CallFn).
//
// Task-parallel structure itself is expressed with ordinary goroutines or
// the compose package; synchronisation uses defval/stream, the Go rendering
// of PCN's definitional variables.
//
// Package am exposes the same functionality in the paper's §4 library-
// procedure shapes (status codes instead of errors); this package is the
// API a Go user would actually program against.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/arraymgr"
	"repro/internal/darray"
	"repro/internal/dcall"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/vp"
)

// StatusError wraps a non-OK array-manager or distributed-call status.
type StatusError struct {
	Op     string
	Status arraymgr.Status
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("core: %s: %v", e.Op, e.Status)
}

// Is makes errors.Is(err, ErrNotFound)-style checks work.
func (e *StatusError) Is(target error) bool {
	t, ok := target.(*StatusError)
	return ok && t.Status == e.Status && (t.Op == "" || t.Op == e.Op)
}

// Unwrap chains the router-layer sentinel behind each transport-failure
// status, so errors.Is(err, msg.ErrTimeout / msg.ErrProcessorDown /
// msg.ErrClosed) works end to end through the am/core surface — callers
// probing for the underlying condition need not know the status
// vocabulary.
func (e *StatusError) Unwrap() error {
	switch e.Status {
	case arraymgr.StatusTimeout:
		return msg.ErrTimeout
	case arraymgr.StatusDown:
		return msg.ErrProcessorDown
	case arraymgr.StatusClosed:
		return msg.ErrClosed
	}
	return nil
}

// Sentinel errors for the failure statuses.
var (
	ErrInvalid  = &StatusError{Status: arraymgr.StatusInvalid}
	ErrNotFound = &StatusError{Status: arraymgr.StatusNotFound}
	ErrSystem   = &StatusError{Status: arraymgr.StatusError}
	// ErrTimeout: a peer did not answer within the installed
	// CallPolicy's retry budget.
	ErrTimeout = &StatusError{Status: arraymgr.StatusTimeout}
	// ErrDown: a peer the operation needed has been killed.
	ErrDown = &StatusError{Status: arraymgr.StatusDown}
	// ErrClosed: the machine was shut down mid-operation.
	ErrClosed = &StatusError{Status: arraymgr.StatusClosed}
)

func statusErr(op string, st arraymgr.Status) error {
	if st == arraymgr.StatusOK {
		return nil
	}
	return &StatusError{Op: op, Status: st}
}

// Machine is an integrated task/data-parallel machine of P virtual
// processors with a running array manager and distributed-call runtime.
type Machine struct {
	VM *vp.Machine
	AM *arraymgr.Manager
	RT *dcall.Runtime
}

// Option configures machine boot.
type Option func(*bootConfig)

type bootConfig struct {
	routerSetup func(*msg.Router)
}

// WithRouterSetup runs f on the freshly built router before the array
// manager and distributed-call runtime boot — the hook a transport
// harness uses to install msg.SetTransport, so the servers start on
// exactly the processors this OS process hosts.
func WithRouterSetup(f func(*msg.Router)) Option {
	return func(c *bootConfig) { c.routerSetup = f }
}

// New boots a machine with p virtual processors: the equivalent of starting
// PCN with the array manager loaded on every processor (§B.3).
func New(p int, opts ...Option) *Machine {
	var cfg bootConfig
	for _, o := range opts {
		o(&cfg)
	}
	vm := vp.NewMachine(p)
	if cfg.routerSetup != nil {
		cfg.routerSetup(vm.Router())
	}
	am := arraymgr.New(vm)
	rt := dcall.NewRuntime(vm, am)
	return &Machine{VM: vm, AM: am, RT: rt}
}

// Close shuts the machine down, releasing all blocked processes.
func (m *Machine) Close() { m.VM.Shutdown() }

// SetCallPolicy installs (or, with nil, removes) the array manager's
// timeout/retry policy. Install one — alongside any Router fault plan —
// before traffic starts; without it, operations against an unreliable
// or partially dead machine block instead of failing with ErrTimeout /
// ErrDown.
func (m *Machine) SetCallPolicy(p *arraymgr.CallPolicy) { m.AM.SetCallPolicy(p) }

// Kill marks processor proc dead mid-call: its mailbox discards traffic
// and in-flight operations that need it fail with ErrDown/ErrTimeout
// under the installed CallPolicy instead of hanging.
func (m *Machine) Kill(proc int) error { return m.VM.Router().KillProcessor(proc) }

// StartMembership boots a heartbeat membership monitor on processor home
// and wires it into the array manager, so coordinators fail fast against
// peers the monitor has declared dead. The returned monitor exposes
// Alive/Suspect/State/Watch/Stats; Stop it before Close for a quiet
// shutdown. A zero config is valid (1ms period, 3×/8× suspect/dead
// thresholds).
func (m *Machine) StartMembership(cfg msg.MembershipConfig) (*msg.Membership, error) {
	mem, err := msg.NewMembership(m.VM.Router(), cfg)
	if err != nil {
		return nil, err
	}
	m.AM.UseMembership(mem)
	return mem, nil
}

// RecoverArray promotes buddy copies to primaries for every dead owner
// of the array (see ArraySpec.Replicas). Data-plane operations replay
// through this transparently under a CallPolicy; it is exported for
// explicit repair after out-of-band kills. ErrDown means some section
// lost its primary and every buddy — Checkpoint/Restore territory.
func (m *Machine) RecoverArray(a *Array) error {
	return statusErr("recover_array", m.AM.RecoverArray(a.onProc, a.id))
}

// Checkpoint drains the array into a self-contained image that survives
// any number of subsequent kills — the recovery path for arrays created
// without replicas.
func (m *Machine) Checkpoint(a *Array) (*arraymgr.CheckpointImage, error) {
	img, st := m.AM.Checkpoint(a.onProc, a.id)
	return img, statusErr("checkpoint", st)
}

// Restore recreates an array from a checkpoint image on procs (nil: the
// image's processors that are still alive) and returns a fresh handle;
// the dead array's handle stays dead.
func (m *Machine) Restore(img *arraymgr.CheckpointImage, procs []int) (*Array, error) {
	// Coordinate from a live processor: the kill that motivated the
	// restore may well have taken processor 0.
	router := m.VM.Router()
	onProc := 0
	for p := 0; p < m.P(); p++ {
		if !router.Down(p) {
			onProc = p
			break
		}
	}
	id, st := m.AM.Restore(onProc, img, procs)
	if st != arraymgr.StatusOK {
		return nil, statusErr("restore", st)
	}
	return &Array{m: m, id: id, onProc: onProc}, nil
}

// RecoveryStats returns the array manager's recovery-plane counters
// (mirrors, promotions, replays, checkpoint bytes).
func (m *Machine) RecoveryStats() arraymgr.RecoveryStats { return m.AM.RecoveryStats() }

// P returns the number of virtual processors.
func (m *Machine) P() int { return m.VM.P() }

// AllProcs returns processor numbers 0..P-1.
func (m *Machine) AllProcs() []int { return m.VM.AllProcs() }

// Procs returns the patterned processor array {first, first+stride, ...}
// of length count (am_util_node_array, §C.2).
func (m *Machine) Procs(first, stride, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = first + i*stride
	}
	return out
}

// Go spawns a task-parallel process on a processor; Wait joins all such
// processes.
func (m *Machine) Go(proc int, f func(proc int)) { m.VM.Go(proc, f) }

// Wait blocks until all processes started with Go have terminated.
func (m *Machine) Wait() { m.VM.Wait() }

// ArraySpec describes a distributed array to create. Zero values choose
// the defaults noted on each field.
//
// Distrib accepts the full decomposition vocabulary of the distribution
// layer: grid.BlockDefault/BlockOf/NoDecomp (the paper's block, block(N)
// and *), plus grid.CyclicDefault/CyclicOf and
// grid.BlockCyclicOf/BlockCyclicOfN for cyclic and block-cyclic layouts
// (load-balanced LU-style workloads). Dimensions need not divide evenly;
// trailing blocks may be short. Nonzero Borders require an exactly even
// block decomposition — halo exchange assumes full-size, index-adjacent
// interiors — at creation and at Verify alike.
type ArraySpec struct {
	Type     darray.ElemType     // default Double
	Dims     []int               // required
	Procs    []int               // default: all processors
	Distrib  []grid.Decomp       // default: block in every dimension
	Borders  arraymgr.BorderSpec // default: no borders
	Indexing grid.Indexing       // default: row-major
	OnProc   int                 // processor making the request; default 0
	// Replicas is the number of buddy copies each grid section keeps on
	// other owners (0 = none). Every write is mirrored to the buddies,
	// and after a fail-stop kill the machine promotes a buddy to primary
	// (RecoverArray / transparent replay) instead of losing the section.
	Replicas int
}

// Array is a handle to a distributed array, carrying its globally unique
// ID. All methods operate through the array manager, preserving the
// global view of §3.2.1.5.
type Array struct {
	m  *Machine
	id darray.ID
	// onProc is the processor used for global operations (the creator).
	onProc int
}

// NewArray creates a distributed array (am_user_create_array).
func (m *Machine) NewArray(spec ArraySpec) (*Array, error) {
	procs := spec.Procs
	if procs == nil {
		procs = m.AllProcs()
	}
	distrib := spec.Distrib
	if distrib == nil {
		distrib = make([]grid.Decomp, len(spec.Dims))
		for i := range distrib {
			distrib[i] = grid.BlockDefault()
		}
	}
	borders := spec.Borders
	if borders == nil {
		borders = arraymgr.NoBorderSpec{}
	}
	id, st := m.AM.CreateArray(spec.OnProc, arraymgr.CreateSpec{
		Type: spec.Type, Dims: spec.Dims, Procs: procs,
		Distrib: distrib, Borders: borders, Indexing: spec.Indexing,
		Replicas: spec.Replicas,
	})
	if st != arraymgr.StatusOK {
		return nil, statusErr("create_array", st)
	}
	return &Array{m: m, id: id, onProc: spec.OnProc}, nil
}

// ID returns the array's globally unique identifier.
func (a *Array) ID() darray.ID { return a.id }

// Param returns the distributed-call parameter passing this array's local
// sections ({"local", ArrayID} in the paper's syntax).
func (a *Array) Param() dcall.Param { return dcall.Local(a.id) }

// Read reads one element by global indices (am_user_read_element).
func (a *Array) Read(idx ...int) (float64, error) {
	v, st := a.m.AM.ReadElement(a.onProc, a.id, idx)
	return v, statusErr("read_element", st)
}

// Write writes one element by global indices (am_user_write_element).
func (a *Array) Write(v float64, idx ...int) error {
	return statusErr("write_element", a.m.AM.WriteElement(a.onProc, a.id, idx, v))
}

// ReadOn / WriteOn perform the operation from a specific processor
// (identical results on any processor holding a section or the creator).
func (a *Array) ReadOn(proc int, idx ...int) (float64, error) {
	v, st := a.m.AM.ReadElement(proc, a.id, idx)
	return v, statusErr("read_element", st)
}

// WriteOn writes one element from a specific processor.
func (a *Array) WriteOn(proc int, v float64, idx ...int) error {
	return statusErr("write_element", a.m.AM.WriteElement(proc, a.id, idx, v))
}

// Free deletes the array (am_user_free_array); subsequent operations fail
// with ErrNotFound.
func (a *Array) Free() error {
	return statusErr("free_array", a.m.AM.FreeArray(a.onProc, a.id))
}

// Meta returns the array's full metadata.
func (a *Array) Meta() (*darray.Meta, error) {
	meta, st := a.m.AM.Meta(a.onProc, a.id)
	return meta, statusErr("find_info", st)
}

// Verify checks indexing and borders, reallocating local sections with the
// expected borders if they differ (am_user_verify_array).
func (a *Array) Verify(ndims int, borders arraymgr.BorderSpec, ix grid.Indexing) error {
	return statusErr("verify_array", a.m.AM.VerifyArray(a.onProc, a.id, ndims, borders, ix))
}

// ReadBlock reads the global rectangle [lo, hi) (half-open per dimension)
// into a dense buffer linearized row-major over the rectangle
// (am_user_read_block). The transfer is aggregated by the array manager
// into one message per remote owning processor.
func (a *Array) ReadBlock(lo, hi []int) ([]float64, error) {
	vals, st := a.m.AM.ReadBlock(a.onProc, a.id, lo, hi)
	return vals, statusErr("read_block", st)
}

// ReadBlockInto reads the global rectangle [lo, hi) into dst, which must
// hold exactly the rectangle's element count. The buffer is owned by the
// caller throughout and may be reused across calls; when the whole
// rectangle lies on the requesting processor the copy comes straight out
// of section storage with no message and zero heap allocations.
func (a *Array) ReadBlockInto(lo, hi []int, dst []float64) error {
	return statusErr("read_block", a.m.AM.ReadBlockInto(a.onProc, a.id, lo, hi, dst))
}

// WriteBlock writes a dense row-major buffer into the global rectangle
// [lo, hi) (am_user_write_block): straight into section storage when the
// rectangle is wholly local, one concurrent message per remote owning
// processor otherwise. vals is never retained; the caller may reuse it as
// soon as WriteBlock returns.
func (a *Array) WriteBlock(lo, hi []int, vals []float64) error {
	return statusErr("write_block", a.m.AM.WriteBlock(a.onProc, a.id, lo, hi, vals))
}

// ReadBlockStrided reads every step[i]-th element of the global rectangle
// [lo, hi) into a dense buffer packed row-major over the lattice
// (am_user_read_block_strided): one concurrent message per owning
// processor holding a lattice point, however many rows or columns the
// stride selects — the structured companion of GatherElements for
// sub-sampled access (every k-th row: down-sampling, multigrid
// restriction). A unit step in every dimension delegates to the dense
// ReadBlock path.
func (a *Array) ReadBlockStrided(lo, hi, step []int) ([]float64, error) {
	vals, st := a.m.AM.ReadBlockStrided(a.onProc, a.id, lo, hi, step)
	return vals, statusErr("read_block_strided", st)
}

// ReadBlockStridedInto is the buffer-reuse variant of ReadBlockStrided:
// dst must hold exactly the lattice's point count and receives the packed
// data in place. The buffer is owned by the caller throughout; a wholly
// local lattice is copied straight out of section storage with no message
// and zero heap allocations.
func (a *Array) ReadBlockStridedInto(lo, hi, step []int, dst []float64) error {
	return statusErr("read_block_strided", a.m.AM.ReadBlockStridedInto(a.onProc, a.id, lo, hi, step, dst))
}

// WriteBlockStrided writes a dense buffer packed row-major over the
// lattice onto every step[i]-th element of the global rectangle [lo, hi)
// (am_user_write_block_strided). Elements off the lattice are untouched;
// vals is never retained, so the caller may reuse it as soon as the call
// returns.
func (a *Array) WriteBlockStrided(lo, hi, step []int, vals []float64) error {
	return statusErr("write_block_strided", a.m.AM.WriteBlockStrided(a.onProc, a.id, lo, hi, step, vals))
}

// RedistributeFrom copies the global rectangle [lo, hi) of array src onto
// the same rectangle of a (am_user_redistribute) — the two arrays may be
// distributed entirely differently (block↔cyclic↔block-cyclic, uneven
// trailing blocks). Each non-empty src-owner/dst-owner intersection
// travels owner-to-owner in at most one message, with no
// gather-then-scatter bounce through the requesting processor; a
// wholly-local transfer moves section-to-section with no message and zero
// heap allocations.
func (a *Array) RedistributeFrom(src *Array, lo, hi []int) error {
	return statusErr("redistribute", a.m.AM.Redistribute(a.onProc, a.id, src.id, lo, hi))
}

// RedistributeRectFrom is the offset variant of RedistributeFrom: source
// element srcLo+j moves to destination element dstLo+j for every
// componentwise 0 <= j < dims, so a panel may land at a different origin
// in the destination array.
func (a *Array) RedistributeRectFrom(src *Array, dstLo, srcLo, dims []int) error {
	return statusErr("redistribute", a.m.AM.RedistributeRect(a.onProc, a.id, src.id, dstLo, srcLo, dims))
}

// RedistributeStridedFrom copies every step[i]-th element of the global
// rectangle [lo, hi) of src onto the matching lattice of a. A unit step
// in every dimension delegates to the dense path.
func (a *Array) RedistributeStridedFrom(src *Array, lo, hi, step []int) error {
	return statusErr("redistribute", a.m.AM.RedistributeStrided(a.onProc, a.id, src.id, lo, hi, step))
}

// GatherElements reads the elements at the given global index tuples in
// one operation, returning their values in request order
// (am_user_gather_elements). The transfer is split by owning processor —
// one concurrent request per owner — so k scattered elements cost
// O(#owners) messages instead of the k round trips of a Read loop. Read is
// the k=1 degenerate case.
func (a *Array) GatherElements(indices [][]int) ([]float64, error) {
	vals, st := a.m.AM.GatherElements(a.onProc, a.id, indices)
	return vals, statusErr("read_vector", st)
}

// GatherElementsInto is the buffer-reuse variant of GatherElements: dst
// must hold exactly len(indices) elements and receives the values in
// place. The buffer is owned by the caller throughout and may be reused
// across calls.
func (a *Array) GatherElementsInto(indices [][]int, dst []float64) error {
	return statusErr("read_vector", a.m.AM.GatherElementsInto(a.onProc, a.id, indices, dst))
}

// ScatterElements writes vals[i] to the element at indices[i]
// (am_user_scatter_elements), one concurrent request per owning processor.
// A repeated index takes the value at its last occurrence (last writer
// wins), exactly as the equivalent Write loop would leave it. vals is
// never retained; the caller may reuse it as soon as the call returns.
func (a *Array) ScatterElements(indices [][]int, vals []float64) error {
	return statusErr("write_vector", a.m.AM.ScatterElements(a.onProc, a.id, indices, vals))
}

// blockBufs pools dense rectangle buffers for FillBlock/Fill, which would
// otherwise allocate a rectangle-sized buffer per call. Safe because
// WriteBlock never retains its argument.
var blockBufs = sync.Pool{New: func() any { return new([]float64) }}

// FillBlock writes f(idx) to every element of the global rectangle
// [lo, hi) through the bulk path. The index tuple passed to f is reused
// between calls; f must not retain it.
func (a *Array) FillBlock(lo, hi []int, f func(idx []int) float64) error {
	meta, err := a.Meta()
	if err != nil {
		return err
	}
	return a.fillBlock(meta, lo, hi, f)
}

func (a *Array) fillBlock(meta *darray.Meta, lo, hi []int, f func(idx []int) float64) error {
	if err := grid.CheckRect(lo, hi, meta.Dims); err != nil {
		return statusErr("write_block", arraymgr.StatusInvalid)
	}
	n := grid.RectSize(lo, hi)
	bp := blockBufs.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	vals := (*bp)[:n]
	_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error {
		vals[k] = f(idx)
		return nil
	})
	err := a.WriteBlock(lo, hi, vals)
	blockBufs.Put(bp)
	return err
}

// wholeRect returns the rectangle covering the full global index space.
func wholeRect(meta *darray.Meta) (lo, hi []int) {
	return make([]int, meta.NDims()), append([]int(nil), meta.Dims...)
}

// Fill writes f(idx) to every element, iterating the global index space in
// row-major order: FillBlock over the whole array, one bulk transfer per
// owning processor instead of one message per element.
func (a *Array) Fill(f func(idx []int) float64) error {
	meta, err := a.Meta()
	if err != nil {
		return err
	}
	lo, hi := wholeRect(meta)
	return a.fillBlock(meta, lo, hi, f)
}

// Snapshot reads the whole array into a dense row-major []float64:
// ReadBlock over the whole array, one bulk transfer per owning processor.
func (a *Array) Snapshot() ([]float64, error) {
	meta, err := a.Meta()
	if err != nil {
		return nil, err
	}
	lo, hi := wholeRect(meta)
	return a.ReadBlock(lo, hi)
}

// Register adds a named data-parallel program to the machine's registry
// (the analogue of linking data-parallel object code, §B.2).
func (m *Machine) Register(name string, body dcall.Program) error {
	return m.RT.Register(dcall.Registered{Name: name, Body: body})
}

// RegisterWithBorders registers a program together with its border
// callback (the Program_ routine of the foreign_borders protocol).
func (m *Machine) RegisterWithBorders(name string, body dcall.Program, borders dcall.BorderFn) error {
	return m.RT.Register(dcall.Registered{Name: name, Body: body, Borders: borders})
}

// RegisterCombine registers a named reduction combiner for
// dcall.ReduceNamed, the combiner counterpart of Register.
func (m *Machine) RegisterCombine(name string, combine func(a, b []float64) []float64) error {
	return m.RT.RegisterCombine(name, combine)
}

// Call makes a distributed call to a registered program on the given
// processors from processor 0 and converts the merged status to an error.
func (m *Machine) Call(procs []int, program string, params ...dcall.Param) error {
	return callStatusErr(program, m.RT.Call(0, procs, program, params))
}

// CallOn is Call from an explicit calling processor.
func (m *Machine) CallOn(caller int, procs []int, program string, params ...dcall.Param) error {
	return callStatusErr(program, m.RT.Call(caller, procs, program, params))
}

// CallFn makes a distributed call to an anonymous program body.
func (m *Machine) CallFn(procs []int, body dcall.Program, params ...dcall.Param) error {
	return callStatusErr("(fn)", m.RT.CallFn(0, procs, body, params))
}

// CallStatus is Call returning the raw merged status (needed when the
// called program uses the status variable to return a value rather than to
// signal failure).
func (m *Machine) CallStatus(procs []int, program string, params ...dcall.Param) int {
	return m.RT.Call(0, procs, program, params)
}

// CallFnStatus is CallFn returning the raw merged status.
func (m *Machine) CallFnStatus(procs []int, body dcall.Program, params ...dcall.Param) int {
	return m.RT.CallFn(0, procs, body, params)
}

// Session is a resident distributed call (dcall.Session): spawned once,
// stepped many times, its merged status converted to an error as Call
// does.
type Session struct {
	s       *dcall.Session
	program string
}

// Open starts a resident distributed call to a registered program on
// the given processors from processor 0 (dcall.Runtime.Open).
func (m *Machine) Open(procs []int, program string, params ...dcall.Param) (*Session, error) {
	return m.OpenOn(0, procs, program, params...)
}

// OpenOn is Open from an explicit calling processor.
func (m *Machine) OpenOn(caller int, procs []int, program string, params ...dcall.Param) (*Session, error) {
	s, st := m.RT.Open(caller, procs, program, params)
	if st != dcall.StatusOK {
		return nil, callStatusErr(program, st)
	}
	return &Session{s: s, program: program}, nil
}

// Step runs the program once with vals bound to its StepConst
// parameters and returns the merged reductions in parameter order.
func (s *Session) Step(vals ...any) ([][]float64, error) {
	st, reductions := s.s.Step(vals...)
	return reductions, callStatusErr(s.program, st)
}

// Close ends the session's copies.
func (s *Session) Close() { s.s.Close() }

func callStatusErr(program string, st int) error {
	if st == dcall.StatusOK {
		return nil
	}
	if st >= dcall.StatusInvalid && st <= int(arraymgr.StatusDown) {
		return fmt.Errorf("core: distributed call %s: %w", program, statusErr("distributed_call", arraymgr.Status(st)))
	}
	return fmt.Errorf("core: distributed call %s: status %d", program, st)
}

// IsStatus reports whether err carries the given status code.
func IsStatus(err error, st arraymgr.Status) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == st
}

// ForeignBordersOf returns the BorderSpec that defers border sizes to the
// named registered program's border callback for the given parameter
// number — the paper's {"foreign_borders", Program, Parm_num} option.
func ForeignBordersOf(program string, parmNum int) arraymgr.BorderSpec {
	return arraymgr.ForeignBorders{Program: program, ParmNum: parmNum}
}
