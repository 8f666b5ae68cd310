// Package arraymgr implements the array manager of §3.2.2 and §5.1: the
// runtime support for distributed arrays.
//
// The array manager consists of one array-manager server per virtual
// processor. An operation a task-parallel program invokes on a processor
// to create or manipulate distributed arrays is coordinated there, on the
// calling goroutine itself, against that processor's server state; the
// coordinator sends owner requests to the servers on other processors as
// needed to fulfil it (e.g. array creation touches every processor over
// which the array is distributed; reading an element touches the
// processor owning it). Requests travel over the machine's message router
// using task-parallel-class tags, keeping array-manager traffic disjoint
// from data-parallel program traffic per §3.4.1.
//
// Each server keeps a list of array entries. An entry is added on every
// processor over which an array is distributed as well as on the creating
// processor; freeing an array invalidates the entries so that subsequent
// references fail with STATUS_NOT_FOUND (§5.1.3).
package arraymgr

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/trace"
	"repro/internal/vp"
)

// Status is the result code of an array-manager operation (§4.1.2).
type Status int

const (
	// StatusOK — no errors.
	StatusOK Status = 0
	// StatusInvalid — invalid parameter.
	StatusInvalid Status = 1
	// StatusNotFound — array not found.
	StatusNotFound Status = 2
	// StatusError — system error.
	StatusError Status = 3
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "STATUS_OK"
	case StatusInvalid:
		return "STATUS_INVALID"
	case StatusNotFound:
		return "STATUS_NOT_FOUND"
	case StatusError:
		return "STATUS_ERROR"
	case StatusTimeout:
		return "STATUS_TIMEOUT"
	case StatusDown:
		return "STATUS_DOWN"
	case StatusClosed:
		return "STATUS_CLOSED"
	default:
		return fmt.Sprintf("STATUS(%d)", int(s))
	}
}

// BorderSpec is the Border_info parameter of create_array/verify_array
// (§4.2.1): no borders, explicit sizes, or sizes supplied at runtime by the
// data-parallel program that will receive the array (the foreign_borders
// option supporting Fortran D-style overlap areas).
type BorderSpec interface{ isBorderSpec() }

// NoBorderSpec is Border_info = 0: local sections have no borders.
type NoBorderSpec struct{}

func (NoBorderSpec) isBorderSpec() {}

// ExplicitBorders directly specifies border sizes: length 2*ndims, elements
// 2i and 2i+1 give the border on either side of dimension i.
type ExplicitBorders []int

func (ExplicitBorders) isBorderSpec() {}

// ForeignBorders defers border sizes to the data-parallel program Program,
// which will receive the array as parameter ParmNum. The program's
// registered border callback (the paper's Program_ routine) is consulted at
// creation/verification time.
type ForeignBorders struct {
	Program string
	ParmNum int
}

func (ForeignBorders) isBorderSpec() {}

// BorderResolver resolves a ForeignBorders spec: given the program name,
// parameter number and dimensionality, it returns the 2*ndims border
// sizes. The distributed-call registry provides one.
type BorderResolver func(program string, parmNum, ndims int) ([]int, error)

// CreateSpec collects the parameters of create_array (§4.2.1), extended
// with the replication option of the recovery plane: Replicas = k keeps k
// buddy copies of every local section (on the owners of the k grid slots
// following it, darray.Meta.BuddyOwner), so the array survives up to k
// fail-stop kills via promotion instead of checkpoint/restart.
type CreateSpec struct {
	Type     darray.ElemType
	Dims     []int
	Procs    []int
	Distrib  []grid.Decomp
	Borders  BorderSpec
	Indexing grid.Indexing
	Replicas int
}

// entry is one array's record at one server. Metadata is cloned per
// processor — distinct virtual address spaces hold distinct copies.
type entry struct {
	meta    *darray.Meta
	section *darray.Section // nil when this processor holds no local section
	slot    int             // grid slot of section (-1 when none)
	// replicas holds this processor's buddy copies, keyed by the grid
	// slot each one mirrors. After a promotion the promoted slot's data
	// stays here — sectionFor routes by slot, so nothing moves.
	replicas map[int]*darray.Section
	freed    bool
}

// sectionFor returns the storage backing the given grid slot at this
// entry: the primary section, a buddy copy, or nil when this processor
// holds nothing for the slot. Non-replicated entries ignore slot — every
// request is for the one section this processor serves.
func (e *entry) sectionFor(slot int) *darray.Section {
	if slot == e.slot || e.replicas == nil {
		return e.section
	}
	return e.replicas[slot]
}

// server is the per-processor array-manager state.
type server struct {
	mu      sync.Mutex
	entries map[darray.ID]*entry
	nextSeq int
}

// maxPooledBufs bounds each free list: the ship-request list and each
// class of the float-buffer pool.
const maxPooledBufs = 64

// The float-buffer pool. Every payload-sized []float64 the manager moves
// is drawn here and returned by whoever holds it last: an owner's reply
// (returned by the coordinator after assembling, or by the owner itself
// once the transport has serialized it), a shipped redistribution
// piece, a coordinator's per-owner share of a write, and every payload
// the codec decodes off the wire. One pool serves all of them because a
// buffer drawn in one role is released in another, and the codec, which
// draws decoded payloads, has no Manager. Class k holds buffers of
// capacity [2^k, 2^(k+1)), at most maxPooledBufs of them and at most
// about floatClassBytes worth; buffers of 2^floatClasses elements or
// more go to the garbage collector. Each class is a mutex-guarded free
// list rather than a sync.Pool, whose GC interaction would flake the
// 0 allocs/op pins.
const (
	floatClasses    = 23       // up to 4 Mi-element (32 MiB) buffers
	floatClassBytes = 32 << 20 // per-class retention bound
)

var floatPool [floatClasses]struct {
	mu   sync.Mutex
	bufs [][]float64
}

// getBuf draws a buffer of exactly n elements, allocating only when no
// pooled buffer is large enough: at a steady state of same-shaped
// requests, zero allocations per call. It looks in n's own class, whose
// buffers may be too short, and in the class above, whose buffers never
// are, so a buffer is never more than four times the size asked for.
func getBuf(n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	k := bits.Len(uint(n)) - 1
	for c := k; c <= k+1 && c < floatClasses; c++ {
		p := &floatPool[c]
		p.mu.Lock()
		for i := len(p.bufs) - 1; i >= 0; i-- {
			if b := p.bufs[i]; cap(b) >= n {
				last := len(p.bufs) - 1
				p.bufs[i], p.bufs[last] = p.bufs[last], nil
				p.bufs = p.bufs[:last]
				p.mu.Unlock()
				return b[:n]
			}
		}
		p.mu.Unlock()
	}
	return make([]float64, n)
}

// putBuf returns a buffer to the pool. Callers must not touch the buffer
// afterwards; a later getBuf hands it out again.
func putBuf(b []float64) {
	c := bits.Len(uint(cap(b))) - 1
	if c < 0 || c >= floatClasses {
		return
	}
	p := &floatPool[c]
	p.mu.Lock()
	if len(p.bufs) < min(maxPooledBufs, max(1, floatClassBytes>>(c+3))) {
		p.bufs = append(p.bufs, b)
	}
	p.mu.Unlock()
}

// Manager is the whole array manager: one server per virtual processor plus
// the request-routing fabric.
type Manager struct {
	machine  *vp.Machine
	servers  []*server
	resolver BorderResolver

	// Recovery state (resilient.go): the installed retry policy and the
	// recovery counters. All zero-cost when no policy is installed.
	policy      atomic.Pointer[CallPolicy]
	retransmits atomic.Uint64
	timeouts    atomic.Uint64

	// Failover state (recover.go): the optional membership view consulted
	// before sending, and the recovery-plane counters.
	membership      atomic.Pointer[msg.Membership]
	promotions      atomic.Uint64
	replays         atomic.Uint64
	mirrors         atomic.Uint64
	mirrorFailures  atomic.Uint64
	checkpointBytes atomic.Uint64

	// Seeded backoff jitter (resilient.go): guarded by jmu, installed by
	// SetCallPolicy.
	jmu  sync.Mutex
	jrng *rand.Rand

	// Completion table (wire.go): one entry per coordinator call in
	// flight, by id. Handlers answer (id, index), in-process or across
	// the wire.
	pendMu   sync.Mutex
	pending  map[uint64]call
	nextCall atomic.Uint64

	mu sync.Mutex
}

// kindAM is the reserved task-class message kind of every array-manager
// message: a request or ship order (*request) and, from another OS
// process, a reply or ack (*wireResponse). serve tells them apart by
// payload type.
const kindAM = -100

// opCode names an owner operation, the one thing a request asks of the
// server it is sent to; it crosses the wire as one byte. The zero value
// is no operation: owner routines a coordinator calls directly leave it
// unset.
type opCode uint8

const (
	opCreateLocal opCode = iota + 1
	opFreeLocal
	opCopyLocal
	opUpdateMeta
	opReadLocal
	opWriteLocal
	opMirrorWrite
	opRedistSrc
	opRedistShip
)

// opNames are the operation names of the paper's am_debug trace lines.
var opNames = [...]string{
	opCreateLocal: "create_local",
	opFreeLocal:   "free_local",
	opCopyLocal:   "copy_local",
	opUpdateMeta:  "update_meta",
	opReadLocal:   "read_local",
	opWriteLocal:  "write_local",
	opMirrorWrite: "mirror_write",
	opRedistSrc:   "redist_src",
	opRedistShip:  "redist_ship",
}

func (o opCode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", o)
}

// request is one owner request in flight: the message a server
// receives from a coordinator, or from another owner (a mirror or a
// shipped piece). Coordinators run on the goroutine that invoked the
// public operation and never receive a request. A request is answered
// by its call's completion-table identity, never through a channel it
// carries, so the same value serves in-process and decoded off the
// wire.
type request struct {
	op   opCode
	id   darray.ID
	meta *darray.Meta // for create_local / update_meta
	gidx []int        // copy_local: new borders
	offs []int        // owner read/write: an offset-set piece's storage offsets
	lo   []int        // owner read/write: interior-local rectangle bounds
	hi   []int
	step []int     // read/write: per-dimension stride (>= 1; nil = dense)
	runs []int     // owner read/write: runs per dimension of lo/hi/step (nil = one each)
	vals []float64 // write data
	slot int       // owner ops: the grid slot the payload addresses,
	// set by every coordinator split site so a processor serving several
	// slots after a promotion routes to the right storage (sectionFor)
	node int // redist_ship: the source owner that shipped the piece
	// redist_src: id names the source array and id2 the destination;
	// ships carries the source owner's pairs, each answering its pair
	// index of the call below (see redist.go).
	id2   darray.ID
	ships []redistShip

	// Identity (wire.go): the call the request belongs to — origin, the
	// coordinator's processor, and cid, its completion-table entry — and
	// idx, the answer it gives there (a ship: its pair; a redist_src
	// order, which answers through its ships: -1 minus its send
	// generation). The same triple is the owner's dedup key, checked
	// when dedup is set: for every request sent under a call policy
	// (resilient.go). Handlers treat requests as read-only, so a re-sent
	// delivery may alias the original safely, and the fault plane's
	// encode of a duplicated re-send never races a handler. dst, the
	// processor it was posted to, stays with the sender for re-sends and
	// does not cross the wire.
	origin int
	cid    uint64
	idx    int
	dedup  bool
	dst    int
}

type response struct {
	status Status
	vals   []float64
}

// New starts an array manager on every processor of the machine (the
// equivalent of the paper's `load("am")` on all processors, §B.3). On a
// partitioned router only the processors hosted by this OS process get
// serve loops — the rest are served by their own parts, reached over
// the wire — but the server table still covers all of them, so
// coordinator code indexes it uniformly.
func New(machine *vp.Machine) *Manager {
	m := &Manager{machine: machine, servers: make([]*server, machine.P()),
		pending: make(map[uint64]call)}
	router := machine.Router()
	for p := 0; p < machine.P(); p++ {
		m.servers[p] = &server{entries: make(map[darray.ID]*entry)}
		if !router.Local(p) {
			continue
		}
		p := p
		go m.serve(p)
	}
	return m
}

// SetBorderResolver installs the resolver used for ForeignBorders specs.
func (m *Manager) SetBorderResolver(r BorderResolver) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resolver = r
}

func (m *Manager) borderResolver() BorderResolver {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resolver
}

// serve is one array-manager server loop: it receives the owner requests
// addressed to this processor and services each in its own goroutine
// (the PCN server spawns a process per request, so concurrent requests
// never deadlock the server), and files the wire answers addressed to
// this processor's coordinators.
func (m *Manager) serve(proc int) {
	router := m.machine.Router()
	var dedup deduper
	for {
		message, err := router.RecvFrom(proc, msg.AnySource, msg.Tag{Class: msg.ClassTask, Kind: kindAM})
		if err != nil {
			return // router closed (or this processor killed)
		}
		if w, ok := message.Data.(*wireResponse); ok {
			// A wire answer addressed to a coordinator on this
			// processor goes straight into the completion table.
			// An answer the table refuses returns its decoded payload
			// to the pool.
			if !m.deliver(w.ID, w.Idx, response{status: w.Status, vals: w.Vals}) {
				putBuf(w.Vals)
			}
			continue
		}
		req, ok := message.Data.(*request)
		if !ok {
			continue
		}
		// Retransmits and router-injected duplicates of an already
		// dispatched request are dropped here, before any handler runs —
		// at-most-once execution is what keeps the data-plane ops
		// idempotent. The filter is owned by this goroutine (no lock)
		// and engages only for requests sent under a call policy.
		if k, ok := dedupKeyOf(req); ok && dedup.dup(k) {
			continue
		}
		go m.handle(proc, req)
	}
}

// handle dispatches one owner request at the server on proc. With
// tracing at Ops level the manager behaves like the paper's am_debug
// build, emitting one trace message per operation (§B.3). An op byte
// that names no owner operation is answered StatusError.
func (m *Manager) handle(proc int, req *request) {
	if trace.Enabled(trace.Ops) {
		trace.Logf(trace.Ops, proc, "am: %s %v", req.op, req.id)
	}
	var resp response
	switch req.op {
	case opCreateLocal, opFreeLocal, opCopyLocal, opUpdateMeta:
		resp = m.control(proc, req)
	case opReadLocal:
		resp = m.doReadLocal(proc, req)
	case opWriteLocal, opMirrorWrite:
		resp = m.doWriteLocal(proc, req)
	case opRedistSrc:
		// One-way ship traffic answers its pairs through its ships.
		m.doRedistSrc(proc, req)
		putShipReq(req)
		return
	case opRedistShip:
		m.doRedistShip(proc, req)
		return
	default:
		resp = response{status: StatusError}
	}
	// A read's pooled reply buffer passes to a coordinator in this
	// process that takes the answer. Otherwise it is free: the transport
	// serialized the reply before Send returned, or the answer was
	// dropped as late. A write's payload off the wire, decoded into the
	// pool, was spent before the op answered (mirrors included, as
	// doRedistShip's landing relies on too); in-process the coordinator
	// owns the write's share.
	taken := m.complete(proc, req, req.idx, resp)
	switch req.op {
	case opReadLocal:
		if !taken {
			putBuf(resp.vals)
		}
	case opWriteLocal, opMirrorWrite:
		if !m.machine.Router().Local(req.origin) {
			putBuf(req.vals)
		}
	}
}

// enter guards an operation invoked on processor onProc (§3.2.1.5), whose
// coordinator then runs on the calling goroutine: onProc must be hosted
// in this process (StatusInvalid otherwise, out of range included),
// alive (StatusDown) and the machine open (StatusClosed). With tracing
// at Ops level it emits the operation's am_debug line, as handle does
// for an owner's.
func (m *Manager) enter(onProc int, op string, id darray.ID) Status {
	router := m.machine.Router()
	if !router.Local(onProc) {
		return StatusInvalid
	}
	if router.Down(onProc) {
		return StatusDown
	}
	select {
	case <-router.Done():
		return StatusClosed
	default:
	}
	if trace.Enabled(trace.Ops) {
		trace.Logf(trace.Ops, onProc, "am: %s %v", op, id)
	}
	return StatusOK
}

// --- coordinator operations ---

// bordersAllowed reports whether the resolved borders are permitted for
// the layout. Borders exist to back halo exchanges between grid-adjacent
// sections, which assume every cell holds a full-size, index-adjacent
// interior; so nonzero borders require an exactly even block
// decomposition — no cyclic dimensions (cell adjacency is not index
// adjacency there; spmd.HaloExchange carries the matching guard) and no
// uneven trailing blocks (a short or empty trailing cell would exchange
// unused storage as if it were data). Bordered fields keep exactly the
// shapes the paper's prototype accepted; borderless arrays get the full
// distribution layer.
func bordersAllowed(borders, dims, gridDims []int, dists []grid.Dist) bool {
	nonzero := false
	for _, b := range borders {
		if b != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		return true
	}
	if !grid.Regular(gridDims, dists) {
		return false
	}
	for i := range dims {
		if dists[i].Storage(dims[i], gridDims[i])*gridDims[i] != dims[i] {
			return false
		}
	}
	return true
}

// resolveBorders turns a BorderSpec into concrete border sizes.
func (m *Manager) resolveBorders(spec BorderSpec, ndims int) ([]int, Status) {
	switch b := spec.(type) {
	case nil, NoBorderSpec:
		return darray.NoBorders(ndims), StatusOK
	case ExplicitBorders:
		if err := darray.CheckBorders([]int(b), ndims); err != nil {
			return nil, StatusInvalid
		}
		return append([]int(nil), b...), StatusOK
	case ForeignBorders:
		r := m.borderResolver()
		if r == nil {
			return nil, StatusInvalid
		}
		borders, err := r(b.Program, b.ParmNum, ndims)
		if err != nil {
			return nil, StatusInvalid
		}
		if err := darray.CheckBorders(borders, ndims); err != nil {
			return nil, StatusInvalid
		}
		return borders, StatusOK
	default:
		return nil, StatusInvalid
	}
}

// doCreate is the create_array coordinator.
func (m *Manager) doCreate(proc int, spec *CreateSpec) (darray.ID, Status) {
	if len(spec.Dims) == 0 || len(spec.Procs) == 0 {
		return darray.ID{}, StatusInvalid
	}
	for _, d := range spec.Dims {
		if d < 1 {
			return darray.ID{}, StatusInvalid
		}
	}
	seen := make(map[int]bool, len(spec.Procs))
	for _, p := range spec.Procs {
		if m.machine.CheckProc(p) != nil || seen[p] {
			return darray.ID{}, StatusInvalid
		}
		seen[p] = true
	}
	if len(spec.Distrib) != len(spec.Dims) {
		return darray.ID{}, StatusInvalid
	}
	gridDims, err := grid.GridDims(len(spec.Procs), spec.Distrib)
	if err != nil {
		return darray.ID{}, StatusInvalid
	}
	dists, err := grid.ResolveDists(spec.Dims, gridDims, spec.Distrib)
	if err != nil {
		return darray.ID{}, StatusInvalid
	}
	// Sections are sized uniformly at the fullest cell's extent; the
	// divide-evenly restriction of the paper's prototype (§3.2.1.1) is
	// gone — trailing blocks may be short or empty.
	localDims, err := grid.StorageDims(spec.Dims, gridDims, dists)
	if err != nil {
		return darray.ID{}, StatusInvalid
	}
	borders, st := m.resolveBorders(spec.Borders, len(spec.Dims))
	if st != StatusOK {
		return darray.ID{}, st
	}
	if !bordersAllowed(borders, spec.Dims, gridDims, dists) {
		return darray.ID{}, StatusInvalid
	}
	plus, err := darray.DimsPlus(localDims, borders)
	if err != nil {
		return darray.ID{}, StatusInvalid
	}
	// Replication needs k distinct buddy slots following each slot, so k
	// must leave at least one non-buddy: 0 <= k < grid size.
	if spec.Replicas < 0 || spec.Replicas >= grid.Size(gridDims) {
		return darray.ID{}, StatusInvalid
	}

	srv := m.servers[proc]
	srv.mu.Lock()
	id := darray.ID{Proc: proc, Seq: srv.nextSeq}
	srv.nextSeq++
	srv.mu.Unlock()

	meta := &darray.Meta{
		ID:            id,
		Type:          spec.Type,
		Dims:          append([]int(nil), spec.Dims...),
		Procs:         append([]int(nil), spec.Procs...),
		GridDims:      gridDims,
		Dists:         dists,
		LocalDims:     localDims,
		Borders:       borders,
		LocalDimsPlus: plus,
		Indexing:      spec.Indexing,
		GridIndexing:  spec.Indexing, // the paper ties grid indexing to array indexing
		Replicas:      spec.Replicas,
	}

	// An entry is created on every processor holding a local section, and
	// on the creating processor (§5.1.3): one message per other target,
	// one round trip of depth.
	targets := map[int]bool{proc: true}
	for _, p := range meta.SectionProcs() {
		targets[p] = true
	}
	if st := m.fanout(proc, &request{op: opCreateLocal, id: id, meta: meta}, targets); st != StatusOK {
		return darray.ID{}, st
	}
	return id, StatusOK
}

// fanout delivers one control request (create_local, free_local,
// copy_local or update_meta, named by req.op, carrying req's id, meta
// and borders) to every processor in targets the way the data-plane
// coordinators reach their owners: one call, one index per target; it
// posts one request to every other target before waiting on any,
// services its own copy in place while they work, then gathers every
// answer and keeps the highest status. P targets
// cost P-1 messages and one round trip of depth, and a dead target
// strands no other. Targets are posted in processor order, so a fault
// plan's seeded draws repeat from run to run. Two per-op rules apply:
// freeing is idempotent per target, so free_local's StatusNotFound
// counts as done (§5.1.3); and recovery's update_meta skips targets the
// router reports down and ignores StatusDown answers, since a holder
// that died is fail-stop and will never serve again.
func (m *Manager) fanout(proc int, req *request, targets map[int]bool) Status {
	router := m.machine.Router()
	list := make([]int, 0, len(targets))
	for p := range targets {
		if req.op != opUpdateMeta || !router.Down(p) {
			list = append(list, p)
		}
	}
	sort.Ints(list)
	c := m.open(len(list))
	self := -1
	for i, p := range list {
		if p == proc {
			self = i
			continue
		}
		m.send(c, i, proc, p, &request{op: req.op, id: req.id, meta: req.meta, gidx: req.gidx})
	}
	status := StatusOK
	keep := func(st Status) {
		switch {
		case req.op == opFreeLocal && st == StatusNotFound, req.op == opUpdateMeta && st == StatusDown:
		case st > status:
			status = st
		}
	}
	if self >= 0 {
		// handle traces each other target's copy; the own copy gets the
		// same am_debug line.
		if trace.Enabled(trace.Ops) {
			trace.Logf(trace.Ops, proc, "am: %s %v", req.op, req.id)
		}
		m.deliver(c.id, self, m.control(proc, req))
	}
	m.gather(c, nil, func(_ int, r response) { keep(r.status) })
	return status
}

// control applies one control op of a fan-out at proc.
func (m *Manager) control(proc int, req *request) response {
	switch req.op {
	case opCreateLocal:
		return m.doCreateLocal(proc, req)
	case opFreeLocal:
		return m.doFreeLocal(proc, req)
	case opCopyLocal:
		return m.doCopyLocal(proc, req)
	case opUpdateMeta:
		return m.doUpdateMeta(proc, req)
	}
	return response{status: StatusError}
}

func (m *Manager) doCreateLocal(proc int, req *request) response {
	srv := m.servers[proc]
	meta := req.meta.Clone() // each address space keeps its own copy
	var section *darray.Section
	slot := -1
	if s, holds := meta.HoldsSection(proc); holds {
		slot = s
		section = darray.NewSection(meta.Type, meta.LocalStorageSize())
	}
	// With Replicas = k, the owner of slot i also keeps a buddy copy of
	// each of the k slots preceding it (it is those slots' BuddyOwner).
	// Sections are sized uniformly, so every copy has the same extent.
	var replicas map[int]*darray.Section
	if meta.Replicas > 0 && slot >= 0 {
		g := meta.GridSize()
		replicas = make(map[int]*darray.Section, meta.Replicas)
		for j := 1; j <= meta.Replicas; j++ {
			rs := ((slot-j)%g + g) % g
			replicas[rs] = darray.NewSection(meta.Type, meta.LocalStorageSize())
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if _, dup := srv.entries[req.id]; dup {
		return response{status: StatusError}
	}
	srv.entries[req.id] = &entry{meta: meta, section: section, slot: slot, replicas: replicas}
	return response{status: StatusOK}
}

// lookup returns the live entry for id at proc, or a failure status.
func (m *Manager) lookup(proc int, id darray.ID) (*entry, Status) {
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e, ok := srv.entries[id]
	if !ok || e.freed {
		return nil, StatusNotFound
	}
	return e, StatusOK
}

// doFree is the free_array coordinator.
func (m *Manager) doFree(proc int, id darray.ID) Status {
	e, st := m.lookup(proc, id)
	if st != StatusOK {
		return st
	}
	targets := map[int]bool{proc: true, id.Proc: true}
	for _, p := range e.meta.SectionProcs() {
		targets[p] = true
	}
	// A target that already lost its entry reports STATUS_NOT_FOUND,
	// which fanout counts as done (freeing is idempotent).
	return m.fanout(proc, &request{op: opFreeLocal, id: id}, targets)
}

func (m *Manager) doFreeLocal(proc int, req *request) response {
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e, ok := srv.entries[req.id]
	if !ok || e.freed {
		return response{status: StatusNotFound}
	}
	// The entry leaves the table, so the array's storage and metadata
	// go with it (the paper's explicit free). freed tells a handler that
	// looked the entry up before the free and still holds it. A
	// duplicate or retransmitted create_local that arrives after the
	// free is dropped by the serve loop's dedup window (dedupWindow),
	// so it cannot bring the entry back.
	delete(srv.entries, req.id)
	e.freed = true
	e.section = nil
	e.replicas = nil
	return response{status: StatusOK}
}

// unsnapshot releases one owner's share of a write (a pooled buffer:
// messages carry copies, never views) once the write's gather has its
// answer, with status st. A share sent to another OS process is free by
// then: the transport serialized it on every send, gather's re-sends
// included, which is why it is not released after the send. An owner in
// this process reads the share itself, so a gather that stopped waiting
// on it (down, timed out, closed) leaves the buffer to the garbage
// collector. A fault plan changes none of this: a delayed re-send of
// the same request is dropped by the owner's dedup filter before any
// handler reads the share, and a duplicate is a codec copy.
func (m *Manager) unsnapshot(owner int, st Status, vals []float64) {
	if m.machine.Router().Local(owner) && (st == StatusDown || st == StatusTimeout || st == StatusClosed) {
		return
	}
	putBuf(vals)
}

func (m *Manager) doFindLocal(proc int, id darray.ID) (*darray.Section, Status) {
	e, st := m.lookup(proc, id)
	if st != StatusOK {
		return nil, st
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if e.section == nil {
		// find_local requires a local view: only processors holding a
		// section may ask (§5.1.4).
		return nil, StatusNotFound
	}
	return e.section, StatusOK
}

func (m *Manager) doFindInfo(proc int, id darray.ID, which string) (any, Status) {
	e, st := m.lookup(proc, id)
	if st != StatusOK {
		return nil, st
	}
	meta := e.meta
	var out any
	switch which {
	case "type":
		out = meta.Type.String()
	case "dimensions":
		out = append([]int(nil), meta.Dims...)
	case "processors":
		out = append([]int(nil), meta.Procs...)
	case "grid_dimensions":
		out = append([]int(nil), meta.GridDims...)
	case "distribution":
		out = meta.ResolvedDists()
	case "local_dimensions":
		out = append([]int(nil), meta.LocalDims...)
	case "borders":
		out = append([]int(nil), meta.Borders...)
	case "local_dimensions_plus":
		out = append([]int(nil), meta.LocalDimsPlus...)
	case "indexing_type":
		out = meta.Indexing.String()
	case "grid_indexing_type":
		out = meta.GridIndexing.String()
	case "meta":
		out = meta.Clone() // full metadata, a convenience beyond the paper
	default:
		return nil, StatusInvalid
	}
	return out, StatusOK
}

// doVerify is the verify_array coordinator.
func (m *Manager) doVerify(proc int, id darray.ID, ndims int, borders BorderSpec, indexing grid.Indexing) Status {
	e, st := m.lookup(proc, id)
	if st != StatusOK {
		return st
	}
	meta := e.meta
	if ndims != meta.NDims() {
		return StatusInvalid
	}
	if indexing != meta.Indexing {
		// The indexing type cannot be corrected by reallocation; a
		// mismatch is an invalid request (§4.2.7's third example).
		return StatusInvalid
	}
	expected, bst := m.resolveBorders(borders, meta.NDims())
	if bst != StatusOK {
		return bst
	}
	// Verification may not retrofit borders onto a layout that could not
	// have been created with them (the same block-only contract as
	// create_array).
	if !bordersAllowed(expected, meta.Dims, meta.GridDims, meta.ResolvedDists()) {
		return StatusInvalid
	}
	if darray.EqualInts(expected, meta.Borders) {
		return StatusOK
	}
	// Mismatch: reallocate every local section with the expected borders,
	// copying interior data, and update metadata everywhere an entry
	// exists (section holders + creator + this coordinator). The
	// reallocation fans out like create/free.
	targets := map[int]bool{proc: true, id.Proc: true}
	for _, p := range meta.SectionProcs() {
		targets[p] = true
	}
	return m.fanout(proc, &request{op: opCopyLocal, id: id, gidx: expected}, targets)
}

// doCopyLocal reallocates this processor's local section with new borders
// (carried in req.gidx), copies interior data, and updates the local
// metadata copy.
func (m *Manager) doCopyLocal(proc int, req *request) response {
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e, ok := srv.entries[req.id]
	if !ok || e.freed {
		return response{status: StatusNotFound}
	}
	newBorders := req.gidx
	plus, err := darray.DimsPlus(e.meta.LocalDims, newBorders)
	if err != nil {
		return response{status: StatusInvalid}
	}
	if e.section != nil {
		fresh := darray.NewSection(e.meta.Type, grid.Size(plus))
		if err := darray.CopyInterior(fresh, e.section, e.meta.LocalDims, newBorders, e.meta.Borders, e.meta.Indexing); err != nil {
			return response{status: StatusError}
		}
		e.section = fresh
	}
	// Buddy copies share the primary's layout, so they are reallocated
	// the same way.
	for slot, sec := range e.replicas {
		fresh := darray.NewSection(e.meta.Type, grid.Size(plus))
		if err := darray.CopyInterior(fresh, sec, e.meta.LocalDims, newBorders, e.meta.Borders, e.meta.Indexing); err != nil {
			return response{status: StatusError}
		}
		e.replicas[slot] = fresh
	}
	e.meta.Borders = append([]int(nil), newBorders...)
	e.meta.LocalDimsPlus = plus
	return response{status: StatusOK}
}

func (m *Manager) doUpdateMeta(proc int, req *request) response {
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e, ok := srv.entries[req.id]
	if !ok || e.freed {
		return response{status: StatusNotFound}
	}
	// Epoch guard: a promotion broadcast that raced a newer one (dropped,
	// jittered, replayed) must not roll ownership back.
	if req.meta.Epoch < e.meta.Epoch {
		return response{status: StatusOK}
	}
	e.meta = req.meta.Clone()
	return response{status: StatusOK}
}

// --- public API (the operations of §3.2.1.5, invoked on a processor) ---

// CreateArray services a create_array request made on processor onProc and
// returns the new array's globally unique ID.
func (m *Manager) CreateArray(onProc int, spec CreateSpec) (darray.ID, Status) {
	if st := m.enter(onProc, "create_array", darray.ID{}); st != StatusOK {
		return darray.ID{}, st
	}
	return m.doCreate(onProc, &spec)
}

// FreeArray deletes the array and frees all its local sections.
func (m *Manager) FreeArray(onProc int, id darray.ID) Status {
	if st := m.enter(onProc, "free_array", id); st != StatusOK {
		return st
	}
	return m.doFree(onProc, id)
}

// GatherElements reads the elements at the given global index tuples,
// returning their values in request order. The transfer is split by owning
// processor: one concurrent request per owner, however many elements each
// owner holds — the indexed companion of ReadBlock for access patterns
// with no rectangular structure.
func (m *Manager) GatherElements(onProc int, id darray.ID, indices [][]int) ([]float64, Status) {
	out := make([]float64, len(indices))
	if st := m.GatherElementsInto(onProc, id, indices, out); st != StatusOK {
		return nil, st
	}
	return out, StatusOK
}

// GatherElementsInto is the buffer-reuse variant of GatherElements: dst
// must hold exactly len(indices) elements and receives the values in
// place. dst is owned by the caller throughout.
func (m *Manager) GatherElementsInto(onProc int, id darray.ID, indices [][]int, dst []float64) Status {
	if st := m.enter(onProc, "read", id); st != StatusOK {
		return st
	}
	if st, ok := m.localVectorFast(onProc, id, indices, true, dst); ok {
		return st
	}
	rg := region{idx: vector(indices)}
	return m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doRead(onProc, id, rg, dst)
	}).status
}

// ScatterElements writes vals[i] to the element at indices[i], split by
// owning processor into one concurrent request per owner. A repeated index
// takes the value at its last occurrence in the request (last writer
// wins). vals is never retained; remote owners receive their own
// snapshots.
func (m *Manager) ScatterElements(onProc int, id darray.ID, indices [][]int, vals []float64) Status {
	if st := m.enter(onProc, "write", id); st != StatusOK {
		return st
	}
	if len(indices) == len(vals) {
		if st, ok := m.localVectorFast(onProc, id, indices, false, vals); ok {
			return st
		}
	}
	rg := region{idx: vector(indices)}
	return m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doWrite(onProc, id, rg, vals)
	}).status
}

// ReadElement reads one element by its global indices — the k=1 degenerate
// case of GatherElements. The one-element request vectors come from a
// scratch pool and a wholly-local element takes the router-free fast path,
// so local element reads allocate nothing.
func (m *Manager) ReadElement(onProc int, id darray.ID, indices []int) (float64, Status) {
	if st := m.enter(onProc, "read", id); st != StatusOK {
		return 0, st
	}
	s := elemScratchPool.Get().(*elemScratch)
	s.idx[0] = indices
	s.val[0] = 0 // failed reads report 0, not a stale pooled value
	st, ok := m.localVectorFast(onProc, id, s.gidxs, true, s.val[:])
	if !ok {
		st = m.sendData(onProc, []darray.ID{id}, func() response {
			return m.doRead(onProc, id, region{idx: s.gidxs}, s.val[:])
		}).status
	}
	v := s.val[0]
	if st != StatusOK {
		v = 0
	}
	s.idx[0] = nil
	elemScratchPool.Put(s)
	return v, st
}

// WriteElement writes one element by its global indices — the k=1
// degenerate case of ScatterElements, sharing ReadElement's scratch pool
// and local fast path.
func (m *Manager) WriteElement(onProc int, id darray.ID, indices []int, v float64) Status {
	if st := m.enter(onProc, "write", id); st != StatusOK {
		return st
	}
	s := elemScratchPool.Get().(*elemScratch)
	s.idx[0] = indices
	s.val[0] = v
	st, ok := m.localVectorFast(onProc, id, s.gidxs, false, s.val[:])
	if !ok {
		st = m.sendData(onProc, []darray.ID{id}, func() response {
			return m.doWrite(onProc, id, region{idx: s.gidxs}, s.val[:])
		}).status
	}
	s.idx[0] = nil
	elemScratchPool.Put(s)
	return st
}

// localBlockFast attempts the zero-copy local fast path: when the whole
// lattice (lo, hi, step) — dense when step is nil — lies on processor
// proc, the data moves directly between buf and the local section's
// storage under the server lock — no router message, no request
// goroutine, no intermediate buffer, and (for rectangles of at most
// darray.MaxFastDims dimensions) no heap allocation.
// ok reports whether the fast path applied; when it does not, the caller
// falls back to the coordinator, which also produces the authoritative
// failure status for malformed requests.
func (m *Manager) localBlockFast(proc int, id darray.ID, lo, hi, step []int, read bool, buf []float64) (Status, bool) {
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e, ok := srv.entries[id]
	if !ok || e.freed || e.section == nil {
		return StatusOK, false
	}
	// After a promotion a processor may serve several slots, so the
	// single-section locality test below is no longer sound; writes to a
	// replicated array must mirror, which only the coordinator path does.
	if e.meta.Epoch > 0 || (!read && e.meta.Replicas > 0) {
		return StatusOK, false
	}
	n := e.meta.NDims()
	if n > darray.MaxFastDims || grid.CheckStridedRect(lo, hi, step, e.meta.Dims) != nil ||
		len(buf) != grid.StridedRectSize(lo, hi, step) {
		return StatusOK, false
	}
	// Locality is decided by the lattice's bounding box, not the requested
	// hi: clamp each bound to just past the last lattice point so a stride
	// overshooting the section edge still qualifies.
	var hiEff [darray.MaxFastDims]int
	for i := 0; i < n; i++ {
		st := grid.StepAt(step, i)
		hiEff[i] = lo[i] + ((hi[i]-1-lo[i])/st)*st + 1
	}
	var loBuf, hiBuf [darray.MaxFastDims]int
	if !e.meta.LocalRect(proc, lo, hiEff[:n], loBuf[:n], hiBuf[:n]) {
		return StatusOK, false
	}
	return movePiece(read, e.section, e.meta, buf, nil, loBuf[:n], hiBuf[:n], step, nil), true
}

// localVectorFast attempts the local fast path of the indexed plane: when
// every index of the request resolves to the requesting processor, the
// elements move directly between buf and the local section's storage under
// the server lock — no router message and no heap allocation, the
// ownership test running inline over the index vector the way
// darray.Meta.OwnerIndices resolves it. For a scatter the whole vector is
// validated before the first write, so a declined request mutates nothing;
// values are applied in request order (last writer wins for repeats). ok
// reports whether the fast path applied.
func (m *Manager) localVectorFast(proc int, id darray.ID, indices [][]int, read bool, buf []float64) (Status, bool) {
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e, ok := srv.entries[id]
	if !ok || e.freed || e.section == nil {
		return StatusOK, false
	}
	// Same declines as localBlockFast: post-promotion ownership and
	// replicated writes belong to the coordinator.
	if e.meta.Epoch > 0 || (!read && e.meta.Replicas > 0) {
		return StatusOK, false
	}
	meta := e.meta
	n := meta.NDims()
	if n > darray.MaxFastDims || len(buf) != len(indices) {
		return StatusOK, false
	}
	homeSlot, holds := meta.HoldsSection(proc)
	if !holds {
		return StatusOK, false
	}
	var stridesBuf [darray.MaxFastDims]int
	if meta.Indexing == grid.RowMajor {
		st := 1
		for i := n - 1; i >= 0; i-- {
			stridesBuf[i] = st
			st *= meta.LocalDimsPlus[i]
		}
	} else {
		st := 1
		for i := 0; i < n; i++ {
			stridesBuf[i] = st
			st *= meta.LocalDimsPlus[i]
		}
	}
	strides := stridesBuf[:n]
	// Pass 1: every index must be well-formed and owned by this processor
	// (malformed requests fall back to the coordinator for the
	// authoritative status; a declined scatter must mutate nothing).
	for _, gidx := range indices {
		slot, _, ok := meta.ResolveIndex(gidx, strides)
		if !ok || slot != homeSlot {
			return StatusOK, false
		}
	}
	// Pass 2: move the data through border-displaced storage offsets.
	for k, gidx := range indices {
		_, off, _ := meta.ResolveIndex(gidx, strides)
		if read {
			buf[k] = e.section.GetFloat(off)
		} else {
			e.section.SetFloat(off, buf[k])
		}
	}
	return StatusOK, true
}

// elemScratch carries the one-element index and value vectors of
// ReadElement/WriteElement, pooled so the k=1 degenerate ops allocate
// nothing on the local fast path.
type elemScratch struct {
	idx   [1][]int
	val   [1]float64
	gidxs [][]int // aliases idx[:]
}

var elemScratchPool = sync.Pool{New: func() any {
	s := &elemScratch{}
	s.gidxs = s.idx[:]
	return s
}}

// vector marks an index list as one for the coordinator, which tells an
// index vector from a rectangle by a non-nil region.idx: a nil list
// becomes the empty vector.
func vector(indices [][]int) [][]int {
	if indices == nil {
		return [][]int{}
	}
	return indices
}

// ReadBlock reads the global rectangle [lo, hi) (half-open per dimension)
// into a dense buffer linearized row-major over the rectangle. The
// transfer is split by owning processor: the coordinator scatters one
// message per remote owner concurrently, regardless of the rectangle's
// element count, and gathers the replies.
func (m *Manager) ReadBlock(onProc int, id darray.ID, lo, hi []int) ([]float64, Status) {
	if st := m.enter(onProc, "read", id); st != StatusOK {
		return nil, st
	}
	r := m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doRead(onProc, id, region{lo: lo, hi: hi}, nil)
	})
	return r.vals, r.status
}

// ReadBlockInto is the buffer-reuse variant of ReadBlock: dst must hold
// exactly the rectangle's element count and receives the data in place.
// When the whole rectangle lies on onProc the copy comes straight out of
// the local section storage with no message and zero heap allocations (up
// to darray.MaxFastDims dimensions); otherwise the concurrent coordinator
// assembles the remote pieces directly into dst. dst is owned by the
// caller throughout — the manager retains no reference to it.
func (m *Manager) ReadBlockInto(onProc int, id darray.ID, lo, hi []int, dst []float64) Status {
	if st := m.enter(onProc, "read", id); st != StatusOK {
		return st
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, nil, true, dst); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doRead(onProc, id, region{lo: lo, hi: hi}, dst)
	}).status
}

// WriteBlock writes a dense row-major buffer into the global rectangle
// [lo, hi). When the whole rectangle lies on onProc the data is copied
// straight into the local section storage with no message and zero heap
// allocations; otherwise the coordinator scatters one message per remote
// owning processor concurrently. vals is never retained: remote owners
// receive their own snapshots, so the caller may reuse the buffer as soon
// as WriteBlock returns.
func (m *Manager) WriteBlock(onProc int, id darray.ID, lo, hi []int, vals []float64) Status {
	if st := m.enter(onProc, "write", id); st != StatusOK {
		return st
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, nil, false, vals); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doWrite(onProc, id, region{lo: lo, hi: hi}, vals)
	}).status
}

// ReadBlockStrided reads the lattice of every step[i]-th element of the
// global rectangle [lo, hi) into a dense buffer packed row-major over the
// lattice. Like ReadBlock, the transfer is split by owning processor — one
// concurrent request per owner holding a lattice point, however many
// rows/columns the stride selects — so every-k-th-row access costs
// O(#owners) messages instead of an index vector with one offset per
// element.
func (m *Manager) ReadBlockStrided(onProc int, id darray.ID, lo, hi, step []int) ([]float64, Status) {
	if st := m.enter(onProc, "read", id); st != StatusOK {
		return nil, st
	}
	r := m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doRead(onProc, id, region{lo: lo, hi: hi, step: step}, nil)
	})
	return r.vals, r.status
}

// ReadBlockStridedInto is the buffer-reuse variant of ReadBlockStrided:
// dst must hold exactly the lattice's point count and receives the packed
// data in place. A wholly-local lattice is copied straight out of section
// storage with no message and zero heap allocations (up to
// darray.MaxFastDims dimensions); dst is owned by the caller throughout.
func (m *Manager) ReadBlockStridedInto(onProc int, id darray.ID, lo, hi, step []int, dst []float64) Status {
	if st := m.enter(onProc, "read", id); st != StatusOK {
		return st
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, step, true, dst); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doRead(onProc, id, region{lo: lo, hi: hi, step: step}, dst)
	}).status
}

// WriteBlockStrided writes a dense buffer packed row-major over the
// lattice onto every step[i]-th element of the global rectangle [lo, hi):
// straight into section storage when the lattice is wholly local, one
// concurrent message per remote owning processor otherwise. Elements off
// the lattice are untouched; vals is never retained.
func (m *Manager) WriteBlockStrided(onProc int, id darray.ID, lo, hi, step []int, vals []float64) Status {
	if st := m.enter(onProc, "write", id); st != StatusOK {
		return st
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, step, false, vals); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() response {
		return m.doWrite(onProc, id, region{lo: lo, hi: hi, step: step}, vals)
	}).status
}

// FindLocal returns the local section of the array on onProc in a form
// suitable for passing to a data-parallel program. Only processors holding
// a section may call it.
func (m *Manager) FindLocal(onProc int, id darray.ID) (*darray.Section, Status) {
	if st := m.enter(onProc, "find_local", id); st != StatusOK {
		return nil, st
	}
	return m.doFindLocal(onProc, id)
}

// FindInfo returns information about the array; which is one of the §4.2.6
// selector strings ("type", "dimensions", "processors", "grid_dimensions",
// "local_dimensions", "borders", "local_dimensions_plus", "indexing_type",
// "grid_indexing_type"), "distribution" for the per-dimension
// distributions ([]grid.Dist), or "meta" for the full metadata.
func (m *Manager) FindInfo(onProc int, id darray.ID, which string) (any, Status) {
	if st := m.enter(onProc, "find_info", id); st != StatusOK {
		return nil, st
	}
	return m.doFindInfo(onProc, id, which)
}

// Meta returns the full metadata of an array (convenience wrapper over
// FindInfo("meta")).
func (m *Manager) Meta(onProc int, id darray.ID) (*darray.Meta, Status) {
	info, st := m.FindInfo(onProc, id, "meta")
	if st != StatusOK {
		return nil, st
	}
	return info.(*darray.Meta), StatusOK
}

// VerifyArray verifies that the array has the given indexing type and
// borders, reallocating and copying local sections if the borders differ
// (§4.2.7).
func (m *Manager) VerifyArray(onProc int, id darray.ID, ndims int, borders BorderSpec, indexing grid.Indexing) Status {
	if st := m.enter(onProc, "verify_array", id); st != StatusOK {
		return st
	}
	return m.doVerify(onProc, id, ndims, borders, indexing)
}
