// Package arraymgr implements the array manager of §3.2.2 and §5.1: the
// runtime support for distributed arrays.
//
// The array manager consists of one array-manager server per virtual
// processor. All requests by task-parallel programs to create or manipulate
// distributed arrays are handled by the *local* array-manager server, which
// communicates with the array-manager servers on other processors as needed
// to fulfil the request (e.g. array creation touches every processor over
// which the array is distributed; reading an element touches the processor
// owning it). Requests travel over the machine's message router using
// task-parallel-class tags, keeping array-manager traffic disjoint from
// data-parallel program traffic per §3.4.1.
//
// Each server keeps a list of array entries. An entry is added on every
// processor over which an array is distributed as well as on the creating
// processor; freeing an array invalidates the entries so that subsequent
// references fail with STATUS_NOT_FOUND (§5.1.3).
package arraymgr

import (
	"fmt"
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

	// bufMu guards the reply-buffer pool. It is separate from (and may be
	// taken under) mu, so owner-side service routines can draw a buffer
	// while holding the entry lock and coordinators can recycle one without
	// it.
	bufMu sync.Mutex
	bufs  [][]float64
}

// maxPooledBufs bounds each server's reply-buffer pool; buffers returned
// beyond the bound are dropped to the garbage collector.
const maxPooledBufs = 64

// getBuf draws a reply buffer of exactly n elements from the server's
// pool, allocating only when no pooled buffer is large enough — at a
// steady state of same-shaped requests, zero allocations per call.
func (s *server) getBuf(n int) []float64 {
	s.bufMu.Lock()
	for i := len(s.bufs) - 1; i >= 0; i-- {
		if cap(s.bufs[i]) >= n {
			b := s.bufs[i]
			s.bufs = append(s.bufs[:i], s.bufs[i+1:]...)
			s.bufMu.Unlock()
			return b[:n]
		}
	}
	s.bufMu.Unlock()
	return make([]float64, n)
}

// putBuf returns a reply buffer to the pool. Callers must not touch the
// buffer afterwards; the owning server will hand it to a later request.
func (s *server) putBuf(b []float64) {
	if b == nil {
		return
	}
	s.bufMu.Lock()
	if len(s.bufs) < maxPooledBufs {
		s.bufs = append(s.bufs, b)
	}
	s.bufMu.Unlock()
}

// Manager is the whole array manager: one server per virtual processor plus
// the request-routing fabric.
type Manager struct {
	machine  *vp.Machine
	servers  []*server
	resolver BorderResolver

	// Recovery state (resilient.go): the installed retry policy, the
	// request-id counter, and the recovery counters. All zero-cost when
	// no policy is installed.
	policy      atomic.Pointer[CallPolicy]
	seq         atomic.Uint64
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

	// Wire completion table (wire.go): replies and redistribution acks
	// from remote owners carry a table id instead of a channel. The map
	// is allocated lazily, so unpartitioned managers pay nothing.
	pendMu    sync.Mutex
	pending   map[uint64]chan response
	nextReply atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// kindAMRequest is the reserved task-class message kind carrying
// array-manager requests.
const kindAMRequest = -100

// opCode names an array-manager operation; it crosses the wire as one
// byte. The zero value is no operation: owner routines a coordinator
// calls directly leave it unset.
type opCode uint8

const (
	opCreateArray opCode = iota + 1
	opCreateLocal
	opFreeArray
	opFreeLocal
	opReadVector
	opReadVectorLocal
	opWriteVector
	opWriteVectorLocal
	opReadBlock
	opReadBlockLocal
	opWriteBlock
	opWriteBlockLocal
	opReadBlockStrided
	opReadBlockStridedLocal
	opWriteBlockStrided
	opWriteBlockStridedLocal
	opMirrorWrite
	opRedistribute
	opRedistSrc
	opRedistShip
	opFindLocal
	opFindInfo
	opVerifyArray
	opCopyLocal
	opTree
	opUpdateMeta
)

// opNames are the operation names of the paper's am_debug trace lines.
var opNames = [...]string{
	opCreateArray:            "create_array",
	opCreateLocal:            "create_local",
	opFreeArray:              "free_array",
	opFreeLocal:              "free_local",
	opReadVector:             "read_vector",
	opReadVectorLocal:        "read_vector_local",
	opWriteVector:            "write_vector",
	opWriteVectorLocal:       "write_vector_local",
	opReadBlock:              "read_block",
	opReadBlockLocal:         "read_block_local",
	opWriteBlock:             "write_block",
	opWriteBlockLocal:        "write_block_local",
	opReadBlockStrided:       "read_block_strided",
	opReadBlockStridedLocal:  "read_block_strided_local",
	opWriteBlockStrided:      "write_block_strided",
	opWriteBlockStridedLocal: "write_block_strided_local",
	opMirrorWrite:            "mirror_write",
	opRedistribute:           "redistribute",
	opRedistSrc:              "redist_src",
	opRedistShip:             "redist_ship",
	opFindLocal:              "find_local",
	opFindInfo:               "find_info",
	opVerifyArray:            "verify_array",
	opCopyLocal:              "copy_local",
	opTree:                   "tree",
	opUpdateMeta:             "update_meta",
}

func (o opCode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", o)
}

// request is one array-manager request in flight. Reply delivery uses a
// definitional-style one-shot channel.
type request struct {
	op    opCode
	id    darray.ID
	spec  *CreateSpec
	meta  *darray.Meta // for create_local / update_meta
	gidx  []int        // copy_local: new borders (via fanout)
	gidxs [][]int      // read/write vector: global index tuples (coordinator)
	offs  []int        // read/write vector: storage offsets (owner)
	lo    []int        // read/write block: rectangle bounds (global at the
	hi    []int        // coordinator, interior-local at the owner)
	step  []int        // strided block ops: per-dimension stride (>= 1)
	vals  []float64    // write data; read: optional caller buffer
	slot  int          // owner ops: the grid slot the payload addresses,
	// set by every coordinator split site so a processor serving several
	// slots after a promotion routes to the right storage (sectionFor)
	which string // find_info selector
	inner opCode // tree fan-out: the control op every node applies
	procs []int  // tree fan-out: the target processors, in tree order
	node  int    // tree fan-out: this request's node index within procs
	// verify parameters
	ndims    int
	borders  BorderSpec
	indexing grid.Indexing
	// redistribution parameters: the coordinator request names the
	// destination array in id and the source in id2, with lo/hi the
	// destination rectangle and lo2 the source origin; redist_src
	// requests carry the per-pair ships and the shared ack channel
	// (acks ride in-process channels like replies, so they cost no
	// messages — see redist.go).
	id2   darray.ID
	lo2   []int
	ships []redistShip
	ack   chan response

	// Recovery identity (resilient.go): seq is the per-request dedup id
	// (0 in reliable mode), call/pair identify one redistribution ship,
	// and src/dst let await retransmit the same request object. Handlers
	// treat requests as read-only, so a retransmitted delivery may alias
	// the original safely.
	seq  uint64
	call uint64
	pair int
	src  int
	dst  int

	// Wire identity (wire.go): origin scopes the dedup window to the
	// issuing processor; replyID / (ackProc, ackID) stand in for the
	// reply and ack channels when a request crosses process boundaries.
	origin  int
	replyID uint64
	ackProc int
	ackID   uint64

	reply chan response
}

type response struct {
	status  Status
	vals    []float64
	section *darray.Section
	info    any
	pair    int // redistribution acks: which ship this acknowledges
}

// New starts an array manager on every processor of the machine (the
// equivalent of the paper's `load("am")` on all processors, §B.3). On a
// partitioned router only the processors hosted by this OS process get
// serve loops — the rest are served by their own parts, reached over
// the wire — but the server table still covers all of them, so
// coordinator code indexes it uniformly.
func New(machine *vp.Machine) *Manager {
	m := &Manager{machine: machine, servers: make([]*server, machine.P())}
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

// serve is one array-manager server loop: it receives requests addressed to
// this processor and services each in its own goroutine (the PCN server
// spawns a process per request, so concurrent requests never deadlock the
// server).
func (m *Manager) serve(proc int) {
	router := m.machine.Router()
	var dedup deduper
	for {
		message, err := router.Recv(proc, func(mm msg.Message) bool {
			if mm.Tag.Class != msg.ClassTask {
				return false
			}
			switch mm.Tag.Kind {
			case kindAMRequest, kindAMShip, kindAMReply:
				return true
			}
			return false
		})
		if err != nil {
			return // router closed (or this processor killed)
		}
		if message.Tag.Kind == kindAMReply {
			// A wire reply or ack addressed to a coordinator on this
			// processor goes straight into the completion table.
			if w, ok := message.Data.(*wireResponse); ok {
				m.deliverReply(w)
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
		// and engages only for requests carrying a recovery id.
		if k, ok := dedupKeyOf(req); ok && dedup.dup(k) {
			continue
		}
		if message.Tag.Kind == kindAMShip {
			// One-way redistribution traffic: no reply channel, so it
			// must not flow through handle's unconditional reply send.
			go m.handleShip(proc, req)
			continue
		}
		go m.handle(proc, req)
	}
}

// sendAsync routes a request to the server on processor dst and returns
// immediately; the server's response is collected with await. Router
// sends never block, so a coordinator can scatter requests to any number
// of owners before gathering a single reply — the async request/reply
// facility behind the concurrent block-transfer coordinators and the
// control fan-out tree. Under a call policy the request is stamped with
// a fresh dedup id and a known-dead destination is refused up front
// (saving a full timeout per tree level when an owner is down).
func (m *Manager) sendAsync(src, dst int, req *request) *request {
	req.reply = make(chan response, 1)
	req.src, req.dst = src, dst
	req.origin = src
	router := m.machine.Router()
	if m.policy.Load() != nil {
		req.seq = m.nextSeq()
		if router.Down(dst) {
			req.reply <- response{status: StatusDown}
			return req
		}
		// A membership view fails known-dead destinations proactively,
		// without waiting for a per-call timeout against a peer the
		// heartbeat already declared dead.
		if mem := m.membership.Load(); mem != nil && mem.State(dst) == msg.StateDead {
			req.reply <- response{status: StatusDown}
			return req
		}
	}
	if !router.Local(dst) {
		// Remote owner: enter the reply channel in the completion table;
		// await unregisters when it has the answer.
		req.replyID = m.register(req.reply)
	}
	if err := router.Send(src, dst, msg.Tag{Class: msg.ClassTask, Kind: kindAMRequest}, req); err != nil {
		req.reply <- response{status: sendStatus(err)}
	}
	return req
}

// send routes a request to the server on processor dst and waits for its
// response.
func (m *Manager) send(src, dst int, req *request) response {
	return m.await(m.sendAsync(src, dst, req))
}

// handle dispatches one request at the server on proc. With tracing at
// Ops level the manager behaves like the paper's am_debug build, emitting
// one trace message per operation (§B.3).
func (m *Manager) handle(proc int, req *request) {
	if trace.Enabled(trace.Ops) {
		trace.Logf(trace.Ops, proc, "am: %s %v", req.op, req.id)
	}
	var resp response
	switch req.op {
	case opCreateArray:
		resp = m.doCreate(proc, req)
	case opCreateLocal:
		resp = m.doCreateLocal(proc, req)
	case opFreeArray:
		resp = m.doFree(proc, req)
	case opFreeLocal:
		resp = m.doFreeLocal(proc, req)
	case opReadVector:
		resp = m.doReadVector(proc, req)
	case opReadVectorLocal:
		resp = m.doReadVectorLocal(proc, req)
	case opWriteVector:
		resp = m.doWriteVector(proc, req)
	case opWriteVectorLocal:
		resp = m.doWriteVectorLocal(proc, req)
	case opReadBlock:
		resp = m.doReadBlock(proc, req)
	case opReadBlockLocal:
		resp = m.doReadBlockLocal(proc, req)
	case opWriteBlock:
		resp = m.doWriteBlock(proc, req)
	case opWriteBlockLocal:
		resp = m.doWriteBlockLocal(proc, req)
	case opReadBlockStrided:
		resp = m.doReadBlockStrided(proc, req)
	case opReadBlockStridedLocal:
		resp = m.doReadBlockStridedLocal(proc, req)
	case opWriteBlockStrided:
		resp = m.doWriteBlockStrided(proc, req)
	case opWriteBlockStridedLocal:
		resp = m.doWriteBlockStridedLocal(proc, req)
	case opMirrorWrite:
		resp = m.doMirrorWrite(proc, req)
	case opRedistribute:
		resp = m.doRedistribute(proc, req)
	case opFindLocal:
		resp = m.doFindLocal(proc, req)
	case opFindInfo:
		resp = m.doFindInfo(proc, req)
	case opVerifyArray:
		resp = m.doVerify(proc, req)
	case opCopyLocal:
		resp = m.doCopyLocal(proc, req)
	case opTree:
		resp = m.doTree(proc, req)
	case opUpdateMeta:
		resp = m.doUpdateMeta(proc, req)
	default:
		resp = response{status: StatusError}
	}
	m.respond(proc, req, resp)
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

func (m *Manager) doCreate(proc int, req *request) response {
	spec := req.spec
	if spec == nil || len(spec.Dims) == 0 || len(spec.Procs) == 0 {
		return response{status: StatusInvalid}
	}
	for _, d := range spec.Dims {
		if d < 1 {
			return response{status: StatusInvalid}
		}
	}
	seen := make(map[int]bool, len(spec.Procs))
	for _, p := range spec.Procs {
		if m.machine.CheckProc(p) != nil || seen[p] {
			return response{status: StatusInvalid}
		}
		seen[p] = true
	}
	if len(spec.Distrib) != len(spec.Dims) {
		return response{status: StatusInvalid}
	}
	gridDims, err := grid.GridDims(len(spec.Procs), spec.Distrib)
	if err != nil {
		return response{status: StatusInvalid}
	}
	dists, err := grid.ResolveDists(spec.Dims, gridDims, spec.Distrib)
	if err != nil {
		return response{status: StatusInvalid}
	}
	// Sections are sized uniformly at the fullest cell's extent; the
	// divide-evenly restriction of the paper's prototype (§3.2.1.1) is
	// gone — trailing blocks may be short or empty.
	localDims, err := grid.StorageDims(spec.Dims, gridDims, dists)
	if err != nil {
		return response{status: StatusInvalid}
	}
	borders, st := m.resolveBorders(spec.Borders, len(spec.Dims))
	if st != StatusOK {
		return response{status: st}
	}
	if !bordersAllowed(borders, spec.Dims, gridDims, dists) {
		return response{status: StatusInvalid}
	}
	plus, err := darray.DimsPlus(localDims, borders)
	if err != nil {
		return response{status: StatusInvalid}
	}
	// Replication needs k distinct buddy slots following each slot, so k
	// must leave at least one non-buddy: 0 <= k < grid size.
	if spec.Replicas < 0 || spec.Replicas >= grid.Size(gridDims) {
		return response{status: StatusInvalid}
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
	// on the creating processor (§5.1.3). The fan-out runs through the
	// combining tree: one message per target, O(log P) round-trip depth.
	targets := map[int]bool{proc: true}
	for _, p := range meta.SectionProcs() {
		targets[p] = true
	}
	if st := m.fanout(proc, opCreateLocal, &request{id: id, meta: meta}, targets); st != StatusOK {
		return response{status: st}
	}
	return response{status: StatusOK, info: id}
}

// fanout delivers one control request (create_local / free_local /
// copy_local, named by op) to every processor in targets through a
// combining tree rooted at proc — the same shape as the dcall wrapper
// merge, run in reverse. Each node services its own copy and forwards to
// at most two children concurrently, so P targets are reached with P-1
// messages in O(log P) sequential round trips instead of P serial ones.
// req supplies the operation's payload (id, meta, borders); statuses
// combine with max on the way back up.
func (m *Manager) fanout(proc int, op opCode, req *request, targets map[int]bool) Status {
	list := make([]int, 0, len(targets))
	// Root the tree at this processor when it is itself a target, so its
	// own copy is serviced by a direct call rather than a message.
	if targets[proc] {
		list = append(list, proc)
	}
	for p := range targets {
		if p != proc {
			list = append(list, p)
		}
	}
	rest := list
	if targets[proc] {
		rest = list[1:]
	}
	sort.Ints(rest)
	treq := &request{op: opTree, inner: op, id: req.id, meta: req.meta, gidx: req.gidx, procs: list, node: 0}
	if list[0] == proc {
		return m.doTree(proc, treq).status
	}
	return m.send(proc, list[0], treq).status
}

// doTree services one node of a control fan-out tree: it forwards the
// request to its (up to two) children so the subtrees proceed
// concurrently, applies the inner operation locally, then merges the
// children's statuses with its own.
func (m *Manager) doTree(proc int, req *request) response {
	// The tree is transport; the inner operation is what am_debug-style
	// tracing reports, one line per processor it runs on.
	if trace.Enabled(trace.Ops) {
		trace.Logf(trace.Ops, proc, "am: %s %v", req.inner, req.id)
	}
	var left, right *request
	if c := 2*req.node + 1; c < len(req.procs) {
		left = m.sendAsync(proc, req.procs[c],
			&request{op: opTree, inner: req.inner, id: req.id, meta: req.meta, gidx: req.gidx, procs: req.procs, node: c})
	}
	if c := 2*req.node + 2; c < len(req.procs) {
		right = m.sendAsync(proc, req.procs[c],
			&request{op: opTree, inner: req.inner, id: req.id, meta: req.meta, gidx: req.gidx, procs: req.procs, node: c})
	}
	local := &request{id: req.id, meta: req.meta, gidx: req.gidx}
	var r response
	switch req.inner {
	case opCreateLocal:
		r = m.doCreateLocal(proc, local)
	case opFreeLocal:
		r = m.doFreeLocal(proc, local)
	case opCopyLocal:
		r = m.doCopyLocal(proc, local)
	default:
		r = response{status: StatusError}
	}
	st := r.status
	if req.inner == opFreeLocal && st == StatusNotFound {
		st = StatusOK // freeing is idempotent per target (§5.1.3)
	}
	for _, c := range []*request{left, right} {
		if c == nil {
			continue
		}
		if cr := m.await(c); cr.status > st {
			st = cr.status
		}
	}
	return response{status: st}
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

func (m *Manager) doFree(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	targets := map[int]bool{proc: true, req.id.Proc: true}
	for _, p := range e.meta.SectionProcs() {
		targets[p] = true
	}
	// Tree fan-out; a target that already lost its entry reports
	// STATUS_NOT_FOUND, normalized to OK at the node (freeing is
	// idempotent).
	return response{status: m.fanout(proc, opFreeLocal, &request{id: req.id}, targets)}
}

func (m *Manager) doFreeLocal(proc int, req *request) response {
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e, ok := srv.entries[req.id]
	if !ok || e.freed {
		return response{status: StatusNotFound}
	}
	e.freed = true
	e.section = nil // release the storage (the paper's explicit free)
	e.replicas = nil
	return response{status: StatusOK}
}

// doReadVector is the indexed-gather coordinator: it splits the request's
// global index tuples by owning processor (darray.Meta.OwnerIndices),
// scatters one read_vector_local request to every remote owner before
// waiting on any reply, services its own set while the remote owners work,
// then gathers the replies and scatters the values into the result vector
// by request position. A k-element gather across P owners costs one
// request/reply pair per owner, never one per element. If the request
// carries a caller-supplied buffer, values land straight in it.
func (m *Manager) doReadVector(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	sets, err := e.meta.OwnerIndices(req.gidxs)
	if err != nil {
		return response{status: StatusInvalid}
	}
	out := req.vals
	if out != nil && len(out) != len(req.gidxs) {
		return response{status: StatusInvalid}
	}
	if out == nil {
		out = make([]float64, len(req.gidxs))
	}
	if st := m.readSets(proc, req.id, sets, out); st != StatusOK {
		return response{status: st}
	}
	return response{status: StatusOK, vals: out}
}

// readSets drives the gather half of the offset-set transfer: one
// concurrent read_vector_local request per remote owner in sets (all
// scattered before any reply is awaited), the local set serviced in place,
// and each reply's values placed at their request positions in out. It is
// shared by the indexed coordinators and by the rectangle coordinators of
// irregular (cyclic/block-cyclic) arrays, whose owner shares are offset
// sets rather than rectangles.
func (m *Manager) readSets(proc int, id darray.ID, sets []darray.OwnerIndexSet, out []float64) Status {
	replies := make([]*request, len(sets))
	for i, s := range sets {
		if s.Proc == proc {
			continue
		}
		replies[i] = m.sendAsync(proc, s.Proc,
			&request{op: opReadVectorLocal, id: id, offs: s.Offs, slot: s.Slot})
	}
	status := StatusOK
	// scatter places one owner's reply values at their request positions
	// and returns the pooled reply buffer to the owner's server.
	scatter := func(i int, r response) {
		if r.status != StatusOK {
			status = r.status
			return
		}
		for j, p := range sets[i].Pos {
			out[p] = r.vals[j]
		}
		m.recycle(sets[i].Proc, r.vals)
	}
	for i, s := range sets {
		if replies[i] != nil {
			continue
		}
		scatter(i, m.doReadVectorLocal(proc, &request{id: id, offs: s.Offs, slot: s.Slot}))
	}
	for i := range sets {
		if replies[i] == nil {
			continue
		}
		scatter(i, m.await(replies[i]))
	}
	return status
}

// doReadVectorLocal services one owner's share of an indexed gather: the
// requested storage offsets are read into a pooled reply buffer — zero
// allocations per request at a steady state. Ownership of the buffer
// passes to the coordinator, which returns it via putBuf after unpacking.
func (m *Manager) doReadVectorLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		return response{status: StatusError}
	}
	vals := srv.getBuf(len(req.offs))
	if err := sec.GatherInto(vals, req.offs); err != nil {
		srv.putBuf(vals)
		return response{status: StatusError}
	}
	return response{status: StatusOK, vals: vals}
}

// doWriteVector is the indexed-scatter coordinator: it splits the request
// by owning processor and sends each remote owner one write_vector_local
// request carrying that owner's offsets and values, all posted before any
// reply is awaited. Offsets within an owner's set preserve request order,
// so a global index repeated in one request takes the value at its last
// occurrence (last writer wins), exactly as a sequential loop of
// write_element calls would leave it.
func (m *Manager) doWriteVector(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	if len(req.vals) != len(req.gidxs) {
		return response{status: StatusInvalid}
	}
	sets, err := e.meta.OwnerIndices(req.gidxs)
	if err != nil {
		return response{status: StatusInvalid}
	}
	return response{status: m.writeSets(proc, req.id, sets, req.vals)}
}

// writeSets drives the scatter half of the offset-set transfer: each
// remote owner in sets receives one write_vector_local request carrying
// its offsets and a fresh snapshot of its values (messages between address
// spaces carry copies, never views), all posted before any reply is
// awaited; the local set is written in place and the statuses gathered.
// Offsets within a set preserve request order, so repeated positions keep
// last-writer-wins semantics. Shared by the indexed coordinators and the
// irregular rectangle coordinators.
func (m *Manager) writeSets(proc int, id darray.ID, sets []darray.OwnerIndexSet, vals []float64) Status {
	// pack builds one owner's value vector in set order.
	pack := func(s darray.OwnerIndexSet) []float64 {
		out := make([]float64, len(s.Pos))
		for j, p := range s.Pos {
			out[j] = vals[p]
		}
		return out
	}
	replies := make([]*request, len(sets))
	for i, s := range sets {
		if s.Proc == proc {
			continue
		}
		replies[i] = m.sendAsync(proc, s.Proc,
			&request{op: opWriteVectorLocal, id: id, offs: s.Offs, vals: pack(s), slot: s.Slot})
	}
	status := StatusOK
	// Service every local set: after a failover promotion one processor
	// can own several slots, so "local" is not necessarily unique.
	for i, s := range sets {
		if replies[i] != nil {
			continue
		}
		if r := m.doWriteVectorLocal(proc, &request{id: id, offs: s.Offs, vals: pack(s), slot: s.Slot}); r.status != StatusOK {
			status = r.status
		}
	}
	for i := range sets {
		if replies[i] == nil {
			continue
		}
		if r := m.await(replies[i]); r.status != StatusOK {
			status = r.status
		}
	}
	return status
}

// readLattice is the rectangle-read coordinator for irregular
// (cyclic/block-cyclic) arrays: a cell's share of the (lo, hi, step)
// lattice — dense when step is nil — is not a rectangle, so the transfer
// cannot ride the owner-block split. When every owner share is a
// per-dimension arithmetic progression (pure-cyclic and block
// dimensions), the request travels as bounds+step descriptors
// (StridedShares, O(ndims) payload per owner); block-cyclic shares fall
// back to materialized offset sets served by the indexed-gather owner
// routine. Either way it is one request per owner, with values landing
// at their packed lattice positions in the dense result buffer.
func (m *Manager) readLattice(proc int, meta *darray.Meta, req *request, step []int) response {
	shares, descriptors, err := meta.StridedShares(req.lo, req.hi, step)
	if err != nil {
		return response{status: StatusInvalid}
	}
	size := grid.RectSize(req.lo, req.hi)
	sdims := grid.RectDims(req.lo, req.hi)
	if step != nil {
		size = grid.StridedRectSize(req.lo, req.hi, step)
		sdims = grid.StridedRectDims(req.lo, req.hi, step)
	}
	out := req.vals
	if out != nil && len(out) != size {
		return response{status: StatusInvalid}
	}
	if out == nil {
		out = make([]float64, size)
	}
	var st Status
	if descriptors {
		st = m.readShares(proc, req.id, shares, sdims, out)
	} else {
		sets, err := meta.OwnerLattice(req.lo, req.hi, step)
		if err != nil {
			return response{status: StatusInvalid}
		}
		st = m.readSets(proc, req.id, sets, out)
	}
	if st != StatusOK {
		return response{status: st}
	}
	return response{status: StatusOK, vals: out}
}

// writeLattice is readLattice's write-side companion, with the same
// descriptor-first split.
func (m *Manager) writeLattice(proc int, meta *darray.Meta, req *request, step []int) response {
	shares, descriptors, err := meta.StridedShares(req.lo, req.hi, step)
	if err != nil {
		return response{status: StatusInvalid}
	}
	size := grid.RectSize(req.lo, req.hi)
	sdims := grid.RectDims(req.lo, req.hi)
	if step != nil {
		size = grid.StridedRectSize(req.lo, req.hi, step)
		sdims = grid.StridedRectDims(req.lo, req.hi, step)
	}
	if len(req.vals) != size {
		return response{status: StatusInvalid}
	}
	if descriptors {
		return response{status: m.writeShares(proc, req.id, shares, sdims, req.vals)}
	}
	sets, err := meta.OwnerLattice(req.lo, req.hi, step)
	if err != nil {
		return response{status: StatusInvalid}
	}
	return response{status: m.writeSets(proc, req.id, sets, req.vals)}
}

// doWriteVectorLocal services one owner's share of an indexed scatter,
// applying the values in request order (last writer wins for repeats).
func (m *Manager) doWriteVectorLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		srv.mu.Unlock()
		return response{status: StatusError}
	}
	err := sec.ScatterFrom(req.vals, req.offs)
	meta := e.meta
	srv.mu.Unlock()
	if err != nil {
		return response{status: StatusError}
	}
	return response{status: m.mirrorWrite(proc, meta, req)}
}

// copyRuns moves the dense data of owner block b between full (the buffer
// covering the whole request rectangle [lo, lo+rectDims)) and sub (the
// buffer covering just b), in the direction selected by toFull. Both
// buffers are row-major, so runs along the last dimension are contiguous
// in each and move with copy.
func copyRuns(toFull bool, full, sub []float64, b darray.OwnerBlock, lo, rectDims []int) {
	last := len(rectDims) - 1
	run := b.GlobalHi[last] - b.GlobalLo[last]
	_ = grid.ForEachRect(b.GlobalLo[:last], b.GlobalHi[:last], func(outer []int, k int) error {
		pos := 0
		for i, x := range outer {
			pos = pos*rectDims[i] + (x - lo[i])
		}
		pos = pos*rectDims[last] + (b.GlobalLo[last] - lo[last])
		if toFull {
			copy(full[pos:pos+run], sub[k*run:(k+1)*run])
		} else {
			copy(sub[k*run:(k+1)*run], full[pos:pos+run])
		}
		return nil
	})
}

// doReadBlock is the bulk-read coordinator: it splits the global rectangle
// [lo, hi) by owning processor, scatters one read_block_local request to
// every remote owner before waiting on any reply, services its own piece
// while the remote owners work, then gathers the replies and assembles the
// sub-blocks into one dense row-major buffer. Latency is one round trip to
// the slowest owner, not the sum over owners. If the request carries a
// caller-supplied buffer (ReadBlockInto), the rectangle is assembled
// straight into it.
func (m *Manager) doReadBlock(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	if !e.meta.Regular() {
		return m.readLattice(proc, e.meta, req, nil)
	}
	blocks, err := e.meta.OwnerBlocks(req.lo, req.hi)
	if err != nil {
		return response{status: StatusInvalid}
	}
	rectDims := grid.RectDims(req.lo, req.hi)
	out := req.vals
	if out != nil && len(out) != grid.RectSize(req.lo, req.hi) {
		return response{status: StatusInvalid}
	}
	if out == nil {
		out = make([]float64, grid.RectSize(req.lo, req.hi))
	}
	// Scatter: post every remote request up front (sends never block).
	replies := make([]*request, len(blocks))
	for i, b := range blocks {
		if b.Proc == proc {
			continue
		}
		replies[i] = m.sendAsync(proc, b.Proc,
			&request{op: opReadBlockLocal, id: req.id, lo: b.LocalLo, hi: b.LocalHi, slot: b.Slot})
	}
	// Service the local piece while the remote owners work.
	status := StatusOK
	for i, b := range blocks {
		if replies[i] != nil {
			continue
		}
		r := m.doReadBlockLocal(proc, &request{id: req.id, lo: b.LocalLo, hi: b.LocalHi, slot: b.Slot})
		if r.status != StatusOK {
			status = r.status
			continue
		}
		copyRuns(true, out, r.vals, b, req.lo, rectDims)
		m.recycle(b.Proc, r.vals)
	}
	// Gather: drain every reply even after a failure, so no owner's
	// response is left dangling.
	for i, b := range blocks {
		if replies[i] == nil {
			continue
		}
		r := m.await(replies[i])
		if r.status != StatusOK {
			status = r.status
			continue
		}
		copyRuns(true, out, r.vals, b, req.lo, rectDims)
		m.recycle(b.Proc, r.vals)
	}
	if status != StatusOK {
		return response{status: status}
	}
	return response{status: StatusOK, vals: out}
}

// doReadBlockLocal services one owner's share of a bulk read into a pooled
// reply buffer — zero allocations per request at a steady state. Ownership
// of the buffer passes to the coordinator, which returns it via putBuf
// after assembling the rectangle.
func (m *Manager) doReadBlockLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		return response{status: StatusError}
	}
	if grid.CheckRect(req.lo, req.hi, e.meta.LocalDims) != nil {
		return response{status: StatusInvalid}
	}
	vals := srv.getBuf(grid.RectSize(req.lo, req.hi))
	if err := sec.ReadBlockInto(vals, req.lo, req.hi, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing); err != nil {
		srv.putBuf(vals)
		return response{status: StatusInvalid}
	}
	return response{status: StatusOK, vals: vals}
}

// doWriteBlock is the bulk-write coordinator: it splits the dense
// row-major buffer into per-owner sub-blocks, scatters one
// write_block_local request to every remote owner before waiting on any
// reply, writes its own piece while they work, then gathers the statuses.
func (m *Manager) doWriteBlock(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	if !e.meta.Regular() {
		return m.writeLattice(proc, e.meta, req, nil)
	}
	blocks, err := e.meta.OwnerBlocks(req.lo, req.hi)
	if err != nil {
		return response{status: StatusInvalid}
	}
	rectDims := grid.RectDims(req.lo, req.hi)
	if len(req.vals) != grid.RectSize(req.lo, req.hi) {
		return response{status: StatusInvalid}
	}
	replies := make([]*request, len(blocks))
	for i, b := range blocks {
		if b.Proc == proc {
			continue
		}
		// Each remote owner gets its own dense snapshot of its piece —
		// messages between address spaces carry copies, never views.
		vals := make([]float64, grid.RectSize(b.GlobalLo, b.GlobalHi))
		copyRuns(false, req.vals, vals, b, req.lo, rectDims)
		replies[i] = m.sendAsync(proc, b.Proc,
			&request{op: opWriteBlockLocal, id: req.id, lo: b.LocalLo, hi: b.LocalHi, vals: vals, slot: b.Slot})
	}
	status := StatusOK
	// Service every local block: after a failover promotion one processor
	// can own several slots, so "local" is not necessarily unique.
	for i, b := range blocks {
		if replies[i] != nil {
			continue
		}
		vals := make([]float64, grid.RectSize(b.GlobalLo, b.GlobalHi))
		copyRuns(false, req.vals, vals, b, req.lo, rectDims)
		r := m.doWriteBlockLocal(proc, &request{id: req.id, lo: b.LocalLo, hi: b.LocalHi, vals: vals, slot: b.Slot})
		if r.status != StatusOK {
			status = r.status
		}
	}
	for i := range blocks {
		if replies[i] == nil {
			continue
		}
		if r := m.await(replies[i]); r.status != StatusOK {
			status = r.status
		}
	}
	return response{status: status}
}

func (m *Manager) doWriteBlockLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		srv.mu.Unlock()
		return response{status: StatusError}
	}
	err := sec.WriteBlock(req.vals, req.lo, req.hi, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing)
	meta := e.meta
	srv.mu.Unlock()
	if err != nil {
		return response{status: StatusInvalid}
	}
	return response{status: m.mirrorWrite(proc, meta, req)}
}

// copyRunsStrided is copyRuns for a strided transfer: it moves owner block
// b's lattice points between full (the packed buffer covering the whole
// request lattice, sdims = StridedRectDims(lo, hi, step)) and sub (the
// packed buffer covering just b). Both buffers pack the lattice row-major,
// so runs along the last dimension are contiguous in each and move with
// copy regardless of the stride.
func copyRunsStrided(toFull bool, full, sub []float64, b darray.OwnerBlock, lo, step, sdims []int) {
	last := len(sdims) - 1
	run := (b.GlobalHi[last] - b.GlobalLo[last] + step[last] - 1) / step[last]
	_ = grid.ForEachStridedRect(b.GlobalLo[:last], b.GlobalHi[:last], step[:last], func(outer []int, k int) error {
		pos := 0
		for i, x := range outer {
			pos = pos*sdims[i] + (x-lo[i])/step[i]
		}
		pos = pos*sdims[last] + (b.GlobalLo[last]-lo[last])/step[last]
		if toFull {
			copy(full[pos:pos+run], sub[k*run:(k+1)*run])
		} else {
			copy(sub[k*run:(k+1)*run], full[pos:pos+run])
		}
		return nil
	})
}

// doReadBlockStrided is the strided bulk-read coordinator: the lattice of
// every step[i]-th element of [lo, hi) is split by owning processor
// (darray.Meta.OwnerBlocksStrided), one read_block_strided_local request is
// scattered to every remote owner before any reply is awaited (the same
// sendAsync machinery as the dense coordinator), the local piece is
// serviced in place, and the replies are assembled into one packed
// row-major lattice buffer. Every-k-th-row access costs one request/reply
// pair per owner, never one offset per element.
func (m *Manager) doReadBlockStrided(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	if !e.meta.Regular() {
		return m.readLattice(proc, e.meta, req, req.step)
	}
	blocks, err := e.meta.OwnerBlocksStrided(req.lo, req.hi, req.step)
	if err != nil {
		return response{status: StatusInvalid}
	}
	sdims := grid.StridedRectDims(req.lo, req.hi, req.step)
	out := req.vals
	if out != nil && len(out) != grid.StridedRectSize(req.lo, req.hi, req.step) {
		return response{status: StatusInvalid}
	}
	if out == nil {
		out = make([]float64, grid.StridedRectSize(req.lo, req.hi, req.step))
	}
	replies := make([]*request, len(blocks))
	for i, b := range blocks {
		if b.Proc == proc {
			continue
		}
		replies[i] = m.sendAsync(proc, b.Proc,
			&request{op: opReadBlockStridedLocal, id: req.id, lo: b.LocalLo, hi: b.LocalHi, step: req.step, slot: b.Slot})
	}
	status := StatusOK
	for i, b := range blocks {
		if replies[i] != nil {
			continue
		}
		r := m.doReadBlockStridedLocal(proc, &request{id: req.id, lo: b.LocalLo, hi: b.LocalHi, step: req.step, slot: b.Slot})
		if r.status != StatusOK {
			status = r.status
			continue
		}
		copyRunsStrided(true, out, r.vals, b, req.lo, req.step, sdims)
		m.recycle(b.Proc, r.vals)
	}
	for i, b := range blocks {
		if replies[i] == nil {
			continue
		}
		r := m.await(replies[i])
		if r.status != StatusOK {
			status = r.status
			continue
		}
		copyRunsStrided(true, out, r.vals, b, req.lo, req.step, sdims)
		m.recycle(b.Proc, r.vals)
	}
	if status != StatusOK {
		return response{status: status}
	}
	return response{status: StatusOK, vals: out}
}

// doReadBlockStridedLocal services one owner's share of a strided bulk
// read into a pooled reply buffer — zero allocations per request at a
// steady state, exactly like the dense owner server it mirrors.
func (m *Manager) doReadBlockStridedLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		return response{status: StatusError}
	}
	if grid.CheckStridedRect(req.lo, req.hi, req.step, e.meta.LocalDims) != nil {
		return response{status: StatusInvalid}
	}
	vals := srv.getBuf(grid.StridedRectSize(req.lo, req.hi, req.step))
	if err := sec.ReadBlockStridedInto(vals, req.lo, req.hi, req.step, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing); err != nil {
		srv.putBuf(vals)
		return response{status: StatusInvalid}
	}
	return response{status: StatusOK, vals: vals}
}

// doWriteBlockStrided is the strided bulk-write coordinator: the packed
// lattice buffer is split into per-owner sub-buffers, one
// write_block_strided_local request is scattered to every remote owner
// before any reply is awaited, the local piece is written in place, and the
// statuses are gathered.
func (m *Manager) doWriteBlockStrided(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	if !e.meta.Regular() {
		return m.writeLattice(proc, e.meta, req, req.step)
	}
	blocks, err := e.meta.OwnerBlocksStrided(req.lo, req.hi, req.step)
	if err != nil {
		return response{status: StatusInvalid}
	}
	sdims := grid.StridedRectDims(req.lo, req.hi, req.step)
	if len(req.vals) != grid.StridedRectSize(req.lo, req.hi, req.step) {
		return response{status: StatusInvalid}
	}
	replies := make([]*request, len(blocks))
	for i, b := range blocks {
		if b.Proc == proc {
			continue
		}
		// Each remote owner gets its own packed snapshot of its piece —
		// messages between address spaces carry copies, never views.
		vals := make([]float64, grid.StridedRectSize(b.GlobalLo, b.GlobalHi, req.step))
		copyRunsStrided(false, req.vals, vals, b, req.lo, req.step, sdims)
		replies[i] = m.sendAsync(proc, b.Proc,
			&request{op: opWriteBlockStridedLocal, id: req.id, lo: b.LocalLo, hi: b.LocalHi, step: req.step, vals: vals, slot: b.Slot})
	}
	status := StatusOK
	// Service every local block: after a failover promotion one processor
	// can own several slots, so "local" is not necessarily unique.
	for i, b := range blocks {
		if replies[i] != nil {
			continue
		}
		vals := make([]float64, grid.StridedRectSize(b.GlobalLo, b.GlobalHi, req.step))
		copyRunsStrided(false, req.vals, vals, b, req.lo, req.step, sdims)
		r := m.doWriteBlockStridedLocal(proc, &request{id: req.id, lo: b.LocalLo, hi: b.LocalHi, step: req.step, vals: vals, slot: b.Slot})
		if r.status != StatusOK {
			status = r.status
		}
	}
	for i := range blocks {
		if replies[i] == nil {
			continue
		}
		if r := m.await(replies[i]); r.status != StatusOK {
			status = r.status
		}
	}
	return response{status: status}
}

func (m *Manager) doWriteBlockStridedLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	sec := e.sectionFor(req.slot)
	if sec == nil {
		srv.mu.Unlock()
		return response{status: StatusError}
	}
	err := sec.WriteBlockStrided(req.vals, req.lo, req.hi, req.step, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing)
	meta := e.meta
	srv.mu.Unlock()
	if err != nil {
		return response{status: StatusInvalid}
	}
	return response{status: m.mirrorWrite(proc, meta, req)}
}

func (m *Manager) doFindLocal(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	srv := m.servers[proc]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if e.section == nil {
		// find_local requires a local view: only processors holding a
		// section may ask (§5.1.4).
		return response{status: StatusNotFound}
	}
	return response{status: StatusOK, section: e.section}
}

func (m *Manager) doFindInfo(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	meta := e.meta
	var out any
	switch req.which {
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
		return response{status: StatusInvalid}
	}
	return response{status: StatusOK, info: out}
}

func (m *Manager) doVerify(proc int, req *request) response {
	e, st := m.lookup(proc, req.id)
	if st != StatusOK {
		return response{status: st}
	}
	meta := e.meta
	if req.ndims != meta.NDims() {
		return response{status: StatusInvalid}
	}
	if req.indexing != meta.Indexing {
		// The indexing type cannot be corrected by reallocation; a
		// mismatch is an invalid request (§4.2.7's third example).
		return response{status: StatusInvalid}
	}
	expected, bst := m.resolveBorders(req.borders, meta.NDims())
	if bst != StatusOK {
		return response{status: bst}
	}
	// Verification may not retrofit borders onto a layout that could not
	// have been created with them (the same block-only contract as
	// create_array).
	if !bordersAllowed(expected, meta.Dims, meta.GridDims, meta.ResolvedDists()) {
		return response{status: StatusInvalid}
	}
	if darray.EqualInts(expected, meta.Borders) {
		return response{status: StatusOK}
	}
	// Mismatch: reallocate every local section with the expected borders,
	// copying interior data, and update metadata everywhere an entry
	// exists (section holders + creator + this coordinator). The
	// reallocation fans out through the combining tree like create/free.
	targets := map[int]bool{proc: true, req.id.Proc: true}
	for _, p := range meta.SectionProcs() {
		targets[p] = true
	}
	return response{status: m.fanout(proc, opCopyLocal, &request{id: req.id, gidx: expected}, targets)}
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
	if m.machine.CheckProc(onProc) != nil {
		return darray.ID{}, StatusInvalid
	}
	r := m.send(onProc, onProc, &request{op: opCreateArray, spec: &spec})
	if r.status != StatusOK {
		return darray.ID{}, r.status
	}
	return r.info.(darray.ID), StatusOK
}

// FreeArray deletes the array and frees all its local sections.
func (m *Manager) FreeArray(onProc int, id darray.ID) Status {
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	return m.send(onProc, onProc, &request{op: opFreeArray, id: id}).status
}

// GatherElements reads the elements at the given global index tuples,
// returning their values in request order. The transfer is split by owning
// processor: one concurrent request per owner, however many elements each
// owner holds — the indexed companion of ReadBlock for access patterns
// with no rectangular structure.
func (m *Manager) GatherElements(onProc int, id darray.ID, indices [][]int) ([]float64, Status) {
	if m.machine.CheckProc(onProc) != nil {
		return nil, StatusInvalid
	}
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
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	if st, ok := m.localVectorFast(onProc, id, indices, true, dst); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opReadVector, id: id, gidxs: indices, vals: dst}
	}).status
}

// ScatterElements writes vals[i] to the element at indices[i], split by
// owning processor into one concurrent request per owner. A repeated index
// takes the value at its last occurrence in the request (last writer
// wins). vals is never retained; remote owners receive their own
// snapshots.
func (m *Manager) ScatterElements(onProc int, id darray.ID, indices [][]int, vals []float64) Status {
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	if len(indices) == len(vals) {
		if st, ok := m.localVectorFast(onProc, id, indices, false, vals); ok {
			return st
		}
	}
	return m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opWriteVector, id: id, gidxs: indices, vals: vals}
	}).status
}

// ReadElement reads one element by its global indices — the k=1 degenerate
// case of GatherElements. The one-element request vectors come from a
// scratch pool and a wholly-local element takes the router-free fast path,
// so local element reads allocate nothing.
func (m *Manager) ReadElement(onProc int, id darray.ID, indices []int) (float64, Status) {
	if m.machine.CheckProc(onProc) != nil {
		return 0, StatusInvalid
	}
	s := elemScratchPool.Get().(*elemScratch)
	s.idx[0] = indices
	s.val[0] = 0 // failed reads report 0, not a stale pooled value
	st, ok := m.localVectorFast(onProc, id, s.gidxs, true, s.val[:])
	if !ok {
		st = m.sendData(onProc, []darray.ID{id}, func() *request {
			return &request{op: opReadVector, id: id, gidxs: s.gidxs, vals: s.val[:]}
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
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	s := elemScratchPool.Get().(*elemScratch)
	s.idx[0] = indices
	s.val[0] = v
	st, ok := m.localVectorFast(onProc, id, s.gidxs, false, s.val[:])
	if !ok {
		st = m.sendData(onProc, []darray.ID{id}, func() *request {
			return &request{op: opWriteVector, id: id, gidxs: s.gidxs, vals: s.val[:]}
		}).status
	}
	s.idx[0] = nil
	elemScratchPool.Put(s)
	return st
}

// localBlockFast attempts the zero-copy local fast path: when the whole
// rectangle [lo, hi) — dense for step == nil, else the (lo, hi, step)
// lattice — lies on processor proc, the data moves directly between buf
// and the local section's storage under the server lock — no router
// message, no request goroutine, no intermediate buffer, and (for
// rectangles of at most darray.MaxFastDims dimensions) no heap allocation.
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
	if n > darray.MaxFastDims || len(lo) != n || len(hi) != n {
		return StatusOK, false
	}
	hiUse := hi
	var hiEff [darray.MaxFastDims]int
	if step == nil {
		if grid.CheckRect(lo, hi, e.meta.Dims) != nil {
			return StatusOK, false
		}
		if len(buf) != grid.RectSize(lo, hi) {
			return StatusOK, false
		}
	} else {
		if len(step) != n || grid.CheckStridedRect(lo, hi, step, e.meta.Dims) != nil {
			return StatusOK, false
		}
		if len(buf) != grid.StridedRectSize(lo, hi, step) {
			return StatusOK, false
		}
		// Locality is decided by the lattice's bounding box, not the
		// requested hi: clamp each bound to just past the last lattice
		// point so a stride overshooting the section edge still qualifies.
		for i := 0; i < n; i++ {
			hiEff[i] = lo[i] + ((hi[i]-1-lo[i])/step[i])*step[i] + 1
		}
		hiUse = hiEff[:n]
	}
	var loBuf, hiBuf [darray.MaxFastDims]int
	if !e.meta.LocalRect(proc, lo, hiUse, loBuf[:n], hiBuf[:n]) {
		return StatusOK, false
	}
	var err error
	switch {
	case step == nil && read:
		err = e.section.ReadBlockInto(buf, loBuf[:n], hiBuf[:n], e.meta.LocalDims, e.meta.Borders, e.meta.Indexing)
	case step == nil:
		err = e.section.WriteBlock(buf, loBuf[:n], hiBuf[:n], e.meta.LocalDims, e.meta.Borders, e.meta.Indexing)
	case read:
		err = e.section.ReadBlockStridedInto(buf, loBuf[:n], hiBuf[:n], step, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing)
	default:
		err = e.section.WriteBlockStrided(buf, loBuf[:n], hiBuf[:n], step, e.meta.LocalDims, e.meta.Borders, e.meta.Indexing)
	}
	if err != nil {
		return StatusInvalid, true
	}
	return StatusOK, true
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

// ReadBlock reads the global rectangle [lo, hi) (half-open per dimension)
// into a dense buffer linearized row-major over the rectangle. The
// transfer is split by owning processor: the coordinator scatters one
// message per remote owner concurrently, regardless of the rectangle's
// element count, and gathers the replies.
func (m *Manager) ReadBlock(onProc int, id darray.ID, lo, hi []int) ([]float64, Status) {
	if m.machine.CheckProc(onProc) != nil {
		return nil, StatusInvalid
	}
	r := m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opReadBlock, id: id, lo: lo, hi: hi}
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
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, nil, true, dst); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opReadBlock, id: id, lo: lo, hi: hi, vals: dst}
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
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, nil, false, vals); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opWriteBlock, id: id, lo: lo, hi: hi, vals: vals}
	}).status
}

// unitStep reports whether every stride is 1 — the degenerate case the
// strided entry points hand to the dense path.
func unitStep(step []int) bool {
	for _, s := range step {
		if s != 1 {
			return false
		}
	}
	return true
}

// ReadBlockStrided reads the lattice of every step[i]-th element of the
// global rectangle [lo, hi) into a dense buffer packed row-major over the
// lattice. Like ReadBlock, the transfer is split by owning processor — one
// concurrent request per owner holding a lattice point, however many
// rows/columns the stride selects — so every-k-th-row access costs
// O(#owners) messages instead of an index vector with one offset per
// element. A unit step in every dimension delegates to the dense path.
func (m *Manager) ReadBlockStrided(onProc int, id darray.ID, lo, hi, step []int) ([]float64, Status) {
	if m.machine.CheckProc(onProc) != nil {
		return nil, StatusInvalid
	}
	if len(step) == len(lo) && unitStep(step) {
		return m.ReadBlock(onProc, id, lo, hi)
	}
	r := m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opReadBlockStrided, id: id, lo: lo, hi: hi, step: step}
	})
	return r.vals, r.status
}

// ReadBlockStridedInto is the buffer-reuse variant of ReadBlockStrided:
// dst must hold exactly the lattice's point count and receives the packed
// data in place. A wholly-local lattice is copied straight out of section
// storage with no message and zero heap allocations (up to
// darray.MaxFastDims dimensions); dst is owned by the caller throughout.
func (m *Manager) ReadBlockStridedInto(onProc int, id darray.ID, lo, hi, step []int, dst []float64) Status {
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	if len(step) == len(lo) && unitStep(step) {
		return m.ReadBlockInto(onProc, id, lo, hi, dst)
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, step, true, dst); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opReadBlockStrided, id: id, lo: lo, hi: hi, step: step, vals: dst}
	}).status
}

// WriteBlockStrided writes a dense buffer packed row-major over the
// lattice onto every step[i]-th element of the global rectangle [lo, hi):
// straight into section storage when the lattice is wholly local, one
// concurrent message per remote owning processor otherwise. Elements off
// the lattice are untouched; vals is never retained. A unit step in every
// dimension delegates to the dense path.
func (m *Manager) WriteBlockStrided(onProc int, id darray.ID, lo, hi, step []int, vals []float64) Status {
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	if len(step) == len(lo) && unitStep(step) {
		return m.WriteBlock(onProc, id, lo, hi, vals)
	}
	if st, ok := m.localBlockFast(onProc, id, lo, hi, step, false, vals); ok {
		return st
	}
	return m.sendData(onProc, []darray.ID{id}, func() *request {
		return &request{op: opWriteBlockStrided, id: id, lo: lo, hi: hi, step: step, vals: vals}
	}).status
}

// FindLocal returns the local section of the array on onProc in a form
// suitable for passing to a data-parallel program. Only processors holding
// a section may call it.
func (m *Manager) FindLocal(onProc int, id darray.ID) (*darray.Section, Status) {
	if m.machine.CheckProc(onProc) != nil {
		return nil, StatusInvalid
	}
	r := m.send(onProc, onProc, &request{op: opFindLocal, id: id})
	return r.section, r.status
}

// FindInfo returns information about the array; which is one of the §4.2.6
// selector strings ("type", "dimensions", "processors", "grid_dimensions",
// "local_dimensions", "borders", "local_dimensions_plus", "indexing_type",
// "grid_indexing_type"), "distribution" for the per-dimension
// distributions ([]grid.Dist), or "meta" for the full metadata.
func (m *Manager) FindInfo(onProc int, id darray.ID, which string) (any, Status) {
	if m.machine.CheckProc(onProc) != nil {
		return nil, StatusInvalid
	}
	r := m.send(onProc, onProc, &request{op: opFindInfo, id: id, which: which})
	return r.info, r.status
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
	if m.machine.CheckProc(onProc) != nil {
		return StatusInvalid
	}
	return m.send(onProc, onProc, &request{
		op: opVerifyArray, id: id, ndims: ndims, borders: borders, indexing: indexing,
	}).status
}
