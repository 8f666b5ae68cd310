// Package net implements msg.Transport over TCP: the wire that turns
// the single-process machine into a set of cooperating OS processes
// ("parts"), each hosting a contiguous slice of the P virtual
// processors.
//
// # Topology
//
// Bootstrap is a star: part 0 listens, every other part dials it, and
// the star is then upgraded to a mesh. Each worker opens its
// own mesh listening socket before dialing part 0 and advertises the
// bound address in its hello; once every worker has said hello, part 0
// publishes the directory (rank -> mesh address) to all workers, and
// each worker dials every lower-ranked worker directly (higher dials
// lower, so each pair establishes exactly one connection). A worker
// reports mesh-ready to part 0 after all its outgoing dials have
// resolved — succeeded or refused — and part 0's WaitPeers returns only
// after every hello AND every mesh-ready, so all direct links exist
// before traffic starts.
//
// Worker pairs whose direct link is missing (dial refused, or an
// unreachable advertised address) fall back to the star relay through
// part 0. Routes are sticky: the first send to a
// part latches direct-or-relay for that destination, so every frame of
// a (src, dst) pair follows one path forever and delivery stays FIFO —
// TCP neither drops nor duplicates, and a single path cannot reorder.
//
// # Framing and encoding
//
// Every frame is `uvarint body length | body`, body[0] the frame kind.
// Message payloads are encoded by internal/msg/wire: a typed binary
// fast path for the dominant shapes ([]float64 slabs, offset vectors)
// and a registered wire.Codec for every protocol struct (the array
// manager's requests, replies and metadata; the distributed call's
// spawn orders and result tuples). Gob remains the self-describing
// fallback for user-defined types only — a distributed call's constant
// of the caller's own type, which must be gob.Register'd in both
// processes. Since every part runs the same binary, package init-time
// registration keeps the two sides agreeing by construction.
//
// Send encodes the payload synchronously before returning, which is the
// deep-copy-at-the-seam contract of msg.Transport: the caller may
// recycle a pooled buffer the moment Send returns, and the receiver
// still sees the pre-mutation bytes. The frame comes from the pool's
// size class that holds the whole encoding (wire.SizeAny), so the encode
// never regrows it, and that one encode is the only copy — ownership of
// the encoded frame passes to the connection's writer goroutine, which
// coalesces all queued frames into one flush per wakeup, turning N
// syscalls under load into ~1.
//
// Latency and loss are real, not modeled — the fault plane and
// SetLatency stay in-process tools.
package net

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/msg/wire"
)

func init() {
	// The builtin payload shapes of the data-parallel plane (spmd sends,
	// halo slabs, reduction vectors), registered for the gob fallback:
	// a user-defined constant may hold them in an interface field, and
	// the forceGob path encodes them through gob.
	gob.Register([]float64(nil))
	gob.Register([][]float64(nil))
	gob.Register([]int(nil))
	gob.Register([][]int(nil))
	gob.Register(float64(0))
	gob.Register(int(0))
	gob.Register("")
	gob.Register(false)
}

// Frame kinds (body[0]).
const (
	frameHello       = 1 // worker -> part 0: rank + advertised mesh address
	frameMsg         = 2 // one routed message
	frameKill        = 3 // kill notice/command for one processor, flooded
	frameBye         = 4 // orderly shutdown: part 0 -> workers
	frameDir         = 5 // part 0 -> workers: the mesh directory
	frameMeshHello   = 6 // dialing worker -> accepting worker: my rank
	frameMeshWelcome = 7 // accepting worker -> dialing worker: ack + my rank
	frameMeshReady   = 8 // worker -> part 0: all my mesh dials resolved
)

const (
	maxFrame     = 1 << 30   // corrupt-stream guard on decoded frame lengths
	batchBytes   = 256 << 10 // writer flushes mid-batch past this many bytes
	meshDialWait = 10 * time.Second
	byeDrainWait = 2 * time.Second

	// msgHeaderMax bounds a message frame's header: the frame kind, the
	// tag class, and four varints (src, dst, call, kind).
	msgHeaderMax = 2 + 4*binary.MaxVarintLen64
)

// The frame pool: one sync.Pool per power-of-two size class, from 4 KiB
// (every control frame and small message) to 16 MiB. Class k holds
// buffers of capacity at least 4 KiB << k, so a frame of n bytes is
// drawn from the smallest class that holds it and a large transfer
// reuses its frames instead of allocating (and zeroing) fresh ones on
// both ends. Frames above the top class are left to the GC. The pools
// hold *[]byte, and a buffer travels with the pointer it was drawn
// with, so recycling a frame allocates nothing.
const (
	minFrameShift = 12 // 4 KiB
	maxFrameShift = 24 // 16 MiB
)

var framePools [maxFrameShift - minFrameShift + 1]sync.Pool

// frameClass returns the class a frame of n bytes is drawn from: the
// smallest whose buffers hold n, or len(framePools) above the top class.
func frameClass(n int) int {
	if n <= 1<<minFrameShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minFrameShift
}

// poolClass returns the class a buffer of capacity c is recycled into:
// the largest whose size c covers, so a frame that grew past its class
// lands where its capacity now puts it. It is -1 for a buffer below the
// smallest class or above the top one.
func poolClass(c int) int {
	if c < 1<<minFrameShift || c > 1<<maxFrameShift {
		return -1
	}
	return bits.Len(uint(c)) - 1 - minFrameShift
}

// getBufN draws a frame buffer of length n and capacity at least n.
func getBufN(n int) *[]byte {
	c := frameClass(n)
	if c >= len(framePools) {
		b := make([]byte, n)
		return &b
	}
	if bp, ok := framePools[c].Get().(*[]byte); ok {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n, 1<<(c+minFrameShift))
	return &b
}

// putBuf recycles a frame buffer. Callers must not touch the buffer
// afterwards.
func putBuf(bp *[]byte) {
	if c := poolClass(cap(*bp)); c >= 0 {
		*bp = (*bp)[:0]
		framePools[c].Put(bp)
	}
}

// Options tune one part's side of the wire.
type Options struct {
	MeshAddr string // workers: mesh listen address (host:port, port may be 0)
}

// Option mutates Options; pass to Listen/Dial.
type Option func(*Options)

func defaults() Options {
	return Options{MeshAddr: "127.0.0.1:0"}
}

func buildOptions(opt []Option) Options {
	o := defaults()
	for _, f := range opt {
		f(&o)
	}
	return o
}

// WithMeshAddr sets the worker's mesh listen address. The advertised
// directory entry is the bound address, so the host part must be
// reachable from the other workers. Default 127.0.0.1:0.
func WithMeshAddr(addr string) Option { return func(o *Options) { o.MeshAddr = addr } }

// outFrame is one unit of a peer's outbound queue: either an encoded
// frame whose buffer the writer now owns, or a barrier (flush the
// connection, then close the channel).
type outFrame struct {
	body    *[]byte
	barrier chan struct{}
}

// peer is one live connection. A dedicated writer goroutine owns bw
// and drains q.
type peer struct {
	rank int
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	dead atomic.Bool

	q        chan outFrame
	quit     chan struct{}
	quitOnce sync.Once
}

// newPeer builds one connection's state. q exists before the peer is
// published to other goroutines; the writer itself starts later
// (startPeer), once the handshake frames are on the wire.
func newPeer(conn net.Conn, rank int) *peer {
	return &peer{
		rank: rank,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		q:    make(chan outFrame, 256),
		quit: make(chan struct{}),
	}
}

// writeFrame appends the length prefix and body to the buffered writer.
// Callers own the flush.
func (p *peer) writeFrame(body []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	if _, err := p.bw.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := p.bw.Write(body)
	return err
}

// post hands one encoded frame to the connection; ownership of body
// transfers (it is recycled or written by the writer). A dead or
// closing peer eats frames silently — fail-stop connections behave like
// dead processors.
func (p *peer) post(body *[]byte) {
	if p.dead.Load() {
		putBuf(body)
		return
	}
	select {
	case p.q <- outFrame{body: body}:
	case <-p.quit:
		putBuf(body)
	}
}

// barrier waits (bounded) until every frame enqueued before it has
// been flushed to the socket.
func (p *peer) barrier(timeout time.Duration) {
	ch := make(chan struct{})
	select {
	case p.q <- outFrame{barrier: ch}:
		select {
		case <-ch:
		case <-time.After(timeout):
		case <-p.quit:
		}
	case <-p.quit:
	}
}

// writeLoop is the peer's writer: block for one frame, then keep
// writing until the queue runs dry, then flush once. Under load this
// coalesces many frames per syscall; idle, it degenerates to
// write+flush per frame.
func (p *peer) writeLoop() {
	flush := func() {
		if !p.dead.Load() {
			if err := p.bw.Flush(); err != nil {
				p.dead.Store(true)
			}
		}
	}
	for {
		var of outFrame
		select {
		case of = <-p.q:
		case <-p.quit:
			flush()
			return
		}
		batched := 0
		for {
			if of.barrier != nil {
				flush()
				batched = 0
				close(of.barrier)
			} else {
				if !p.dead.Load() {
					if err := p.writeFrame(*of.body); err != nil {
						p.dead.Store(true)
					} else {
						batched += len(*of.body)
					}
				}
				putBuf(of.body)
				if batched >= batchBytes {
					flush()
					batched = 0
				}
			}
			select {
			case of = <-p.q:
				continue
			default:
			}
			break
		}
		flush()
	}
}

// shutdown stops the writer (if any) and closes the socket. Idempotent.
func (p *peer) shutdown() {
	p.quitOnce.Do(func() { close(p.quit) })
	p.conn.Close()
}

// Transport is the TCP implementation of msg.Transport for one part.
type Transport struct {
	p, nparts, rank int
	owner           []int // proc -> hosting part rank
	opts            Options

	router   *msg.Router
	attached chan struct{}

	ln     net.Listener // part 0 only
	meshLn net.Listener // workers only

	mu       sync.Mutex
	peers    map[int]*peer // part rank -> connection
	dir      []string      // part 0: rank -> advertised mesh address
	meshAcks int           // part 0: workers whose mesh dials resolved
	dirSent  bool

	routes []atomic.Pointer[peer] // sticky per-destination-part route

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	readyOnce sync.Once
	ready     chan struct{} // part 0: closed when the machine is fully wired
}

// PartBounds returns the processor interval [lo, hi) hosted by one part
// under the contiguous even split used throughout this package.
func PartBounds(p, nparts, rank int) (lo, hi int) {
	base, extra := p/nparts, p%nparts
	lo = rank*base + min(rank, extra)
	size := base
	if rank < extra {
		size++
	}
	return lo, lo + size
}

// HostedMap returns the hosted[] vector for one part.
func HostedMap(p, nparts, rank int) []bool {
	hosted := make([]bool, p)
	lo, hi := PartBounds(p, nparts, rank)
	for i := lo; i < hi; i++ {
		hosted[i] = true
	}
	return hosted
}

func ownerMap(p, nparts int) []int {
	owner := make([]int, p)
	for rank := 0; rank < nparts; rank++ {
		lo, hi := PartBounds(p, nparts, rank)
		for i := lo; i < hi; i++ {
			owner[i] = rank
		}
	}
	return owner
}

func newTransport(p, nparts, rank int, opts Options) *Transport {
	return &Transport{
		p: p, nparts: nparts, rank: rank,
		owner:    ownerMap(p, nparts),
		opts:     opts,
		attached: make(chan struct{}),
		peers:    make(map[int]*peer),
		dir:      make([]string, nparts),
		routes:   make([]atomic.Pointer[peer], nparts),
		done:     make(chan struct{}),
		ready:    make(chan struct{}),
	}
}

// Listen starts part 0's side of the wire: a single listening socket the
// workers dial. addr may use port 0; Addr reports the bound address to
// hand to spawned workers. Call Attach once the router exists, then
// WaitPeers before starting traffic.
func Listen(addr string, p, nparts int, opt ...Option) (*Transport, error) {
	if nparts < 2 {
		return nil, fmt.Errorf("msgnet: need at least 2 parts, got %d", nparts)
	}
	t := newTransport(p, nparts, 0, buildOptions(opt))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Dial starts a worker part's side of the wire: a mesh listening socket
// plus one connection to part 0.
func Dial(addr string, p, nparts, rank int, opt ...Option) (*Transport, error) {
	if rank <= 0 || rank >= nparts {
		return nil, fmt.Errorf("msgnet: worker rank %d out of range (nparts=%d)", rank, nparts)
	}
	t := newTransport(p, nparts, rank, buildOptions(opt))
	ln, err := net.Listen("tcp", t.opts.MeshAddr)
	if err != nil {
		return nil, fmt.Errorf("msgnet: mesh listen %s: %w", t.opts.MeshAddr, err)
	}
	t.meshLn = ln
	t.wg.Add(1)
	go t.meshAcceptLoop()
	conn, err := net.DialTimeout("tcp", addr, 30*time.Second)
	if err != nil {
		t.meshLn.Close()
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pr := newPeer(conn, 0)
	hello := []byte{frameHello}
	hello = wire.AppendUvarint(hello, uint64(rank))
	hello = wire.AppendString(hello, ln.Addr().String())
	if err := rawWriteFrame(conn, hello); err != nil {
		conn.Close()
		t.meshLn.Close()
		return nil, err
	}
	t.mu.Lock()
	t.peers[0] = pr
	t.mu.Unlock()
	t.startPeer(pr)
	t.wg.Add(1)
	go t.readLoop(0, pr)
	return t, nil
}

// rawWriteFrame writes one whole frame directly to the socket —
// handshake frames only, before the peer's writer exists.
func rawWriteFrame(conn net.Conn, body []byte) error {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(body))
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	_, err := conn.Write(buf)
	return err
}

// readRawFrame reads one length-prefixed frame body into a pooled
// buffer the caller owns.
func readRawFrame(br *bufio.Reader) (*[]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("msgnet: oversized frame (%d bytes)", n)
	}
	body := getBufN(int(n))
	if _, err := io.ReadFull(br, *body); err != nil {
		putBuf(body)
		return nil, err
	}
	return body, nil
}

// startPeer launches the writer for a fully-handshaken peer.
func (t *Transport) startPeer(pr *peer) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		pr.writeLoop()
	}()
}

// Addr returns the listening address (part 0 only).
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Attach binds the transport to its router. Frames received before
// Attach wait in the TCP buffers; nothing is delivered until the router
// is in place. A worker's mesh setup rides those frames, so part 0's
// WaitPeers cannot return before every worker has attached.
func (t *Transport) Attach(r *msg.Router) {
	t.router = r
	close(t.attached)
}

// WaitPeers blocks until the machine is fully wired (part 0): every
// worker said hello and every worker reported its mesh dials resolved,
// so every direct link that will ever exist
// already does and sticky routes latch the fast path. Workers return
// immediately: their connections are established by construction.
func (t *Transport) WaitPeers(timeout time.Duration) error {
	if t.rank != 0 {
		return nil
	}
	select {
	case <-t.ready:
		return nil
	case <-t.done:
		return fmt.Errorf("msgnet: transport closed before all parts connected")
	case <-time.After(timeout):
		return fmt.Errorf("msgnet: %d part(s) not fully wired within %v", t.missingPeers(), timeout)
	}
}

func (t *Transport) missingPeers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nparts - 1 - len(t.peers)
}

func (t *Transport) closeReady() {
	t.readyOnce.Do(func() { close(t.ready) })
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.wg.Add(1)
		go t.handshake(conn)
	}
}

// handshake is part 0's accept path: read the worker's hello, register
// the peer, and — once everyone is here — publish the mesh directory.
func (t *Transport) handshake(conn net.Conn) {
	defer t.wg.Done()
	pr := newPeer(conn, -1)
	body, err := readRawFrame(pr.br)
	if err != nil {
		conn.Close()
		return
	}
	rank, meshAddr, ok := parseHello(*body)
	putBuf(body)
	if !ok || rank <= 0 || rank >= t.nparts {
		conn.Close()
		return
	}
	pr.rank = rank
	t.mu.Lock()
	if _, dup := t.peers[rank]; dup {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.peers[rank] = pr
	t.dir[rank] = meshAddr
	sendDir := len(t.peers) == t.nparts-1 && !t.dirSent
	if sendDir {
		t.dirSent = true
	}
	var prs []*peer
	if sendDir {
		prs = t.peerList()
	}
	t.mu.Unlock()
	t.startPeer(pr)
	t.wg.Add(1)
	go t.readLoop(rank, pr)
	if sendDir {
		dirBody := t.dirFrame()
		for _, wp := range prs {
			b := getBufN(len(dirBody))
			copy(*b, dirBody)
			wp.post(b)
		}
	}
}

func parseHello(body []byte) (rank int, meshAddr string, ok bool) {
	if len(body) == 0 || body[0] != frameHello {
		return 0, "", false
	}
	r, rest, err := wire.ReadUvarint(body[1:])
	if err != nil {
		return 0, "", false
	}
	addr, _, err := wire.ReadString(rest)
	if err != nil {
		return 0, "", false
	}
	return int(r), addr, true
}

// dirFrame encodes the mesh directory. Caller holds no locks; dir is
// write-once-per-rank before dirSent flips, so reading it unlocked
// after the flip is safe.
func (t *Transport) dirFrame() []byte {
	b := []byte{frameDir}
	b = wire.AppendUvarint(b, uint64(t.nparts))
	for _, addr := range t.dir {
		b = wire.AppendString(b, addr)
	}
	return b
}

func (t *Transport) peerList() []*peer {
	prs := make([]*peer, 0, len(t.peers))
	for _, pr := range t.peers {
		prs = append(prs, pr)
	}
	return prs
}

// meshAcceptLoop is a worker's side of incoming mesh dials (from
// higher-ranked workers).
func (t *Transport) meshAcceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.meshLn.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.wg.Add(1)
		go t.meshHandshakeIn(conn)
	}
}

func (t *Transport) meshHandshakeIn(conn net.Conn) {
	defer t.wg.Done()
	pr := newPeer(conn, -1)
	conn.SetReadDeadline(time.Now().Add(meshDialWait))
	body, err := readRawFrame(pr.br)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	rank, ok := parseRankFrame(*body, frameMeshHello)
	putBuf(body)
	if !ok || rank <= 0 || rank >= t.nparts || rank == t.rank {
		conn.Close()
		return
	}
	pr.rank = rank
	t.mu.Lock()
	if _, dup := t.peers[rank]; dup {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.peers[rank] = pr
	t.mu.Unlock()
	welcome := wire.AppendUvarint([]byte{frameMeshWelcome}, uint64(t.rank))
	if err := rawWriteFrame(conn, welcome); err != nil {
		pr.dead.Store(true)
		conn.Close()
		return
	}
	t.startPeer(pr)
	t.wg.Add(1)
	go t.readLoop(rank, pr)
}

// meshDialAll dials every lower-ranked worker in the directory, then
// reports mesh-ready to part 0. A failed or refused dial is not an
// error: that pair simply keeps the star relay.
func (t *Transport) meshDialAll(dir []string) {
	defer t.wg.Done()
	for r := 1; r < t.rank; r++ {
		if r < len(dir) && dir[r] != "" {
			t.meshDial(r, dir[r])
		}
	}
	t.mu.Lock()
	pr := t.peers[0]
	t.mu.Unlock()
	if pr != nil {
		pr.post(rankFrame(frameMeshReady, t.rank))
	}
}

func (t *Transport) meshDial(rank int, addr string) {
	conn, err := net.DialTimeout("tcp", addr, meshDialWait)
	if err != nil {
		return // star fallback for this pair
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pr := newPeer(conn, rank)
	if err := rawWriteFrame(conn, wire.AppendUvarint([]byte{frameMeshHello}, uint64(t.rank))); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Now().Add(meshDialWait))
	body, err := readRawFrame(pr.br)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	from, ok := parseRankFrame(*body, frameMeshWelcome)
	putBuf(body)
	if !ok || from != rank {
		conn.Close()
		return
	}
	t.mu.Lock()
	if _, dup := t.peers[rank]; dup {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.peers[rank] = pr
	t.mu.Unlock()
	t.startPeer(pr)
	t.wg.Add(1)
	go t.readLoop(rank, pr)
}

// rankFrame builds a pooled frame of one kind byte and one processor or
// part rank, to post on a connection.
func rankFrame(kind byte, rank int) *[]byte {
	b := getBufN(0)
	*b = wire.AppendUvarint(append(*b, kind), uint64(rank))
	return b
}

func parseRankFrame(body []byte, kind byte) (rank int, ok bool) {
	if len(body) == 0 || body[0] != kind {
		return 0, false
	}
	r, _, err := wire.ReadUvarint(body[1:])
	if err != nil {
		return 0, false
	}
	return int(r), true
}

func (t *Transport) readLoop(from int, pr *peer) {
	defer t.wg.Done()
	select {
	case <-t.attached:
	case <-t.done:
		return
	}
	for {
		body, err := readRawFrame(pr.br)
		if err != nil {
			pr.dead.Store(true)
			if t.rank != 0 && from == 0 {
				// Part 0 went away: the machine is over for this worker.
				t.Close()
			}
			return
		}
		t.handleFrame(from, body)
	}
}

// handleFrame dispatches one received frame body. Ownership of body is
// taken: it is recycled here unless forwarded verbatim.
func (t *Transport) handleFrame(from int, body *[]byte) {
	if len(*body) == 0 {
		putBuf(body)
		return
	}
	switch (*body)[0] {
	case frameMsg:
		t.handleMsg(body)
	case frameKill:
		proc, ok := parseRankFrame(*body, frameKill)
		putBuf(body)
		if !ok {
			return
		}
		t.applyKill(proc)
		if t.rank == 0 {
			// Re-flood the notice to every other part; receivers do not
			// re-forward, and duplicate kills are idempotent, so the
			// mesh's cycles are harmless.
			t.mu.Lock()
			prs := make([]*peer, 0, len(t.peers))
			for rank, pr := range t.peers {
				if rank != from {
					prs = append(prs, pr)
				}
			}
			t.mu.Unlock()
			for _, pr := range prs {
				pr.post(rankFrame(frameKill, proc))
			}
		}
	case frameDir:
		addrs, ok := parseDir(*body, t.nparts)
		putBuf(body)
		if !ok || t.rank == 0 {
			return
		}
		t.wg.Add(1)
		go t.meshDialAll(addrs)
	case frameMeshReady:
		putBuf(body)
		if t.rank != 0 {
			return
		}
		t.mu.Lock()
		t.meshAcks++
		wired := t.meshAcks >= t.nparts-1 && len(t.peers) == t.nparts-1
		t.mu.Unlock()
		if wired {
			t.closeReady()
		}
	case frameBye:
		putBuf(body)
		t.Close()
	default:
		putBuf(body)
	}
}

func parseDir(body []byte, nparts int) ([]string, bool) {
	n, rest, err := wire.ReadUvarint(body[1:])
	if err != nil || int(n) != nparts {
		return nil, false
	}
	addrs := make([]string, nparts)
	for i := range addrs {
		addrs[i], rest, err = wire.ReadString(rest)
		if err != nil {
			return nil, false
		}
	}
	return addrs, true
}

// handleMsg delivers or relays one message frame. The relay leg (part 0,
// destination hosted elsewhere) forwards the raw bytes without decoding
// the payload — the star costs part 0 two copies, never two codecs.
func (t *Transport) handleMsg(body *[]byte) {
	b := (*body)[1:]
	src64, b, err := wire.ReadUvarint(b)
	if err != nil {
		putBuf(body)
		return
	}
	dst64, b, err := wire.ReadUvarint(b)
	if err != nil {
		putBuf(body)
		return
	}
	src, dst := int(src64), int(dst64)
	if dst < 0 || dst >= t.p {
		putBuf(body)
		return
	}
	if t.owner[dst] != t.rank {
		if t.rank == 0 {
			// Relay leg of the star fallback: forward verbatim.
			t.mu.Lock()
			pr := t.peers[t.owner[dst]]
			t.mu.Unlock()
			if pr != nil {
				pr.post(body) // ownership transfers
				return
			}
		}
		putBuf(body)
		return
	}
	if len(b) == 0 {
		putBuf(body)
		return
	}
	class := b[0]
	call, b, err := wire.ReadUvarint(b[1:])
	if err != nil {
		putBuf(body)
		return
	}
	kind, b, err := wire.ReadInt(b)
	if err != nil {
		putBuf(body)
		return
	}
	data, _, err := wire.ReadAny(b)
	putBuf(body)
	if err != nil {
		return
	}
	t.router.Inject(msg.Message{
		Src: src, Dst: dst,
		Tag:  msg.Tag{Class: msg.Class(class), Call: call, Kind: kind},
		Data: data,
	})
}

// applyKill lands one kill on this part: the hosting part kills the
// mailbox for real, everyone else records the death for Router.Down.
func (t *Transport) applyKill(proc int) {
	if proc < 0 || proc >= t.p {
		return
	}
	if t.owner[proc] == t.rank {
		t.router.KillProcessor(proc)
	} else {
		t.router.MarkRemoteDown(proc)
	}
}

// Kill fail-stops processor proc machine-wide: it is applied locally
// and flooded on every connection this part has — mesh links reach
// worker peers in one hop, and part 0 re-floods to anyone the origin
// could not reach directly. Duplicates are idempotent by construction.
func (t *Transport) Kill(proc int) error {
	if proc < 0 || proc >= t.p {
		return fmt.Errorf("msgnet: kill %d out of range (P=%d)", proc, t.p)
	}
	t.applyKill(proc)
	t.mu.Lock()
	prs := t.peerList()
	t.mu.Unlock()
	for _, pr := range prs {
		pr.post(rankFrame(frameKill, proc))
	}
	return nil
}

// route picks the connection carrying traffic to a destination part:
// the direct mesh link when one exists, otherwise the star relay
// through part 0. The choice latches on first use so every frame of a
// pair follows one path forever (FIFO).
func (t *Transport) route(target int) *peer {
	if pr := t.routes[target].Load(); pr != nil {
		return pr
	}
	t.mu.Lock()
	pr := t.peers[target]
	if pr == nil && t.rank != 0 && target != 0 {
		pr = t.peers[0]
	}
	t.mu.Unlock()
	if pr == nil {
		return nil
	}
	if !t.routes[target].CompareAndSwap(nil, pr) {
		return t.routes[target].Load()
	}
	return pr
}

// Send implements msg.Transport: encode one message into a pooled
// frame (the copy-at-the-seam — the payload is captured before Send
// returns) and hand it to the route's connection.
func (t *Transport) Send(m msg.Message) error {
	select {
	case <-t.done:
		return fmt.Errorf("msgnet: send %d -> %d: %w", m.Src, m.Dst, msg.ErrClosed)
	default:
	}
	if m.Dst < 0 || m.Dst >= t.p {
		return fmt.Errorf("msgnet: send to processor %d out of range (P=%d)", m.Dst, t.p)
	}
	pr := t.route(t.owner[m.Dst])
	if pr == nil {
		return fmt.Errorf("msgnet: no connection toward part %d (dst processor %d)", t.owner[m.Dst], m.Dst)
	}
	bp := getBufN(msgHeaderMax + wire.SizeAny(m.Data))
	body := append((*bp)[:0], frameMsg)
	body = wire.AppendUvarint(body, uint64(m.Src))
	body = wire.AppendUvarint(body, uint64(m.Dst))
	body = append(body, byte(m.Tag.Class))
	body = wire.AppendUvarint(body, m.Tag.Call)
	body = wire.AppendInt(body, m.Tag.Kind)
	body, err := wire.AppendAny(body, m.Data, false)
	*bp = body
	if err != nil {
		putBuf(bp)
		return fmt.Errorf("msgnet: encode %d -> %d: %w", m.Src, m.Dst, err)
	}
	pr.post(bp)
	return nil
}

// Shutdown performs an orderly machine-wide stop from part 0: every
// worker receives a bye frame (releasing its Wait), the writers drain,
// and then the connections close. On workers it is identical to Close.
func (t *Transport) Shutdown() {
	if t.rank == 0 {
		t.mu.Lock()
		prs := t.peerList()
		t.mu.Unlock()
		for _, pr := range prs {
			b := getBufN(1)
			(*b)[0] = frameBye
			pr.post(b)
		}
		for _, pr := range prs {
			pr.barrier(byeDrainWait)
		}
	}
	t.Close()
}

// Close implements msg.Transport: tear down all listeners, writers and
// connections. Idempotent.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		if t.ln != nil {
			t.ln.Close()
		}
		if t.meshLn != nil {
			t.meshLn.Close()
		}
		t.mu.Lock()
		prs := t.peerList()
		t.mu.Unlock()
		for _, pr := range prs {
			pr.shutdown()
		}
	})
	return nil
}

// Done returns a channel closed when the transport has shut down (bye
// frame, lost connection to part 0, or Close).
func (t *Transport) Done() <-chan struct{} { return t.done }

// Wait blocks until the transport has shut down — the worker part's
// main loop.
func (t *Transport) Wait() { <-t.done }
