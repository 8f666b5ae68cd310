// Package msg implements the point-to-point message-passing substrate the
// prototype runs on: typed messages with selective receive.
//
// The paper (§3.4.1, §5.3) requires that when the task-parallel notation and
// called data-parallel programs share a message-passing fabric, "both ... use
// communication primitives based on typed messages and selective receives",
// with the sets of types used by each kept disjoint. The original prototype
// retrofitted this onto the untyped Cosmic Environment primitives of the
// Symult s2010; here we build it directly.
//
// Every message carries a Tag consisting of a Class (task-parallel traffic
// vs data-parallel traffic), a Call instance identifier (so concurrently
// executing distributed calls can never intercept each other's messages),
// and a user Kind. A receive names a tag and a source (or any source) and
// takes the oldest queued match; other messages stay queued. Delivery
// between a fixed (source, destination, tag) pair is FIFO.
package msg

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class partitions the message-type space between the task-parallel runtime
// and called data-parallel programs, per §3.4.1.
type Class uint8

const (
	// ClassTask tags messages belonging to the task-parallel notation
	// (array-manager traffic, wrapper/combine coordination).
	ClassTask Class = iota + 1
	// ClassData tags messages exchanged between the concurrently executing
	// copies of a called data-parallel program.
	ClassData
)

func (c Class) String() string {
	switch c {
	case ClassTask:
		return "task"
	case ClassData:
		return "data"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Tag is the full message type. Two subsystems never conflict if any field
// of their tag spaces differ.
type Tag struct {
	Class Class
	// Call identifies the distributed-call instance (0 for task-level
	// traffic). Distinct concurrent calls use distinct Call values, which
	// is how Fig 3.4's "no communication between DPA and DPB" is enforced.
	Call uint64
	// Kind is the within-subsystem message type. By convention,
	// non-negative kinds are available to user programs and negative kinds
	// are reserved for runtime-internal protocols (collectives, combines).
	Kind int
}

// Message is a delivered message.
type Message struct {
	Src  int
	Dst  int
	Tag  Tag
	Data any
}

// ErrClosed is returned by Send/RecvFrom after the router has been shut down.
var ErrClosed = errors.New("msg: router closed")

// ErrBadProcessor is returned for out-of-range processor numbers.
var ErrBadProcessor = errors.New("msg: processor number out of range")

// ErrTimeout is returned by RecvFromTimeout when no matching message is
// queued before the deadline.
var ErrTimeout = errors.New("msg: receive timed out")

// ErrProcessorDown is returned by receives at a processor that has been
// killed with KillProcessor.
var ErrProcessorDown = errors.New("msg: processor down")

// Router connects P virtual processors, each with one mailbox. It is the
// only channel through which distinct (virtual) address spaces interact.
type Router struct {
	boxes   []*mailbox
	sent    atomic.Uint64
	latency atomic.Int64 // modeled per-message delivery latency, ns
	lineMu  sync.Mutex
	line    []delayed   // not yet due, by due time, ties in send order
	timer   *time.Timer // armed for line[0]
	fault   atomic.Pointer[faultState]
	part    atomic.Pointer[partition] // nil: single-process (the fast path)
	stats   faultCounters
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool
}

// NewRouter creates a router for p virtual processors numbered 0..p-1.
func NewRouter(p int) *Router {
	if p <= 0 {
		panic("msg: router needs at least one processor")
	}
	r := &Router{boxes: make([]*mailbox, p), done: make(chan struct{})}
	for i := range r.boxes {
		r.boxes[i] = &mailbox{reordered: &r.stats.reordered}
	}
	r.timer = time.AfterFunc(time.Hour, r.release)
	r.timer.Stop()
	return r
}

// P returns the number of processors the router connects.
func (r *Router) P() int { return len(r.boxes) }

// Send delivers a message from src to dst. It never blocks (mailboxes are
// unbounded, like the asynchronous point-to-point sends of the Cosmic
// Environment).
func (r *Router) Send(src, dst int, tag Tag, data any) error {
	if dst < 0 || dst >= len(r.boxes) || src < 0 || src >= len(r.boxes) {
		return fmt.Errorf("%w: send %d -> %d (P=%d)", ErrBadProcessor, src, dst, len(r.boxes))
	}
	m := Message{Src: src, Dst: dst, Tag: tag, Data: data}
	if pt := r.part.Load(); pt != nil && !pt.hosted[dst] {
		// The destination lives in another OS process: hand the message to
		// the transport, which serializes the payload before returning
		// (see Transport). Modeled latency and the fault plane do not
		// apply — the wire supplies the real versions.
		if pt.remoteDown[dst].Load() {
			r.stats.downDropped.Add(1)
			return nil
		}
		if err := pt.tr.Send(m); err != nil {
			return err
		}
		r.sent.Add(1)
		return nil
	}
	d := time.Duration(r.latency.Load())
	if fs := r.fault.Load(); fs != nil {
		return r.sendFaulty(fs, m, d)
	}
	return r.admit(m, d, false)
}

// admit hands one copy of an accepted message to its mailbox: at once,
// or through the delay line when it is due d from now. It counts the
// copy in Sent, or in DownDropped when the destination is dead.
func (r *Router) admit(m Message, d time.Duration, reorder bool) error {
	box := r.boxes[m.Dst]
	var stored, down bool
	var err error
	if d <= 0 {
		stored, err = box.put(m, reorder)
	} else if down, err = box.state(); err == nil && !down {
		stored = true
		r.delayUntil(m, time.Now().Add(d), reorder)
	}
	if err != nil {
		return err
	}
	if !stored {
		r.stats.downDropped.Add(1)
		return nil
	}
	r.sent.Add(1)
	return nil
}

// SetLatency installs a simulated per-message delivery latency: a message
// sent at time T waits in the router's delay line and is queued at T+d.
// The in-process machine otherwise delivers in nanoseconds, which hides
// the phenomenon the paper's multicomputer runtime actually contends with
// — per-hop interconnect latency that serial request chains accumulate
// and overlapped requests hide. Modeling experiments (E22) use it to
// measure latency hiding; zero (the default) delivers immediately. Set it
// before traffic starts: lowering it while messages are in flight lets
// later ones overtake them between a fixed (src, dst, tag) pair.
func (r *Router) SetLatency(d time.Duration) { r.latency.Store(int64(d)) }

// Sent returns the total number of messages accepted by Send since the
// router was created. Tests use deltas of this counter to verify message
// budgets (e.g. that a bulk transfer issues one message per owning
// processor rather than one per element).
func (r *Router) Sent() uint64 { return r.sent.Load() }

// AnySource matches any sending processor in RecvFrom.
const AnySource = -1

// RecvFrom is the selective receive at processor dst: it suspends until a
// message with tag from src (any sender with AnySource) is queued, and
// removes and returns the oldest; other messages stay queued.
func (r *Router) RecvFrom(dst, src int, tag Tag) (Message, error) {
	return r.RecvFromTimeout(dst, src, tag, 0)
}

// RecvFromTimeout is RecvFrom with a deadline: if no matching message is
// queued within d it returns ErrTimeout. d <= 0 waits forever.
func (r *Router) RecvFromTimeout(dst, src int, tag Tag, d time.Duration) (Message, error) {
	if dst < 0 || dst >= len(r.boxes) {
		return Message{}, fmt.Errorf("%w: recv at %d (P=%d)", ErrBadProcessor, dst, len(r.boxes))
	}
	if pt := r.part.Load(); pt != nil && !pt.hosted[dst] {
		return Message{}, fmt.Errorf("%w: recv at non-hosted processor %d", ErrBadProcessor, dst)
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	return r.boxes[dst].get(src, tag, deadline)
}

// Pending reports the number of undelivered messages queued at dst
// (diagnostics and tests only); the delay line's are not queued yet.
func (r *Router) Pending(dst int) int {
	if dst < 0 || dst >= len(r.boxes) {
		return 0
	}
	return r.boxes[dst].pending()
}

// Close shuts the router down: queued and delayed messages are discarded
// and all blocked and future receives and sends return ErrClosed. Close
// is idempotent.
func (r *Router) Close() {
	r.closeMu.Lock()
	if !r.closed {
		r.closed = true
		close(r.done)
	}
	r.closeMu.Unlock()
	for _, b := range r.boxes {
		b.close()
	}
	r.lineMu.Lock()
	r.line = nil
	r.timer.Stop()
	r.lineMu.Unlock()
}

// Done returns a channel closed when the router is closed. Coordinators
// blocked on in-process reply channels select on it so a mid-call
// shutdown surfaces as a clean error instead of a deadlock.
func (r *Router) Done() <-chan struct{} { return r.done }

// delayed is a message in the delay line, queued by release when due.
type delayed struct {
	m       Message
	due     time.Time
	reorder bool // the fault plane's swap, made at that put
}

// delayUntil enters m behind every message due no later than due.
func (r *Router) delayUntil(m Message, due time.Time, reorder bool) {
	r.lineMu.Lock()
	defer r.lineMu.Unlock()
	i := sort.Search(len(r.line), func(i int) bool { return r.line[i].due.After(due) })
	r.line = slices.Insert(r.line, i, delayed{m: m, due: due, reorder: reorder})
	if i == 0 {
		r.timer.Reset(time.Until(due))
	}
}

// release puts every due message into its mailbox in due order and
// re-arms the timer for the next. A message whose processor was killed
// while it waited is dropped, like one queued at the kill; so is one due
// after Close, which put refuses with ErrClosed.
func (r *Router) release() {
	r.lineMu.Lock()
	defer r.lineMu.Unlock()
	now := time.Now()
	n := 0
	for ; n < len(r.line) && !r.line[n].due.After(now); n++ {
		d := &r.line[n]
		_, _ = r.boxes[d.m.Dst].put(d.m, d.reorder)
	}
	r.line = slices.Delete(r.line, 0, n)
	if len(r.line) > 0 {
		r.timer.Reset(r.line[0].due.Sub(now))
	}
}

// mailbox is one processor's FIFO queue. A receiver that finds no match
// parks on a waiter record for its tag; a put wakes only the receivers of
// the tag it queued, kill and close wake them all.
type mailbox struct {
	mu        sync.Mutex
	queue     []Message
	waiters   []*waiter // one per parked receiver
	spare     []*waiter // released records, so a fresh tag allocates nothing
	closed    bool
	down      atomic.Bool    // processor killed: senders drop, receivers error (set under mu; Down reads it lock-free)
	reordered *atomic.Uint64 // the router's count of reorder swaps
}

// waiter is one parked receiver and the tag it waits for.
type waiter struct {
	tag  Tag
	cond sync.Cond
}

// state reports whether the processor is down, and ErrClosed after Close.
func (b *mailbox) state() (down bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		err = ErrClosed
	}
	return b.down.Load(), err
}

// put enqueues one message. It reports false (and no error) when the
// processor is down: a dead peer silently eats traffic. reorder asks for
// the fault plane's one-slot swap with the previously queued message,
// counted when there is one.
func (b *mailbox) put(m Message, reorder bool) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false, ErrClosed
	}
	if b.down.Load() {
		return false, nil
	}
	b.queue = append(b.queue, m)
	if n := len(b.queue); reorder && n >= 2 {
		b.queue[n-1], b.queue[n-2] = b.queue[n-2], b.queue[n-1]
		b.reordered.Add(1)
	}
	b.wake(m.Tag)
	return true, nil
}

// get removes and returns the oldest queued message with tag from src,
// parking until one is queued, the deadline (zero: none) passes or the
// processor dies.
func (b *mailbox) get(src int, tag Tag, deadline time.Time) (m Message, err error) {
	b.mu.Lock()
	var w *waiter
	var timer *time.Timer
	for {
		if b.closed {
			err = ErrClosed
			break
		}
		if b.down.Load() {
			err = ErrProcessorDown
			break
		}
		i := slices.IndexFunc(b.queue, func(q Message) bool {
			return q.Tag == tag && (src == AnySource || q.Src == src)
		})
		if i >= 0 {
			m = b.queue[i]
			b.queue = slices.Delete(b.queue, i, i+1)
			break
		}
		if !deadline.IsZero() {
			left := time.Until(deadline)
			if left <= 0 {
				err = ErrTimeout
				break
			}
			if timer == nil {
				timer = time.AfterFunc(left, func() {
					b.mu.Lock()
					defer b.mu.Unlock()
					b.wake(tag)
				})
			}
		}
		if w == nil {
			w = b.park(tag)
		}
		w.cond.Wait()
	}
	if timer != nil {
		timer.Stop()
	}
	if w != nil {
		b.unpark(w)
	}
	b.mu.Unlock()
	return m, err
}

// wake rouses the receivers parked on tag. Callers hold b.mu.
func (b *mailbox) wake(tag Tag) {
	for _, w := range b.waiters {
		if w.tag == tag {
			w.cond.Signal()
		}
	}
}

// park enters a waiter record for tag, a spare one when there is one.
// Callers hold b.mu.
func (b *mailbox) park(tag Tag) *waiter {
	var w *waiter
	if n := len(b.spare); n > 0 {
		w, b.spare = b.spare[n-1], b.spare[:n-1]
	} else {
		w = &waiter{}
		w.cond.L = &b.mu
	}
	w.tag = tag
	b.waiters = append(b.waiters, w)
	return w
}

// unpark moves w to the spares. Callers hold b.mu.
func (b *mailbox) unpark(w *waiter) {
	i := slices.Index(b.waiters, w)
	b.waiters = slices.Delete(b.waiters, i, i+1)
	b.spare = append(b.spare, w)
}

// stop discards the queue and wakes every receiver. Callers hold b.mu.
func (b *mailbox) stop() {
	b.queue = nil
	for _, w := range b.waiters {
		w.cond.Signal()
	}
}

// kill marks the processor dead: queued messages are discarded, blocked
// and future receives return ErrProcessorDown, future puts are dropped.
func (b *mailbox) kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.down.Load() {
		return
	}
	b.down.Store(true)
	b.stop()
}

func (b *mailbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

func (b *mailbox) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.stop()
}
