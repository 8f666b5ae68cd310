// Transport seam: the partition of one logical P-processor machine
// across several OS processes ("parts"), and the interface a wire
// transport implements to carry messages between them.
//
// The in-process Router stays the fast path: with no transport installed
// (the default), Send/RecvFrom behave exactly as before — one atomic load on
// the healthy path, zero new allocations. With SetTransport, each part
// hosts a contiguous subset of the processors: sends to hosted
// destinations use the in-memory mailbox switch unchanged, sends to
// non-hosted destinations are handed to the Transport, and messages
// arriving from the wire are injected into the local mailboxes with
// Inject. The fault plane (SetFaultPlan) and the modeled interconnect
// (SetLatency) apply to in-process delivery only: a real transport
// supplies real loss characteristics and real latency.
package msg

import (
	"fmt"
	"sync/atomic"
)

// Transport delivers messages addressed to processors hosted by other
// OS processes.
//
// Contract:
//   - Send must capture the payload before returning — serialize it (or
//     deep-copy it) synchronously. Callers recycle pooled buffers and
//     mutate section-backed slices the moment Send returns; a transport
//     that queues the Message by reference would ship corrupted bytes.
//     (In-process delivery hands references over safely because the
//     ownership conventions are part of each protocol; the wire has no
//     such conventions, so the copy happens at this seam.)
//   - Delivery between a fixed (src, dst) pair must be FIFO and
//     duplicate-free, like the in-process mailboxes. The TCP
//     implementation gets both from TCP.
//   - Send may block briefly (socket backpressure); it must not block
//     indefinitely once Close has been called.
type Transport interface {
	Send(m Message) error
	Close() error
}

// partition is the installed transport state: which processors are
// hosted in this OS process, the wire to everyone else, and the set of
// remote processors known to be dead (propagated kill notices).
type partition struct {
	hosted     []bool
	tr         Transport
	remoteDown []atomic.Bool
}

// SetTransport partitions the router across OS processes: hosted[p]
// reports whether processor p lives in this process. Sends to non-hosted
// processors go through t; everything else is unchanged. Install it
// before any traffic starts (like SetLatency and SetFaultPlan); len of
// hosted must be the router's P.
func (r *Router) SetTransport(t Transport, hosted []bool) {
	if len(hosted) != len(r.boxes) {
		panic(fmt.Sprintf("msg: SetTransport hosted map covers %d of %d processors", len(hosted), len(r.boxes)))
	}
	r.part.Store(&partition{
		hosted:     append([]bool(nil), hosted...),
		tr:         t,
		remoteDown: make([]atomic.Bool, len(hosted)),
	})
}

// Local reports whether processor p is hosted in this OS process. With
// no transport installed every in-range processor is local.
func (r *Router) Local(p int) bool {
	if p < 0 || p >= len(r.boxes) {
		return false
	}
	pt := r.part.Load()
	return pt == nil || pt.hosted[p]
}

// Partitioned reports whether a transport has been installed.
func (r *Router) Partitioned() bool { return r.part.Load() != nil }

// LocalProcs returns the processors hosted in this OS process, in
// ascending order.
func (r *Router) LocalProcs() []int {
	procs := make([]int, 0, len(r.boxes))
	for p := range r.boxes {
		if r.Local(p) {
			procs = append(procs, p)
		}
	}
	return procs
}

// Inject delivers a message that arrived over the wire into the local
// mailbox of its destination, which must be hosted here. Wire arrivals
// bypass the modeled latency and the fault plane: a real transport has
// already imposed the real versions of both.
func (r *Router) Inject(m Message) error {
	if m.Dst < 0 || m.Dst >= len(r.boxes) {
		return fmt.Errorf("%w: inject at %d (P=%d)", ErrBadProcessor, m.Dst, len(r.boxes))
	}
	if pt := r.part.Load(); pt != nil && !pt.hosted[m.Dst] {
		return fmt.Errorf("%w: inject at non-hosted processor %d", ErrBadProcessor, m.Dst)
	}
	stored, err := r.boxes[m.Dst].put(m, false)
	if err != nil {
		return err
	}
	if !stored {
		r.stats.downDropped.Add(1)
	}
	return nil
}

// MarkRemoteDown records that a processor hosted by another part has
// been killed (a propagated kill notice). Down reports it from then on,
// which is what lets coordinators in this part fail fast instead of
// burning a retry budget against a dead remote peer.
func (r *Router) MarkRemoteDown(p int) {
	pt := r.part.Load()
	if pt == nil || p < 0 || p >= len(pt.remoteDown) {
		return
	}
	pt.remoteDown[p].Store(true)
}
