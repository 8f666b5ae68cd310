// Fault injection: a deterministic, seeded plane that perturbs message
// delivery so the recovery machinery above the router (timeouts, retry,
// dedup) can be exercised in-process before a real transport exists.
//
// The model is the classic unreliable-datagram one: a message may be
// dropped, duplicated, delayed by a bounded random jitter, or delivered
// out of order; a killed processor's mailbox discards everything sent to
// it and wakes its receivers with ErrProcessorDown. Replies inside the
// array manager ride in-process channels, so only the request direction
// is lossy — which is exactly the asymmetry retransmission protocols are
// built around.
//
// A duplicate is a codec copy (msg/wire) of the payload made at send
// time, due no earlier than its original and queued behind it: receivers
// see the original first, and no receiver can reach the sender's object
// twice, so the layers above keep their buffer pools on under any plan.
package msg

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg/wire"
)

// FaultRule gives the per-message fault probabilities and delay bound for
// one (src, dst) direction. Zero value = reliable delivery.
type FaultRule struct {
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Dup is the probability a second copy of the message is enqueued:
	// a codec round trip of the payload, queued behind the original with
	// its own jitter, counted from the original's delivery. A payload the
	// codec cannot encode is delivered once.
	Dup float64
	// Jitter adds a uniform random extra delay in [0, Jitter) to each
	// delivered copy, on top of the router's SetLatency hop.
	Jitter time.Duration
	// Reorder is the probability a delivered message is enqueued ahead
	// of the message queued just before it (a one-slot swap, which under
	// selective receive is enough to break FIFO between a pair), made
	// when the message is queued: a delayed one's when it is due.
	Reorder float64
}

func (r FaultRule) active() bool {
	return r.Drop > 0 || r.Dup > 0 || r.Jitter > 0 || r.Reorder > 0
}

// FaultPlan is a seeded set of fault rules. Rule applies to every
// (src, dst) pair unless Pairs carries an override for that pair.
// Install with Router.SetFaultPlan before traffic starts; the plan is
// read-only once installed.
type FaultPlan struct {
	Seed  int64
	Rule  FaultRule
	Pairs map[[2]int]FaultRule
}

func (p *FaultPlan) rule(src, dst int) FaultRule {
	if p.Pairs != nil {
		if r, ok := p.Pairs[[2]int{src, dst}]; ok {
			return r
		}
	}
	return p.Rule
}

// faultState pairs an installed plan with its seeded source. The rng is
// shared by all senders under a mutex: draws are reproducible for a fixed
// send interleaving (single-coordinator workloads replay exactly).
type faultState struct {
	mu   sync.Mutex
	plan *FaultPlan
	rng  *rand.Rand
}

// FaultStats counts the faults the router has injected since creation.
type FaultStats struct {
	Dropped     uint64 // messages discarded by a Drop rule
	Duplicated  uint64 // extra copies enqueued by a Dup rule
	Reordered   uint64 // swaps a Reorder rule made, counted at the put that swapped
	DownDropped uint64 // messages discarded because the destination was killed
}

type faultCounters struct {
	dropped     atomic.Uint64
	duplicated  atomic.Uint64
	reordered   atomic.Uint64
	downDropped atomic.Uint64
}

// SetFaultPlan installs (or, with nil, removes) a fault plan. It applies
// from the next send; delayed messages keep their due times.
func (r *Router) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		r.fault.Store(nil)
		return
	}
	r.fault.Store(&faultState{plan: p, rng: rand.New(rand.NewSource(p.Seed))})
}

// FaultStats returns the injected-fault counters.
func (r *Router) FaultStats() FaultStats {
	return FaultStats{
		Dropped:     r.stats.dropped.Load(),
		Duplicated:  r.stats.duplicated.Load(),
		Reordered:   r.stats.reordered.Load(),
		DownDropped: r.stats.downDropped.Load(),
	}
}

// KillProcessor marks processor p dead mid-call: its queued messages are
// discarded, its blocked and future receives return ErrProcessorDown, and
// messages sent to it are silently dropped (a dead peer cannot nack).
// A message still in the delay line at the kill is dropped when due, like
// a queued one: it stays in Sent and is not counted in DownDropped.
// Peers discover the death by timeout plus Router.Down.
func (r *Router) KillProcessor(p int) error {
	if p < 0 || p >= len(r.boxes) {
		return fmt.Errorf("%w: kill %d (P=%d)", ErrBadProcessor, p, len(r.boxes))
	}
	r.boxes[p].kill()
	return nil
}

// Down reports whether processor p has been killed. Out-of-range p
// reports false. For a processor hosted by another OS process it
// reports the propagated kill notices recorded by MarkRemoteDown.
func (r *Router) Down(p int) bool {
	if p < 0 || p >= len(r.boxes) {
		return false
	}
	if pt := r.part.Load(); pt != nil && !pt.hosted[p] {
		return pt.remoteDown[p].Load()
	}
	return r.boxes[p].down.Load()
}

// sendFaulty applies the plan's rule for (src, dst) to one message and
// admits the surviving copies, due d plus their jitter from now. The
// duplicate's payload is encoded while the sender still owns it.
func (r *Router) sendFaulty(fs *faultState, m Message, d time.Duration) error {
	rule := fs.plan.rule(m.Src, m.Dst)
	var drop, dup, reorder bool
	var j1, j2 time.Duration
	if rule.active() {
		fs.mu.Lock()
		if rule.Drop > 0 {
			drop = fs.rng.Float64() < rule.Drop
		}
		if rule.Dup > 0 {
			dup = fs.rng.Float64() < rule.Dup
		}
		if rule.Reorder > 0 {
			reorder = fs.rng.Float64() < rule.Reorder
		}
		if rule.Jitter > 0 {
			j1 = time.Duration(fs.rng.Int63n(int64(rule.Jitter)))
			if dup {
				j2 = time.Duration(fs.rng.Int63n(int64(rule.Jitter)))
			}
		}
		fs.mu.Unlock()
	}
	if drop {
		r.stats.dropped.Add(1)
		return nil
	}
	var copied any
	if dup {
		copied, dup = copyPayload(m.Data)
	}
	if err := r.admit(m, d+j1, reorder); err != nil {
		return err
	}
	if dup {
		r.stats.duplicated.Add(1)
		m.Data = copied
		// The original is accepted, so the send has succeeded. A copy that
		// finds the router closed meanwhile is lost, not an error: on an
		// error the sender would recycle what the receiver already holds.
		_ = r.admit(m, d+j1+j2, false)
	}
	return nil
}

// copyPayload returns an independent copy of v, encoded and decoded by
// the wire codec exactly as a transport would carry it; ok is false when
// v has no encoding (an unregistered gob type, a channel, a func).
func copyPayload(v any) (c any, ok bool) {
	b, err := wire.AppendAny(make([]byte, 0, wire.SizeAny(v)), v, false)
	if err != nil {
		return nil, false
	}
	c, _, err = wire.ReadAny(b)
	return c, err == nil
}
