// Recovery machinery for unreliable request delivery: per-request
// sequence ids, owner-side retransmit deduplication, and timeout +
// bounded-exponential-backoff retry in the coordinators.
//
// The asymmetry the protocol is built around: requests travel over the
// router (lossy under a fault plan), while a handler answers by
// completion-table id, straight into the table when its waiter is hosted
// in the same process (wire.go), where the fault plane never acts. So a
// lost or delayed request is recovered by retransmitting the same
// *request object; the owner's dedup window guarantees at most one
// execution, which keeps every data-plane op idempotent even where blind
// re-execution would not be (pooled reply buffers, redistribution
// ships). A peer that never answers is distinguished from a slow one by
// Router.Down: killed owner -> StatusDown, retries exhausted ->
// StatusTimeout — both surfaced as core.Status errors instead of a hung
// coordinator.
package arraymgr

import (
	"math/rand"
	"time"

	"repro/internal/trace"
)

const (
	// StatusTimeout — a peer did not answer within the call policy's
	// retry budget.
	StatusTimeout Status = 4
	// StatusDown — a peer the operation needed has been killed.
	StatusDown Status = 5
	// StatusClosed — the machine was shut down mid-operation.
	StatusClosed Status = 6
)

// CallPolicy makes coordinator waits deadline-aware: each outstanding
// request is retransmitted up to Retries times, Timeout apart, with an
// extra Backoff sleep doubling per attempt. Nil policy (the default)
// waits forever — correct on the reliable in-process router and
// zero-overhead (no sequence ids, no dedup state, no timers).
type CallPolicy struct {
	// Timeout is the per-attempt reply deadline. It must comfortably
	// exceed the router's modeled latency plus the fault plan's jitter
	// bound, or healthy-but-slow messages trigger spurious retransmits.
	Timeout time.Duration
	// Retries is the number of retransmissions after the first send.
	Retries int
	// Backoff is the extra sleep before the first retransmit; it doubles
	// per attempt (bounded exponential backoff). Each sleep is jittered
	// ±20% with a seeded rng so a cohort of coordinators that timed out
	// together does not retransmit in lockstep.
	Backoff time.Duration
	// Seed seeds the backoff jitter; 0 means seed 1, keeping runs
	// reproducible by default.
	Seed int64
}

// RetryStats counts the recovery actions the manager has taken.
type RetryStats struct {
	Retransmits uint64 // requests re-sent after a reply deadline expired
	Timeouts    uint64 // reply deadlines that expired
}

// SetCallPolicy installs (or, with nil, removes) the retry policy.
// Install it before traffic starts, alongside the router's fault plan.
func (m *Manager) SetCallPolicy(p *CallPolicy) {
	if p == nil {
		m.policy.Store(nil)
		return
	}
	cp := *p
	seed := cp.Seed
	if seed == 0 {
		seed = 1
	}
	m.jmu.Lock()
	m.jrng = rand.New(rand.NewSource(seed))
	m.jmu.Unlock()
	m.policy.Store(&cp)
}

// jitterBackoff draws one ±20% jittered backoff from the policy's seeded
// rng: the same seed yields the same sleep sequence, so faulty runs stay
// reproducible while concurrent coordinators desynchronize.
func (m *Manager) jitterBackoff(d time.Duration) time.Duration {
	m.jmu.Lock()
	rng := m.jrng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
		m.jrng = rng
	}
	f := 0.8 + 0.4*rng.Float64()
	m.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// RetryStats returns the recovery counters.
func (m *Manager) RetryStats() RetryStats {
	return RetryStats{Retransmits: m.retransmits.Load(), Timeouts: m.timeouts.Load()}
}

// Stats renders the retry counters as a uniform stat list.
func (s RetryStats) Stats() []trace.Stat {
	return []trace.Stat{
		{Name: "retransmits", Value: s.Retransmits},
		{Name: "timeouts", Value: s.Timeouts},
	}
}

// nextSeq draws a fresh nonzero request id. Ids are manager-global —
// every coordinator in one process draws from the same counter — and
// scoped by origin processor in the dedup key, so two managers in
// different processes drawing the same number never collide. Zero is
// skipped explicitly on wraparound: it means "no recovery id" in every
// filter, so a wrapped counter must not mint it.
func (m *Manager) nextSeq() uint64 {
	for {
		if s := m.seq.Add(1); s != 0 {
			return s
		}
	}
}

// dedupWindow bounds the per-server window of recently dispatched
// request ids; ids older than the window are forgotten (a retransmit
// that stale would have long since been answered or abandoned).
const dedupWindow = 4096

// dedupKey identifies one logical request: {origin, seq, 0} for
// request/reply traffic, {origin, call, pair+1} for one-way
// redistribution ships (the +1 keeps the two spaces disjoint). origin —
// the processor whose manager drew the id — scopes the window: seq
// counters are per-process, so once managers span OS processes two
// coordinators can legitimately mint the same number, and an unscoped
// window would false-dedup the second arrival.
type dedupKey struct {
	origin int
	a, b   uint64
}

// deduper is the owner-side retransmit filter. It is owned by a single
// serve goroutine, so it needs no lock; state is allocated lazily so
// reliable-mode servers (no seq ids ever seen) pay nothing.
type deduper struct {
	seen map[dedupKey]struct{}
	ring []dedupKey
	pos  int
}

// dup reports whether k was already dispatched, marking it seen
// otherwise.
func (d *deduper) dup(k dedupKey) bool {
	if d.seen == nil {
		d.seen = make(map[dedupKey]struct{})
	}
	if _, ok := d.seen[k]; ok {
		return true
	}
	if len(d.ring) < dedupWindow {
		d.ring = append(d.ring, k)
	} else {
		delete(d.seen, d.ring[d.pos])
		d.ring[d.pos] = k
		d.pos = (d.pos + 1) % dedupWindow
	}
	d.seen[k] = struct{}{}
	return false
}

// dedupKeyOf extracts the request's dedup identity; ok=false (reliable
// mode: no ids assigned) disables filtering.
func dedupKeyOf(req *request) (dedupKey, bool) {
	if req.op == opRedistShip && req.call != 0 {
		return dedupKey{req.origin, req.call, uint64(req.pair) + 1}, true
	}
	if req.seq != 0 {
		return dedupKey{req.origin, req.seq, 0}, true
	}
	return dedupKey{}, false
}

// await waits for w's reply, or router shutdown (a mid-call Close
// surfaces as StatusClosed, never a deadlock), and unregisters its
// completion-table entry. With no policy the deadline channel is nil,
// so it waits for nothing else. With a policy it retransmits the same
// request object on each expired deadline — the owner's dedup window
// guarantees at most one execution — and converts a killed peer into
// StatusDown and an exhausted retry budget into StatusTimeout.
func (m *Manager) await(w waiter) response {
	req := w.req
	router := m.machine.Router()
	defer m.unregister(req.replyID)
	pol := m.policy.Load()
	var timer *time.Timer
	var deadline <-chan time.Time
	var backoff time.Duration
	if pol != nil {
		timer = time.NewTimer(pol.Timeout)
		defer timer.Stop()
		deadline, backoff = timer.C, pol.Backoff
	}
	for attempt := 0; ; attempt++ {
		select {
		case r := <-w.done:
			return r
		case <-router.Done():
			// Prefer a reply that raced shutdown.
			select {
			case r := <-w.done:
				return r
			default:
				return response{status: StatusClosed}
			}
		case <-deadline:
		}
		m.timeouts.Add(1)
		if router.Down(req.dst) {
			return response{status: StatusDown}
		}
		if attempt >= pol.Retries {
			return response{status: StatusTimeout}
		}
		if backoff > 0 {
			time.Sleep(m.jitterBackoff(backoff))
			backoff *= 2
		}
		m.retransmits.Add(1)
		// The same request object again: in-process the same pointer, over
		// the wire the same bytes (it is read-only once sent and the codec
		// is deterministic).
		if err := m.post(req.src, req.dst, req); err != nil {
			return response{status: sendStatus(err)}
		}
		timer.Reset(pol.Timeout)
	}
}
