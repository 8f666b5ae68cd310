// Recovery machinery for unreliable request delivery: the one gather
// loop every coordinator call waits in, with timeout +
// bounded-exponential-backoff re-sends under a call policy, and the
// owner-side retransmit filter keyed by the one request identity.
//
// The asymmetry the protocol is built around: requests travel over the
// router (lossy under a fault plan), while a handler answers by
// completion-table identity, straight into the table when its call is
// hosted in the same process (wire.go), where the fault plane never
// acts. So a lost or delayed request is recovered by re-sending it —
// the same *request object, or a redistribution pair regrouped under
// its source owner — with its identity (origin, entry id, index)
// unchanged; the owner's dedup window guarantees at most one execution,
// which keeps every data-plane op idempotent even where blind
// re-execution would not be (pooled reply buffers, redistribution
// ships), and the table takes at most one answer per index. A peer that
// never answers is distinguished from a slow one by Router.Down: killed
// owner -> StatusDown, retries exhausted -> StatusTimeout — both
// surfaced as core.Status errors instead of a hung coordinator.
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
// zero-overhead (no dedup state, no timers).
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

// dedupWindow bounds the per-server window of recently dispatched
// request identities; ones older than the window are forgotten (a
// re-send that stale would have long since been answered or abandoned).
const dedupWindow = 4096

// dedupKey identifies one logical request: its call's origin
// processor and completion-table entry, and the answer it gives there.
// origin scopes the window: entry ids are per-process, so once managers
// span OS processes two coordinators can legitimately mint the same
// number, and an unscoped window would false-dedup the second arrival.
type dedupKey struct {
	origin int
	id     uint64
	idx    int
}

// deduper is the owner-side retransmit filter. It is owned by a single
// serve goroutine, so it needs no lock; state is allocated lazily so
// reliable-mode servers (no request sent under a policy) pay nothing.
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

// dedupKeyOf extracts the request's dedup identity; ok=false (a request
// sent with no call policy) disables filtering.
func dedupKeyOf(req *request) (dedupKey, bool) {
	return dedupKey{req.origin, req.cid, req.idx}, req.dedup
}

// resender is a call's resend hook: how gather re-sends the indexes
// still unanswered when a deadline passes.
type resender interface {
	// lost reports whether index i waits on a processor that is down.
	lost(i int) bool
	// resend sends the listed indexes again.
	resend(todo []int)
}

// posts is the resend hook of a call whose every index is one owner
// request: the same request object is posted again — in-process the
// same pointer, over the wire the same bytes (it is read-only once sent
// and the codec is deterministic).
type posts struct {
	m *Manager
	c call
}

func (p posts) lost(i int) bool { return p.m.machine.Router().Down(p.c.slots[i].req.dst) }

func (p posts) resend(todo []int) {
	for _, i := range todo {
		req := p.c.slots[i].req
		if err := p.m.post(req.origin, req.dst, req); err != nil {
			p.m.deliver(p.c.id, i, response{status: sendStatus(err)})
		}
	}
}

// gather is the one wait of every coordinator call: it waits until
// each index of c is answered, folds every answer into the caller's
// result as it arrives, and closes the entry. Router shutdown answers
// every index still open StatusClosed (a mid-call Close surfaces as an
// error, never a deadlock; an answer that raced it is already taken and
// wins). With no policy nothing else ends the wait. With a policy each
// attempt has a deadline; when it passes, an unanswered index whose
// processor is down is answered StatusDown, and the rest are re-sent
// through the call's resend hook — rs, or for nil the request in each
// index's slot, which the owner's dedup filter executes at most once —
// after a jittered backoff that doubles per attempt, until the retry
// budget is spent and they are answered StatusTimeout. Every synthetic
// answer goes through the table, so a real one that beat it is kept.
func (m *Manager) gather(c call, rs resender, fold func(i int, r response)) {
	defer m.close(c.id)
	pol := m.policy.Load()
	var timer *time.Timer
	var deadline <-chan time.Time
	var backoff time.Duration
	if pol != nil {
		timer = time.NewTimer(pol.Timeout)
		defer timer.Stop()
		deadline, backoff = timer.C, pol.Backoff
	}
	done := m.machine.Router().Done()
	for left, attempt := len(c.slots), 0; left > 0; {
		select {
		case i := <-c.ready:
			fold(i, c.slots[i].r)
			left--
			continue
		case <-done:
			for _, i := range m.unanswered(c) {
				m.deliver(c.id, i, response{status: StatusClosed})
			}
			done, deadline = nil, nil
			continue
		case <-deadline:
		}
		m.timeouts.Add(1)
		if rs == nil {
			rs = posts{m, c}
		}
		var todo []int
		for _, i := range m.unanswered(c) {
			if rs.lost(i) {
				m.deliver(c.id, i, response{status: StatusDown})
			} else {
				todo = append(todo, i)
			}
		}
		if attempt >= pol.Retries {
			for _, i := range todo {
				m.deliver(c.id, i, response{status: StatusTimeout})
			}
			deadline = nil
			continue
		}
		attempt++
		if backoff > 0 {
			time.Sleep(m.jitterBackoff(backoff))
			backoff *= 2
		}
		m.retransmits.Add(uint64(len(todo)))
		rs.resend(todo)
		timer.Reset(pol.Timeout)
	}
}
