// Membership: seeded heartbeat machinery that turns the router's passive
// failure signals (Down, timeouts) into a proactive view of which
// processors are alive. Coordinators that consult it can fail over before
// burning a full per-call timeout budget against a dead peer.
//
// The protocol is deliberately simple — fail-stop, no rejoin: a monitor
// process on one processor (Home) pings every other processor each
// period; every processor runs a tiny responder that echoes pings back.
// A peer whose last echo is older than SuspectAfter is Suspect (it may
// still revert to Alive on a late echo); older than DeadAfter, or killed
// outright (Router.Down), it is Dead, permanently. Ping periods carry
// ±20% seeded jitter so a fleet of monitors cannot synchronize into
// probe storms, mirroring the jittered retry backoff of the array
// manager's CallPolicy.
package msg

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Membership traffic's tags, under reserved task-class kinds disjoint
// from the array manager's (-100) and every data-class kind.
var (
	pingTag = Tag{Class: ClassTask, Kind: -210}
	pongTag = Tag{Class: ClassTask, Kind: -211}
)

// MemberState is the monitor's belief about one processor.
type MemberState int32

const (
	// StateAlive: the peer echoed a ping within SuspectAfter.
	StateAlive MemberState = iota
	// StateSuspect: no echo within SuspectAfter; may revert to Alive.
	StateSuspect
	// StateDead: no echo within DeadAfter, or Router.Down reported the
	// kill. Dead is sticky — the failure model is fail-stop.
	StateDead
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// MemberEvent records one state transition observed by the monitor.
type MemberEvent struct {
	Proc  int
	State MemberState
}

// MembershipConfig parameterizes a Membership monitor. SuspectAfter and
// DeadAfter are measured from the last received echo, over the time the
// monitor was running; they should be a few multiples of Period (a single
// dropped ping must not mark a peer Suspect if the next echo arrives in
// time).
type MembershipConfig struct {
	Home         int           // processor running the monitor
	Period       time.Duration // base ping period (jittered ±20%)
	SuspectAfter time.Duration // echo age before a peer turns Suspect
	DeadAfter    time.Duration // echo age before a peer turns Dead
	Seed         int64         // seeds the period jitter
}

// MembershipStats counts the monitor's activity.
type MembershipStats struct {
	Pings         uint64 // pings sent
	Acks          uint64 // echoes received
	Transitions   uint64 // state changes recorded
	DroppedEvents uint64 // Watch events discarded on a full channel
}

// Membership is a running heartbeat monitor over one router. Create it
// with NewMembership; query it with Alive/Suspect/State; subscribe to
// transitions with Watch; stop it with Stop. All methods are safe for
// concurrent use.
type Membership struct {
	r   *Router
	cfg MembershipConfig

	mu       sync.Mutex
	state    []MemberState
	lastAck  []time.Time
	lastTick time.Time // when tick last ran; only tick uses it

	events chan MemberEvent

	pings       atomic.Uint64
	acks        atomic.Uint64
	transitions atomic.Uint64
	dropped     atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewMembership starts a heartbeat monitor on cfg.Home plus one echo
// responder per other processor. Zero durations default to Period=1ms,
// SuspectAfter=3*Period, DeadAfter=8*Period.
func NewMembership(r *Router, cfg MembershipConfig) (*Membership, error) {
	p := r.P()
	if cfg.Home < 0 || cfg.Home >= p {
		return nil, fmt.Errorf("%w: membership home %d (P=%d)", ErrBadProcessor, cfg.Home, p)
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * cfg.Period
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 8 * cfg.Period
	}
	m := &Membership{
		r:       r,
		cfg:     cfg,
		state:   make([]MemberState, p),
		lastAck: make([]time.Time, p),
		events:  make(chan MemberEvent, 8*p),
		stop:    make(chan struct{}),
	}
	now := time.Now()
	m.lastTick = now
	for i := range m.lastAck {
		m.lastAck[i] = now
	}
	for proc := 0; proc < p; proc++ {
		if proc == cfg.Home {
			continue
		}
		m.wg.Add(1)
		go m.respond(proc)
	}
	m.wg.Add(2)
	go m.collect()
	go m.probe()
	return m, nil
}

// respond echoes pings at one processor until the mailbox dies (kill or
// close) — exactly the lifetime of the processor it represents.
func (m *Membership) respond(proc int) {
	defer m.wg.Done()
	for {
		if _, err := m.r.RecvFrom(proc, m.cfg.Home, pingTag); err != nil {
			return
		}
		if err := m.r.Send(proc, m.cfg.Home, pongTag, nil); err != nil {
			return
		}
	}
}

// collect records echo arrival times at Home.
func (m *Membership) collect() {
	defer m.wg.Done()
	for {
		msg, err := m.r.RecvFrom(m.cfg.Home, AnySource, pongTag)
		if err != nil {
			return
		}
		m.acks.Add(1)
		m.mu.Lock()
		m.lastAck[msg.Src] = time.Now()
		m.mu.Unlock()
	}
}

// probe sends the periodic pings and evaluates echo ages. The period is
// drawn per tick from [0.8, 1.2) * Period with the seeded rng.
func (m *Membership) probe() {
	defer m.wg.Done()
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	d := m.jittered(rng)
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.r.Done():
			return
		case <-timer.C:
		}
		m.tick(d)
		d = m.jittered(rng)
		timer.Reset(d)
	}
}

func (m *Membership) jittered(rng *rand.Rand) time.Duration {
	return time.Duration(float64(m.cfg.Period) * (0.8 + 0.4*rng.Float64()))
}

// tick pings every non-dead peer and re-evaluates states, period after
// the previous tick. Any longer gap is a stall of the monitor's own
// process, which held back the pings and echoes too: it is no peer's
// silence, so it is not held against any.
func (m *Membership) tick(period time.Duration) {
	now := time.Now()
	stall := now.Sub(m.lastTick) - period
	m.lastTick = now
	for proc := 0; proc < m.r.P(); proc++ {
		if proc == m.cfg.Home {
			continue
		}
		m.mu.Lock()
		if stall > 0 {
			m.lastAck[proc] = m.lastAck[proc].Add(stall)
		}
		st := m.state[proc]
		age := now.Sub(m.lastAck[proc])
		m.mu.Unlock()
		if st == StateDead {
			continue
		}
		var next MemberState
		switch {
		case m.r.Down(proc) || age > m.cfg.DeadAfter:
			next = StateDead
		case age > m.cfg.SuspectAfter:
			next = StateSuspect
		default:
			next = StateAlive
		}
		if next != StateDead {
			// A dead peer eats the ping silently; sending costs nothing
			// but noise, so only live candidates are probed.
			if err := m.r.Send(m.cfg.Home, proc, pingTag, nil); err == nil {
				m.pings.Add(1)
			}
		}
		if next != st {
			m.setState(proc, next)
		}
	}
}

// setState records a transition and publishes it to Watch, dropping the
// event (counted) rather than blocking if no one is draining.
func (m *Membership) setState(proc int, next MemberState) {
	m.mu.Lock()
	m.state[proc] = next
	m.mu.Unlock()
	m.transitions.Add(1)
	select {
	case m.events <- MemberEvent{Proc: proc, State: next}:
	default:
		m.dropped.Add(1)
	}
}

// State returns the monitor's current belief about proc. The Home
// processor and out-of-range processors report Alive.
func (m *Membership) State(proc int) MemberState {
	if proc < 0 || proc >= m.r.P() || proc == m.cfg.Home {
		return StateAlive
	}
	// A kill is visible immediately through the router, ahead of the next
	// probe tick — the proactive part of the membership contract.
	if m.r.Down(proc) {
		m.mu.Lock()
		if m.state[proc] != StateDead {
			m.mu.Unlock()
			m.setState(proc, StateDead)
		} else {
			m.mu.Unlock()
		}
		return StateDead
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state[proc]
}

// Alive reports whether the monitor believes proc is alive (not Suspect,
// not Dead).
func (m *Membership) Alive(proc int) bool { return m.State(proc) == StateAlive }

// Suspect reports whether proc is currently suspected but not yet dead.
func (m *Membership) Suspect(proc int) bool { return m.State(proc) == StateSuspect }

// Watch returns the monitor's transition stream. Events are dropped
// (counted in Stats) when the buffer is full; consumers needing a
// complete history must drain promptly.
func (m *Membership) Watch() <-chan MemberEvent { return m.events }

// Stats returns the activity counters.
func (m *Membership) Stats() MembershipStats {
	return MembershipStats{
		Pings:         m.pings.Load(),
		Acks:          m.acks.Load(),
		Transitions:   m.transitions.Load(),
		DroppedEvents: m.dropped.Load(),
	}
}

// Stop halts the prober. Responder and collector goroutines exit when
// the router closes (their receives error); Stop does not wait for them.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}
