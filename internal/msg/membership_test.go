package msg

import (
	"testing"
	"time"
)

// waitState polls until the monitor reports want for proc, failing after
// a generous deadline (heartbeat periods are ~1ms in these tests).
func waitState(t *testing.T, m *Membership, proc int, want MemberState) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m.State(proc) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("proc %d: state %v, want %v", proc, m.State(proc), want)
}

// TestMembershipAliveSteadyState: with every responder running, all peers
// stay Alive and the monitor accumulates pings and acks. Pings flow every
// millisecond, but the suspect and dead windows sit far above any
// scheduler stall, so a slow host cannot fake a transition.
func TestMembershipAliveSteadyState(t *testing.T) {
	r := NewRouter(4)
	defer r.Close()
	m, err := NewMembership(r, MembershipConfig{Home: 0, Period: time.Millisecond, Seed: 7,
		SuspectAfter: 250 * time.Millisecond, DeadAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	time.Sleep(20 * time.Millisecond)
	for p := 1; p < 4; p++ {
		if st := m.State(p); st != StateAlive {
			t.Fatalf("proc %d: state %v, want alive", p, st)
		}
		if !m.Alive(p) || m.Suspect(p) {
			t.Fatalf("proc %d: Alive/Suspect predicates inconsistent", p)
		}
	}
	s := m.Stats()
	if s.Pings == 0 || s.Acks == 0 {
		t.Fatalf("no heartbeat traffic: %+v", s)
	}
	if s.Transitions != 0 {
		t.Fatalf("spurious transitions in a healthy run: %+v", s)
	}
}

// TestMembershipKillTransitions: a killed peer is reported Dead — both
// proactively through State's router check and on the Watch stream — and
// Dead is sticky.
func TestMembershipKillTransitions(t *testing.T) {
	r := NewRouter(4)
	defer r.Close()
	m, err := NewMembership(r, MembershipConfig{Home: 0, Period: time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	time.Sleep(5 * time.Millisecond)
	if err := r.KillProcessor(2); err != nil {
		t.Fatal(err)
	}
	// Proactive: the router's Down signal is visible before any probe
	// deadline expires.
	if st := m.State(2); st != StateDead {
		t.Fatalf("killed proc 2: state %v, want dead immediately", st)
	}
	// The transition must also appear on the event stream.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case ev := <-m.Watch():
			if ev.Proc == 2 && ev.State == StateDead {
				goto seen
			}
		case <-deadline:
			t.Fatal("no dead event for proc 2 on Watch")
		}
	}
seen:
	// Sticky: still dead after more probe ticks, and survivors stay alive.
	time.Sleep(10 * time.Millisecond)
	if st := m.State(2); st != StateDead {
		t.Fatalf("dead state not sticky: %v", st)
	}
	for _, p := range []int{1, 3} {
		waitState(t, m, p, StateAlive)
	}
	if s := m.Stats(); s.Transitions == 0 {
		t.Fatalf("kill recorded no transitions: %+v", s)
	}
}

// TestMembershipSuspectReverts: a peer whose echoes are delayed past
// SuspectAfter turns Suspect, then reverts to Alive when echoes resume —
// the one non-sticky transition in the protocol.
func TestMembershipSuspectReverts(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	// Delay every message long enough that echo ages blow past
	// SuspectAfter but stay under DeadAfter.
	r.SetFaultPlan(&FaultPlan{Seed: 1, Rule: FaultRule{Jitter: 40 * time.Millisecond}})
	m, err := NewMembership(r, MembershipConfig{
		Home:         0,
		Period:       2 * time.Millisecond,
		SuspectAfter: 6 * time.Millisecond,
		DeadAfter:    time.Minute,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	waitState(t, m, 1, StateSuspect)
	// Lift the delay; queued echoes drain and fresh ones arrive on time.
	r.SetFaultPlan(nil)
	waitState(t, m, 1, StateAlive)
	if m.State(1) == StateDead {
		t.Fatal("suspect escalated to dead despite resumed echoes")
	}
}

// TestMembershipHomeAndRangeDefaults: the home processor and out-of-range
// queries report Alive rather than panicking or lying about peers the
// monitor does not track.
func TestMembershipHomeAndRangeDefaults(t *testing.T) {
	r := NewRouter(3)
	defer r.Close()
	m, err := NewMembership(r, MembershipConfig{Home: 1, Period: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	for _, p := range []int{1, -1, 3, 99} {
		if st := m.State(p); st != StateAlive {
			t.Fatalf("State(%d) = %v, want alive default", p, st)
		}
	}
	if _, err := NewMembership(r, MembershipConfig{Home: 5}); err == nil {
		t.Fatal("out-of-range home accepted")
	}
}

// TestMembershipOwnStallNotHeldAgainstPeers: ticks further apart than
// their period mean the monitor's own process was not running, so echoes
// that were current before the stall do not turn a peer Dead; a peer
// silent while the monitor ticked on time still turns Dead.
func TestMembershipOwnStallNotHeldAgainstPeers(t *testing.T) {
	r := NewRouter(3)
	defer r.Close()
	// An hour's period keeps the prober out of the way: ticks are driven
	// by hand, one millisecond apart unless a stall is staged.
	m, err := NewMembership(r, MembershipConfig{Home: 0, Period: time.Hour,
		SuspectAfter: 3 * time.Millisecond, DeadAfter: 8 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	stage := func(sinceTick time.Duration, ages ...time.Duration) {
		m.lastTick = time.Now().Add(-sinceTick)
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, age := range ages {
			m.lastAck[i+1] = time.Now().Add(-age)
		}
	}

	// The whole process stopped for 20 ms: the tick and the echoes alike.
	stage(21*time.Millisecond, 22*time.Millisecond, 22*time.Millisecond)
	m.tick(time.Millisecond)
	for _, p := range []int{1, 2} {
		if st := m.State(p); st != StateAlive {
			t.Fatalf("after a monitor stall, proc %d: state %v, want alive", p, st)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); m.Stats().Acks < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the tick's pings were never answered")
		}
	}

	// The monitor ticked on time; proc 2 alone went 20 ms without an echo.
	stage(time.Millisecond, 0, 20*time.Millisecond)
	m.tick(time.Millisecond)
	if st := m.State(2); st != StateDead {
		t.Fatalf("silent proc 2: state %v, want dead", st)
	}
	if st := m.State(1); st != StateAlive {
		t.Fatalf("proc 1: state %v, want alive", st)
	}
}
