package msg

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/msg/wire"
)

func tag(kind int) Tag { return Tag{Class: ClassData, Kind: kind} }

func TestFaultDropAll(t *testing.T) {
	r := NewRouter(2)
	r.SetFaultPlan(&FaultPlan{Seed: 1, Rule: FaultRule{Drop: 1}})
	for i := 0; i < 10; i++ {
		if err := r.Send(0, 1, tag(1), i); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if n := r.Pending(1); n != 0 {
		t.Fatalf("pending = %d, want 0 (all dropped)", n)
	}
	if st := r.FaultStats(); st.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", st.Dropped)
	}
	if r.Sent() != 0 {
		t.Fatalf("Sent = %d, want 0", r.Sent())
	}
}

func TestFaultDupAll(t *testing.T) {
	r := NewRouter(2)
	r.SetFaultPlan(&FaultPlan{Seed: 1, Rule: FaultRule{Dup: 1}})
	for i := 0; i < 5; i++ {
		if err := r.Send(0, 1, tag(1), i); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if n := r.Pending(1); n != 10 {
		t.Fatalf("pending = %d, want 10 (every message duplicated)", n)
	}
	if st := r.FaultStats(); st.Duplicated != 5 {
		t.Fatalf("Duplicated = %d, want 5", st.Duplicated)
	}
	// Both copies are received independently.
	seen := map[int]int{}
	for i := 0; i < 10; i++ {
		m, err := r.RecvFrom(1, AnySource, tag(1))
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		seen[m.Data.(int)]++
	}
	for i := 0; i < 5; i++ {
		if seen[i] != 2 {
			t.Fatalf("value %d received %d times, want 2", i, seen[i])
		}
	}
}

// dupProbe is a payload with a registered wire codec: the fault plane
// duplicates it as a codec round trip, so a copy is a distinct object.
type dupProbe struct{ vals []float64 }

func init() {
	wire.Register(wire.Codec{
		ID:     wire.CustomBase + 100,
		Type:   reflect.TypeOf(&dupProbe{}),
		Append: func(b []byte, v any) []byte { return wire.AppendFloat64s(b, v.(*dupProbe).vals) },
		Read: func(b []byte) (any, []byte, error) {
			xs, rest, err := wire.ReadFloat64s(b)
			if err != nil {
				return nil, rest, err
			}
			return &dupProbe{vals: xs}, rest, nil
		},
		Size: func(v any) int { return wire.SizeFloat64s(v.(*dupProbe).vals) },
	})
}

// TestFaultDupIsCodecCopy: a duplicate never shares the sender's object.
// The original arrives as sent; the copy is a distinct value with the
// contents at Send time, so mutating (or recycling) the original after
// Send does not show in it.
func TestFaultDupIsCodecCopy(t *testing.T) {
	r := NewRouter(2)
	r.SetFaultPlan(&FaultPlan{Seed: 1, Rule: FaultRule{Dup: 1}})
	orig := &dupProbe{vals: []float64{1, 2, 3}}
	if err := r.Send(0, 1, tag(1), orig); err != nil {
		t.Fatalf("send: %v", err)
	}
	orig.vals[0] = 99
	first, err := r.RecvFrom(1, AnySource, tag(1))
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if first.Data != orig {
		t.Fatalf("first delivery is %v, want the original object", first.Data)
	}
	second, err := r.RecvFrom(1, AnySource, tag(1))
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	dup, ok := second.Data.(*dupProbe)
	if !ok || dup == orig {
		t.Fatalf("duplicate is %#v, want a distinct *dupProbe", second.Data)
	}
	if !reflect.DeepEqual(dup.vals, []float64{1, 2, 3}) {
		t.Fatalf("duplicate holds %v, want the contents at Send time [1 2 3]", dup.vals)
	}
	if st := r.FaultStats(); st.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", st.Duplicated)
	}
}

// TestFaultDupOriginalFirst: a copy is queued behind its original and
// becomes deliverable no earlier, so under any jitter and reorder draw
// every original is received before its copy. Receivers that filter
// duplicates by identity rely on it: a copy carries no reply channel.
func TestFaultDupOriginalFirst(t *testing.T) {
	const n = 16
	for seed := int64(1); seed <= 40; seed++ {
		r := NewRouter(2)
		r.SetFaultPlan(&FaultPlan{Seed: seed, Rule: FaultRule{Dup: 1, Jitter: 200 * time.Microsecond, Reorder: 0.5}})
		sent := make(map[*dupProbe]int, n)
		for i := 0; i < n; i++ {
			p := &dupProbe{vals: []float64{float64(i)}}
			sent[p] = i
			if err := r.Send(0, 1, tag(1), p); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		gotOrig := make([]bool, n)
		for k := 0; k < 2*n; k++ {
			m, err := r.RecvFromTimeout(1, AnySource, tag(1), time.Second)
			if err != nil {
				t.Fatalf("seed %d: recv %d: %v", seed, k, err)
			}
			p := m.Data.(*dupProbe)
			if i, ok := sent[p]; ok {
				gotOrig[i] = true
				continue
			}
			if i := int(p.vals[0]); !gotOrig[i] {
				t.Fatalf("seed %d: copy of message %d received before its original", seed, i)
			}
		}
		r.Close()
	}
}

// TestFaultDupUnencodable: a payload the codec cannot encode is
// delivered exactly once rather than handed out twice as a shared
// object.
func TestFaultDupUnencodable(t *testing.T) {
	r := NewRouter(2)
	r.SetFaultPlan(&FaultPlan{Seed: 1, Rule: FaultRule{Dup: 1}})
	ch := make(chan int)
	if err := r.Send(0, 1, tag(1), ch); err != nil {
		t.Fatalf("send: %v", err)
	}
	if n := r.Pending(1); n != 1 {
		t.Fatalf("pending = %d, want 1 (unencodable payload delivered once)", n)
	}
	if st := r.FaultStats(); st.Duplicated != 0 || r.Sent() != 1 {
		t.Fatalf("Duplicated = %d, Sent = %d, want 0 and 1", st.Duplicated, r.Sent())
	}
	if m, err := r.RecvFrom(1, AnySource, tag(1)); err != nil || m.Data != any(ch) {
		t.Fatalf("recv: %v %v, want the original channel", m.Data, err)
	}
}

func TestFaultReorderSwapsNeighbours(t *testing.T) {
	r := NewRouter(2)
	r.SetFaultPlan(&FaultPlan{Seed: 1, Rule: FaultRule{Reorder: 1}})
	for i := 0; i < 3; i++ {
		if err := r.Send(0, 1, tag(1), i); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	// Every put swaps with its predecessor: [0] -> [1,0] -> [1,2,0].
	want := []int{1, 2, 0}
	for _, w := range want {
		m, err := r.RecvFrom(1, AnySource, tag(1))
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if m.Data.(int) != w {
			t.Fatalf("got %d, want %d (FIFO broken by reorder rule)", m.Data.(int), w)
		}
	}
	if st := r.FaultStats(); st.Reordered != 2 {
		t.Fatalf("Reordered = %d, want 2 (first message had no predecessor)", st.Reordered)
	}
}

func TestFaultSeedDeterminism(t *testing.T) {
	deliveries := func() []int {
		r := NewRouter(2)
		r.SetFaultPlan(&FaultPlan{Seed: 42, Rule: FaultRule{Drop: 0.5}})
		for i := 0; i < 100; i++ {
			if err := r.Send(0, 1, tag(1), i); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		var got []int
		for r.Pending(1) > 0 {
			m, err := r.RecvFrom(1, AnySource, tag(1))
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			got = append(got, m.Data.(int))
		}
		return got
	}
	a := deliveries()
	bb := deliveries()
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("drop=0.5 delivered %d/100, suspicious", len(a))
	}
	if len(a) != len(bb) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(bb))
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], bb[i])
		}
	}
}

func TestFaultPairOverride(t *testing.T) {
	r := NewRouter(2)
	r.SetFaultPlan(&FaultPlan{
		Seed:  1,
		Pairs: map[[2]int]FaultRule{{0, 1}: {Drop: 1}},
	})
	if err := r.Send(0, 1, tag(1), "x"); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := r.Send(1, 0, tag(1), "y"); err != nil {
		t.Fatalf("send: %v", err)
	}
	if r.Pending(1) != 0 {
		t.Fatalf("0->1 should be dropped by the pair rule")
	}
	if r.Pending(0) != 1 {
		t.Fatalf("1->0 should be delivered (default rule is reliable)")
	}
}

func TestKillProcessor(t *testing.T) {
	r := NewRouter(3)
	// A receiver blocked at the killed processor is woken with
	// ErrProcessorDown.
	errc := make(chan error, 1)
	go func() {
		_, err := r.RecvFrom(1, AnySource, tag(1))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := r.KillProcessor(1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrProcessorDown) {
			t.Fatalf("blocked recv got %v, want ErrProcessorDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked receiver not woken by KillProcessor")
	}
	// Sends to the dead processor vanish silently.
	if err := r.Send(0, 1, tag(1), "x"); err != nil {
		t.Fatalf("send to dead proc: %v", err)
	}
	if r.Pending(1) != 0 {
		t.Fatal("message queued at a dead processor")
	}
	if st := r.FaultStats(); st.DownDropped != 1 {
		t.Fatalf("DownDropped = %d, want 1", st.DownDropped)
	}
	if !r.Down(1) || r.Down(0) || r.Down(2) {
		t.Fatalf("Down: got (%v,%v,%v), want (false-ish pattern) 1 down only",
			r.Down(0), r.Down(1), r.Down(2))
	}
	// Idempotent; live processors unaffected.
	if err := r.KillProcessor(1); err != nil {
		t.Fatalf("second kill: %v", err)
	}
	if err := r.Send(0, 2, tag(1), "y"); err != nil {
		t.Fatalf("send to live proc: %v", err)
	}
	if m, err := r.RecvFrom(2, AnySource, tag(1)); err != nil || m.Data != "y" {
		t.Fatalf("live proc recv: %v %v", m.Data, err)
	}
}

func TestRecvTimeout(t *testing.T) {
	r := NewRouter(2)
	start := time.Now()
	_, err := r.RecvFromTimeout(1, AnySource, tag(1), 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("timed out after %v, before the deadline", el)
	}
	// A message that is queued but not deliverable before the deadline
	// still times out — and stays queued for a later receive.
	r.SetLatency(80 * time.Millisecond)
	if err := r.Send(0, 1, tag(7), "slow"); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := r.RecvFromTimeout(1, 0, tag(7), 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout for undeliverable message", err)
	}
	m, err := r.RecvFromTimeout(1, 0, tag(7), time.Second)
	if err != nil || m.Data != "slow" {
		t.Fatalf("late recv: %v %v", m.Data, err)
	}
	// d <= 0 waits forever (delivered by a concurrent send).
	go func() {
		time.Sleep(10 * time.Millisecond)
		r.SetLatency(0)
		r.Send(0, 1, tag(8), "ok")
	}()
	if m, err := r.RecvFromTimeout(1, 0, tag(8), 0); err != nil || m.Data != "ok" {
		t.Fatalf("d=0 recv: %v %v", m.Data, err)
	}
}

// TestReadyMessageNotStarvedByDelayed: a ready match sent after a delayed
// match must be returned immediately, not starved until the delayed one
// is due (the delayed one waits in the delay line, not in the queue).
func TestReadyMessageNotStarvedByDelayed(t *testing.T) {
	r := NewRouter(2)
	r.SetLatency(300 * time.Millisecond)
	if err := r.Send(0, 1, tag(1), "delayed"); err != nil {
		t.Fatalf("send: %v", err)
	}
	r.SetLatency(0)
	if err := r.Send(0, 1, tag(1), "ready"); err != nil {
		t.Fatalf("send: %v", err)
	}
	start := time.Now()
	m, err := r.RecvFrom(1, 0, tag(1))
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if m.Data != "ready" {
		t.Fatalf("got %q, want the ready message first", m.Data)
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("ready message took %v, starved behind the delayed one", el)
	}
	if m, err := r.RecvFrom(1, 0, tag(1)); err != nil || m.Data != "delayed" {
		t.Fatalf("delayed recv: %v %v", m.Data, err)
	}
}

// TestLatencyRecvAllocs pins the reusable delay-line timer and waiter
// records: a latency-mode send/receive round must not allocate a timer
// or a waiter per message. Steady state is 0 allocs/op; allow 1 for
// runtime noise.
func TestLatencyRecvAllocs(t *testing.T) {
	r := NewRouter(2)
	r.SetLatency(50 * time.Microsecond)
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.Send(0, 1, tag(1), nil); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := r.RecvFrom(1, AnySource, tag(1)); err != nil {
			t.Fatalf("recv: %v", err)
		}
	})
	if allocs > 1 {
		t.Fatalf("latency-mode send+recv allocated %.1f/op, want <= 1", allocs)
	}
}

// TestCloseSemantics pins the shutdown contract: Close is idempotent,
// Send-after-Close and Recv-after-Close return ErrClosed, and Done is
// closed so channel-based waiters can unblock.
func TestCloseSemantics(t *testing.T) {
	r := NewRouter(2)
	select {
	case <-r.Done():
		t.Fatal("Done closed before Close")
	default:
	}
	r.Close()
	r.Close() // idempotent
	select {
	case <-r.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
	if err := r.Send(0, 1, tag(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}
	if _, err := r.RecvFrom(1, AnySource, tag(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after Close: %v, want ErrClosed", err)
	}
	if _, err := r.RecvFromTimeout(1, AnySource, tag(1), time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("RecvTimeout after Close: %v, want ErrClosed", err)
	}
}
