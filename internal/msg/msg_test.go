package msg

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	tag := Tag{Class: ClassTask, Kind: 1}
	if err := r.Send(0, 1, tag, "hello"); err != nil {
		t.Fatal(err)
	}
	m, err := r.RecvFrom(1, 0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data.(string) != "hello" || m.Src != 0 {
		t.Fatalf("got %+v", m)
	}
}

func TestSelectiveReceiveLeavesOthersQueued(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	a := Tag{Class: ClassTask, Kind: 1}
	b := Tag{Class: ClassData, Call: 7, Kind: 1}
	// Send a data-class message first, then a task-class one.
	if err := r.Send(0, 1, b, "data"); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(0, 1, a, "task"); err != nil {
		t.Fatal(err)
	}
	// Selectively receive the task message even though it arrived second.
	m, err := r.RecvFrom(1, 0, a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data.(string) != "task" {
		t.Fatalf("selective receive picked %v", m.Data)
	}
	// The data message is still pending.
	if n := r.Pending(1); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
	m, err = r.RecvFrom(1, 0, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data.(string) != "data" {
		t.Fatalf("second receive picked %v", m.Data)
	}
}

func TestFIFOPerSenderAndTag(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	tag := Tag{Class: ClassData, Call: 1, Kind: 3}
	for i := 0; i < 100; i++ {
		if err := r.Send(0, 1, tag, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := r.RecvFrom(1, 0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if m.Data.(int) != i {
			t.Fatalf("message %d out of order: got %v", i, m.Data)
		}
	}
}

func TestRecvBlocksUntilMatchArrives(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	want := Tag{Class: ClassData, Call: 2, Kind: 5}
	got := make(chan Message, 1)
	go func() {
		m, err := r.RecvFrom(1, AnySource, want)
		if err == nil {
			got <- m
		}
	}()
	// A non-matching message must not wake the receiver with a result.
	if err := r.Send(0, 1, Tag{Class: ClassTask, Kind: 5}, "noise"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		t.Fatalf("receiver matched wrong message %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
	if err := r.Send(0, 1, want, "signal"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Data.(string) != "signal" {
			t.Fatalf("got %v", m.Data)
		}
	case <-time.After(time.Second):
		t.Fatal("receiver never matched")
	}
}

func TestAnySource(t *testing.T) {
	r := NewRouter(3)
	defer r.Close()
	tag := Tag{Class: ClassData, Call: 1, Kind: 0}
	if err := r.Send(2, 0, tag, "from2"); err != nil {
		t.Fatal(err)
	}
	m, err := r.RecvFrom(0, AnySource, tag)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != 2 {
		t.Fatalf("src = %d", m.Src)
	}
}

func TestBadProcessorNumbers(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	if err := r.Send(0, 5, Tag{Class: ClassTask}, nil); !errors.Is(err, ErrBadProcessor) {
		t.Fatalf("Send to bad dst: %v", err)
	}
	if err := r.Send(-1, 0, Tag{Class: ClassTask}, nil); !errors.Is(err, ErrBadProcessor) {
		t.Fatalf("Send from bad src: %v", err)
	}
	if _, err := r.RecvFrom(9, AnySource, Tag{Class: ClassTask}); !errors.Is(err, ErrBadProcessor) {
		t.Fatalf("Recv at bad dst: %v", err)
	}
}

func TestCloseWakesBlockedReceivers(t *testing.T) {
	r := NewRouter(1)
	errs := make(chan error, 1)
	go func() {
		_, err := r.RecvFrom(0, AnySource, Tag{Class: ClassTask})
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked receiver not woken by Close")
	}
	if err := r.Send(0, 0, Tag{Class: ClassTask}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v", err)
	}
}

// Disjoint call IDs never cross: two "concurrent distributed calls" (paper
// Fig 3.4) exchanging on the same processors with the same kinds but
// different Call values each receive exactly their own traffic.
func TestCallIsolation(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	const n = 50
	var wg sync.WaitGroup
	for _, call := range []uint64{1, 2} {
		wg.Add(2)
		go func(call uint64) { // sender on proc 0
			defer wg.Done()
			tag := Tag{Class: ClassData, Call: call, Kind: 9}
			for i := 0; i < n; i++ {
				if err := r.Send(0, 1, tag, [2]uint64{call, uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(call)
		go func(call uint64) { // receiver on proc 1
			defer wg.Done()
			tag := Tag{Class: ClassData, Call: call, Kind: 9}
			for i := 0; i < n; i++ {
				m, err := r.RecvFrom(1, 0, tag)
				if err != nil {
					t.Error(err)
					return
				}
				v := m.Data.([2]uint64)
				if v[0] != call || v[1] != uint64(i) {
					t.Errorf("call %d received %v at position %d", call, v, i)
					return
				}
			}
		}(call)
	}
	wg.Wait()
	if n := r.Pending(1); n != 0 {
		t.Fatalf("%d stray messages", n)
	}
}

// Property: with random interleavings of kinds, each receiver drains
// exactly the messages of its kind, in order.
func TestQuickSelectiveByKind(t *testing.T) {
	f := func(kinds []uint8) bool {
		r := NewRouter(2)
		defer r.Close()
		counts := map[int]int{}
		for i, k := range kinds {
			kind := int(k % 4)
			tag := Tag{Class: ClassData, Call: 1, Kind: kind}
			if err := r.Send(0, 1, tag, i); err != nil {
				return false
			}
			counts[kind]++
		}
		for kind, want := range counts {
			prev := -1
			tag := Tag{Class: ClassData, Call: 1, Kind: kind}
			for i := 0; i < want; i++ {
				m, err := r.RecvFrom(1, 0, tag)
				if err != nil {
					return false
				}
				idx := m.Data.(int)
				if idx <= prev || int(kinds[idx]%4) != kind {
					return false
				}
				prev = idx
			}
		}
		return r.Pending(1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if ClassTask.String() != "task" || ClassData.String() != "data" {
		t.Fatal("Class.String broken")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should still print")
	}
}

// TestSetLatency pins the simulated-interconnect model: messages become
// receivable only after the configured latency, order between a fixed
// pair is preserved, and the sent counter is unaffected.
func TestSetLatency(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	const d = 5 * time.Millisecond
	r.SetLatency(d)
	tag := Tag{Class: ClassData, Kind: 1}

	start := time.Now()
	if err := r.Send(0, 1, tag, "a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(0, 1, tag, "b"); err != nil {
		t.Fatal(err)
	}
	m, err := r.RecvFrom(1, 0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Errorf("message delivered after %v, want >= %v", elapsed, d)
	}
	if m.Data != "a" {
		t.Errorf("first delivery = %v, want a (FIFO)", m.Data)
	}
	m, err = r.RecvFrom(1, 0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data != "b" {
		t.Errorf("second delivery = %v, want b (FIFO)", m.Data)
	}
	if r.Sent() != 2 {
		t.Errorf("Sent = %d, want 2", r.Sent())
	}

	// Back to zero: immediate delivery again.
	r.SetLatency(0)
	if err := r.Send(1, 0, tag, "c"); err != nil {
		t.Fatal(err)
	}
	if m, err := r.RecvFrom(0, 1, tag); err != nil || m.Data != "c" {
		t.Fatalf("zero-latency delivery: %v, %v", m, err)
	}
}

// waitParked returns once a receiver is parked on tag at b.
func waitParked(b *mailbox, tag Tag) {
	for {
		b.mu.Lock()
		i := slices.IndexFunc(b.waiters, func(w *waiter) bool { return w.tag == tag })
		b.mu.Unlock()
		if i >= 0 {
			return
		}
		runtime.Gosched()
	}
}

// TestWaiterRecordsReused: receivers parked one at a time on 1000
// distinct call-salted tags leave no waiter record behind and reuse one
// record throughout, so the spare list is no longer than the peak number
// of tags waited on at once.
func TestWaiterRecordsReused(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	b := r.boxes[1]
	for call := uint64(1); call <= 1000; call++ {
		tag := Tag{Class: ClassData, Call: call, Kind: 1}
		go func() {
			waitParked(b, tag)
			if err := r.Send(0, 1, tag, call); err != nil {
				t.Error(err)
			}
		}()
		m, err := r.RecvFrom(1, 0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if m.Data.(uint64) != call {
			t.Fatalf("call %d received %v", call, m.Data)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.waiters) != 0 || len(b.spare) > 1 {
		t.Fatalf("%d waiter records left, %d spares; want 0 and at most 1", len(b.waiters), len(b.spare))
	}
}

// TestLatencyKeepsSendOrder: under a constant modeled latency the delay
// line releases messages in send order, so each of two interleaved tags
// from one sender arrives in order.
func TestLatencyKeepsSendOrder(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	r.SetLatency(50 * time.Microsecond)
	const n = 1000
	tags := []Tag{{Class: ClassData, Kind: 1}, {Class: ClassData, Kind: 2}}
	var wg sync.WaitGroup
	for _, tag := range tags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m, err := r.RecvFrom(1, 0, tag)
				if err != nil {
					t.Error(err)
					return
				}
				if m.Data.(int) != i {
					t.Errorf("tag %v: message %d arrived at position %d", tag, m.Data, i)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		for _, tag := range tags {
			if err := r.Send(0, 1, tag, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if r.Sent() != 2*n {
		t.Fatalf("Sent = %d, want %d", r.Sent(), 2*n)
	}
}

// TestDelayedToKilledProcessor: a message Send accepted before its
// processor was killed, still in the delay line at the kill, is never
// queued. It stays counted in Sent and not in DownDropped; a send after
// the kill is refused and counted in DownDropped instead.
func TestDelayedToKilledProcessor(t *testing.T) {
	r := NewRouter(2)
	defer r.Close()
	r.SetLatency(20 * time.Millisecond)
	if err := r.Send(0, 1, tag(1), "delayed"); err != nil {
		t.Fatal(err)
	}
	if err := r.KillProcessor(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(0, 1, tag(1), "refused"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if n := r.Pending(1); n != 0 {
		t.Fatalf("pending = %d at a killed processor", n)
	}
	if _, err := r.RecvFromTimeout(1, AnySource, tag(1), 10*time.Millisecond); !errors.Is(err, ErrProcessorDown) {
		t.Fatalf("recv at killed processor: %v, want ErrProcessorDown", err)
	}
	if st := r.FaultStats(); r.Sent() != 1 || st.DownDropped != 1 {
		t.Fatalf("Sent = %d, DownDropped = %d; want 1 and 1", r.Sent(), st.DownDropped)
	}
	r.lineMu.Lock()
	defer r.lineMu.Unlock()
	if len(r.line) != 0 {
		t.Fatalf("%d messages left in the delay line", len(r.line))
	}
}

// BenchmarkRecvFromParked prices a 0<->1 ping-pong on one tag with
// receivers parked on other tags at both processors: a put wakes only
// the receivers of its own tag, so the parked ones should cost nothing.
func BenchmarkRecvFromParked(b *testing.B) {
	for _, parked := range []int{0, 6} {
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			r := NewRouter(2)
			var wg sync.WaitGroup
			for i := 0; i < parked; i++ {
				other := Tag{Class: ClassData, Call: uint64(i + 1), Kind: 2}
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _ = r.RecvFrom(i%2, AnySource, other)
				}()
				waitParked(r.boxes[i%2], other)
			}
			ping := Tag{Class: ClassData, Kind: 1}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					m, err := r.RecvFrom(1, 0, ping)
					if err != nil || r.Send(1, 0, ping, m.Data) != nil {
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Send(0, 1, ping, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := r.RecvFrom(0, 1, ping); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			r.Close()
			wg.Wait()
		})
	}
}
