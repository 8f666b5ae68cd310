package defval

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestDefineThenValue(t *testing.T) {
	v := New[int]()
	if err := v.Define(42); err != nil {
		t.Fatalf("Define: %v", err)
	}
	if got := v.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestDoubleDefineFails(t *testing.T) {
	v := New[string]()
	if err := v.Define("a"); err != nil {
		t.Fatalf("first Define: %v", err)
	}
	if err := v.Define("a"); !errors.Is(err, ErrAlreadyDefined) {
		t.Fatalf("second Define err = %v, want ErrAlreadyDefined", err)
	}
	// Value must still be the first definition.
	if got := v.Value(); got != "a" {
		t.Fatalf("Value = %q, want %q", got, "a")
	}
}

func TestMustDefinePanics(t *testing.T) {
	v := New[int]()
	v.MustDefine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second MustDefine")
		}
	}()
	v.MustDefine(2)
}

func TestTryUndefined(t *testing.T) {
	v := New[int]()
	if _, ok := v.Try(); ok {
		t.Fatal("Try on undefined variable reported ok")
	}
	if v.IsDefined() {
		t.Fatal("IsDefined true before Define")
	}
	v.MustDefine(7)
	if x, ok := v.Try(); !ok || x != 7 {
		t.Fatalf("Try = (%d,%v), want (7,true)", x, ok)
	}
	if !v.IsDefined() {
		t.Fatal("IsDefined false after Define")
	}
}

func TestValueSuspendsUntilDefined(t *testing.T) {
	v := New[int]()
	got := make(chan int, 1)
	go func() { got <- v.Value() }()
	// The reader must suspend: nothing should arrive yet.
	select {
	case x := <-got:
		t.Fatalf("Value returned %d before Define", x)
	case <-time.After(20 * time.Millisecond):
	}
	v.MustDefine(99)
	select {
	case x := <-got:
		if x != 99 {
			t.Fatalf("Value = %d, want 99", x)
		}
	case <-time.After(time.Second):
		t.Fatal("reader never woke after Define")
	}
}

func TestAllReadersObserveSameValue(t *testing.T) {
	v := New[int]()
	const readers = 32
	var wg sync.WaitGroup
	results := make([]int, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = v.Value()
		}(i)
	}
	v.MustDefine(5)
	wg.Wait()
	for i, r := range results {
		if r != 5 {
			t.Fatalf("reader %d saw %d, want 5", i, r)
		}
	}
}

// Property (testing/quick): exactly one of n racing definitions succeeds,
// and the observed value is the value of the successful definition.
func TestQuickSingleAssignment(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		v := New[int16]()
		var successes atomic.Int32
		var winner atomic.Int32
		var wg sync.WaitGroup
		for _, x := range vals {
			wg.Add(1)
			go func(x int16) {
				defer wg.Done()
				if v.Define(x) == nil {
					successes.Add(1)
					winner.Store(int32(x))
				}
			}(x)
		}
		wg.Wait()
		return successes.Load() == 1 && v.Value() == int16(winner.Load())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDefinedChannelInSelect(t *testing.T) {
	v := New[int]()
	select {
	case <-v.Defined():
		t.Fatal("Defined channel closed before Define")
	default:
	}
	v.MustDefine(3)
	select {
	case <-v.Defined():
	default:
		t.Fatal("Defined channel not closed after Define")
	}
}

func TestSignal(t *testing.T) {
	s := NewSignal()
	fired := make(chan struct{})
	go func() {
		Wait(s)
		close(fired)
	}()
	select {
	case <-fired:
		t.Fatal("Wait returned before Fire")
	case <-time.After(10 * time.Millisecond):
	}
	Fire(s)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("Wait never returned after Fire")
	}
}

func TestZeroValueVarUsable(t *testing.T) {
	var v Var[float64]
	go v.MustDefine(2.5)
	if got := v.Value(); got != 2.5 {
		t.Fatalf("Value = %v, want 2.5", got)
	}
}

// A defined variable is read without a lock or a channel: Value, Try,
// IsDefined and Defined allocate nothing, and a variable defined before
// anyone waits costs only its own allocation.
func TestDefinedReadsZeroAllocs(t *testing.T) {
	v := New[[]float64]()
	v.MustDefine([]float64{1, 2})
	reads := map[string]func(){
		"Value":     func() { _ = v.Value() },
		"Try":       func() { _, _ = v.Try() },
		"IsDefined": func() { _ = v.IsDefined() },
		"Defined":   func() { <-v.Defined() },
	}
	for name, read := range reads {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s on a defined variable: %v allocs, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		w := New[[2]float64]()
		w.MustDefine([2]float64{3, 4})
		_ = w.Value()
	}); n != 1 {
		t.Errorf("New+Define+Value with no waiter: %v allocs, want 1", n)
	}
}

// Two definers race while 64 readers use every read path at once:
// exactly one definition wins and every reader sees its value.
func TestDefineRaceStress(t *testing.T) {
	const readers = 64
	for round := 0; round < 50; round++ {
		v := New[int]()
		var wins atomic.Int32
		var winner atomic.Int64
		seen := make([]int, readers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				got := -1
				switch r % 4 {
				case 0:
					got = v.Value()
				case 1:
					for {
						if x, ok := v.Try(); ok {
							got = x
							break
						}
						runtime.Gosched()
					}
				case 2:
					for !v.IsDefined() {
						runtime.Gosched()
					}
					got = v.Value()
				case 3:
					select {
					case <-v.Defined():
					case <-time.After(10 * time.Second):
						t.Errorf("reader %d: Defined never closed", r)
						return
					}
					got, _ = v.Try()
				}
				seen[r] = got
			}(r)
		}
		for d := 1; d <= 2; d++ {
			wg.Add(1)
			go func(x int) {
				defer wg.Done()
				<-start
				if v.Define(x) == nil {
					wins.Add(1)
					winner.Store(int64(x))
				}
			}(round*10 + d)
		}
		close(start)
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("round %d: %d definitions succeeded, want 1", round, wins.Load())
		}
		for r, x := range seen {
			if x != int(winner.Load()) {
				t.Fatalf("round %d: reader %d saw %d, want %d", round, r, x, winner.Load())
			}
		}
	}
}
