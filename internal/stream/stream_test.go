package stream

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSendRecv(t *testing.T) {
	s := New[int]()
	tail := s.Send(1)
	tail = tail.Send(2)
	tail.Close()

	v, rest, ok := s.Recv()
	if !ok || v != 1 {
		t.Fatalf("first Recv = (%d,%v)", v, ok)
	}
	v, rest, ok = rest.Recv()
	if !ok || v != 2 {
		t.Fatalf("second Recv = (%d,%v)", v, ok)
	}
	if _, _, ok = rest.Recv(); ok {
		t.Fatal("expected end of stream")
	}
}

func TestRecvSuspendsUntilProduced(t *testing.T) {
	s := New[string]()
	got := make(chan string, 1)
	go func() {
		v, _, _ := s.Recv()
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("Recv returned %q before Send", v)
	case <-time.After(20 * time.Millisecond):
	}
	s.Send("hello")
	select {
	case v := <-got:
		if v != "hello" {
			t.Fatalf("Recv = %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("consumer never woke")
	}
}

func TestWriterReader(t *testing.T) {
	s := New[int]()
	go func() {
		w := NewWriter(s)
		for i := 0; i < 100; i++ {
			w.Put(i)
		}
		w.End()
	}()
	r := NewReader(s)
	for i := 0; i < 100; i++ {
		v, ok := r.Next()
		if !ok || v != i {
			t.Fatalf("element %d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("expected end after 100 elements")
	}
}

func TestFromSliceCollectRoundTrip(t *testing.T) {
	f := func(vs []int32) bool {
		got := Collect(FromSlice(vs))
		if len(vs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectN(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4, 5})
	head, rest, ok := CollectN(s, 3)
	if !ok || !reflect.DeepEqual(head, []int{1, 2, 3}) {
		t.Fatalf("CollectN = %v, %v", head, ok)
	}
	tailVals := Collect(rest)
	if !reflect.DeepEqual(tailVals, []int{4, 5}) {
		t.Fatalf("rest = %v", tailVals)
	}
	// Asking for more than available reports !ok.
	if _, _, ok := CollectN(FromSlice([]int{1}), 5); ok {
		t.Fatal("CollectN past end should report !ok")
	}
}

func TestForward(t *testing.T) {
	src := FromSlice([]int{7, 8, 9})
	dst := New[int]()
	go Forward(src, dst)
	if got := Collect(dst); !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Fatalf("Forward result = %v", got)
	}
}

func TestSpliceToForwardsRemainder(t *testing.T) {
	// Producer writes a prefix then splices in a second stream: the
	// paper's Out_stream = [... | Out_stream_tail] idiom.
	out := New[int]()
	second := FromSlice([]int{3, 4})
	go func() {
		w := NewWriter(out)
		w.Put(1)
		w.Put(2)
		w.SpliceTo(second)
	}()
	if got := Collect(out); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("spliced stream = %v", got)
	}
}

func TestMap(t *testing.T) {
	src := FromSlice([]int{1, 2, 3})
	doubled := Map(src, func(x int) int { return 2 * x })
	if got := Collect(doubled); !reflect.DeepEqual(got, []int{2, 4, 6}) {
		t.Fatalf("Map result = %v", got)
	}
}

func TestZip(t *testing.T) {
	a := FromSlice([]int{1, 2, 3})
	b := FromSlice([]int{10, 20}) // shorter: zip ends with it
	sum := Zip(a, b, func(x, y int) int { return x + y })
	if got := Collect(sum); !reflect.DeepEqual(got, []int{11, 22}) {
		t.Fatalf("Zip result = %v", got)
	}
}

func TestDoubleSendPanics(t *testing.T) {
	s := New[int]()
	s.Send(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic defining a cell twice")
		}
	}()
	s.Send(2)
}

func TestTryRecv(t *testing.T) {
	s := New[int]()
	if _, _, _, defined := s.TryRecv(); defined {
		t.Fatal("TryRecv reported defined on fresh cell")
	}
	tail := s.Send(5)
	v, rest, ok, defined := s.TryRecv()
	if !defined || !ok || v != 5 || rest != tail {
		t.Fatalf("TryRecv = (%d,%v,%v)", v, ok, defined)
	}
	tail.Close()
	if _, _, ok, defined := tail.TryRecv(); ok || !defined {
		t.Fatal("TryRecv on closed cell should report defined && !ok")
	}
}

// Many concurrent consumers of the same stream position all observe the same
// element (single-assignment semantics of the cell).
func TestConcurrentConsumersSameView(t *testing.T) {
	s := New[int]()
	const n = 16
	var wg sync.WaitGroup
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _ := s.Recv()
			vals[i] = v
		}(i)
	}
	s.Send(77)
	wg.Wait()
	for i, v := range vals {
		if v != 77 {
			t.Fatalf("consumer %d saw %d", i, v)
		}
	}
}

// A Writer allocates its cells a slab at a time, and neither Put nor
// Next makes a channel when the reader does not wait.
func TestWriterSlabAllocs(t *testing.T) {
	const n = 4096
	allocs := testing.AllocsPerRun(5, func() {
		s := New[float64]()
		w, r := NewWriter(s), NewReader(s)
		for i := 0; i < n; i++ {
			w.Put(float64(i))
			if v, ok := r.Next(); !ok || v != float64(i) {
				t.Fatalf("Next = (%v,%v), want (%d,true)", v, ok, i)
			}
		}
	})
	if max := float64(n/slabCells + 4); allocs > max {
		t.Fatalf("%d Put/Next pairs: %v allocs, want at most %v", n, allocs, max)
	}
}
