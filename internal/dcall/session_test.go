package dcall

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arraymgr"
	"repro/internal/darray"
	"repro/internal/defval"
	"repro/internal/grid"
	"repro/internal/spmd"
)

// firstLast keeps the left operand's first element and the right
// operand's last: up the rank-ordered tree it leaves rank 0's first and
// the last rank's last, so a merge out of order shows.
func firstLast(a, b []float64) []float64 { return []float64{a[0], b[len(b)-1]} }

func sum(a, b []float64) []float64 {
	c := make([]float64, len(a))
	for i := range a {
		c[i] = a[i] + b[i]
	}
	return c
}

// registerCombiners registers the test combiners in every runtime.
func registerCombiners(t *testing.T, rts ...*Runtime) {
	t.Helper()
	for _, r := range rts {
		if err := r.RegisterCombine("test:firstLast", firstLast); err != nil {
			t.Fatal(err)
		}
		if err := r.RegisterCombine("test:sum", sum); err != nil {
			t.Fatal(err)
		}
	}
}

// stepBody updates its section from what it held, a constant and a step
// value, and returns a status and two reductions computed from the
// result; parameters are Const(c), step value s, Local, Index, Status,
// and two ReduceNamed (firstLast, sum). Fed the same values, N session
// steps and N one-shot calls must leave the same everything.
func stepBody(w *spmd.World, a *Args) {
	c, s, sec, rank := a.Float(0), a.Float(1), a.Section(2), a.Index(3)
	for i := range sec.F {
		sec.F[i] = 0.5*sec.F[i] + c + s + float64(10*rank+i)
	}
	a.SetStatus(4, 10+rank+int(s))
	copy(a.Reduction(5), []float64{sec.F[0], sec.F[len(sec.F)-1]})
	a.Reduction(6)[0] = sec.F[0]
}

func createOver(t *testing.T, r *Runtime, procs []int) darray.ID {
	t.Helper()
	id, st := r.AM.CreateArray(0, arraymgr.CreateSpec{
		Type: darray.Double, Dims: []int{8}, Procs: procs,
		Distrib: []grid.Decomp{grid.BlockDefault()}, Borders: arraymgr.NoBorderSpec{},
		Indexing: grid.RowMajor,
	})
	if st != arraymgr.StatusOK {
		t.Fatalf("create over %v: %v", procs, st)
	}
	return id
}

// TestSessionMatchesCalls runs three session steps and three one-shot
// calls with the same values over a part-local group, over groups
// spanning both parts with rank 0 on either side, and over a group
// wholly in the other part: every step returns the call's status and
// reductions and leaves the call's section contents.
func TestSessionMatchesCalls(t *testing.T) {
	rts, _ := newPartsLinks(t, Registered{Name: "step", Body: stepBody})
	registerCombiners(t, rts[:]...)
	r := rts[0]
	for _, procs := range [][]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}} {
		viaCalls, viaSession := createOver(t, r, procs), createOver(t, r, procs)
		s, st := r.Open(0, procs, "step", []Param{Const(7.0), StepConst(), Local(viaSession), Index(), Status(),
			ReduceNamed(2, "test:firstLast", nil), ReduceNamed(1, "test:sum", nil)})
		if st != StatusOK {
			t.Fatalf("open over %v: status %d", procs, st)
		}
		for step := 1.0; step <= 3; step++ {
			outs := [2]*defval.Var[[]float64]{defval.New[[]float64](), defval.New[[]float64]()}
			callSt := r.Call(0, procs, "step", []Param{Const(7.0), Const(step), Local(viaCalls), Index(), Status(),
				ReduceNamed(2, "test:firstLast", outs[0]), ReduceNamed(1, "test:sum", outs[1])})
			stepSt, reductions := s.Step(step)
			if callSt != 11+int(step) || stepSt != callSt {
				t.Fatalf("over %v step %v: session status %d, call status %d, want %d",
					procs, step, stepSt, callSt, 11+int(step))
			}
			if want := [][]float64{outs[0].Value(), outs[1].Value()}; !reflect.DeepEqual(reductions, want) {
				t.Fatalf("over %v step %v: session reductions %v, call reductions %v", procs, step, reductions, want)
			}
		}
		s.Close()
		a, _ := r.AM.ReadBlock(0, viaCalls, []int{0}, []int{8})
		b, _ := r.AM.ReadBlock(0, viaSession, []int{0}, []int{8})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("over %v: session left %v, calls left %v", procs, b, a)
		}
	}
}

// TestSessionStepMessagePin counts the messages that cross between the
// parts for a group wholly in part 1, called from part 0: a session step
// crosses once each way (the step order down, the merged tuple up); a
// one-shot call still crosses with one spawn order per member and one
// tuple.
func TestSessionStepMessagePin(t *testing.T) {
	rts, links := newPartsLinks(t, Registered{Name: "step", Body: stepBody})
	registerCombiners(t, rts[:]...)
	r := rts[0]
	procs := []int{2, 3}
	id := createOver(t, r, procs)
	crossings := func(f func()) (down, up int64) {
		d0, u0 := links[0].sent.Load(), links[1].sent.Load()
		f()
		return links[0].sent.Load() - d0, links[1].sent.Load() - u0
	}
	outs := [2]*defval.Var[[]float64]{defval.New[[]float64](), defval.New[[]float64]()}
	down, up := crossings(func() {
		if st := r.Call(0, procs, "step", []Param{Const(1.0), Const(2.0), Local(id), Index(), Status(),
			ReduceNamed(2, "test:firstLast", outs[0]), ReduceNamed(1, "test:sum", outs[1])}); st != 13 {
			t.Fatalf("call: status %d", st)
		}
	})
	if down != 2 || up != 1 {
		t.Errorf("one-shot call crossed %d down, %d up; want 2 spawn orders down, 1 tuple up", down, up)
	}
	s, st := r.Open(0, procs, "step", []Param{Const(1.0), StepConst(), Local(id), Index(), Status(),
		ReduceNamed(2, "test:firstLast", nil), ReduceNamed(1, "test:sum", nil)})
	if st != StatusOK {
		t.Fatalf("open: status %d", st)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		down, up := crossings(func() {
			if st, _ := s.Step(2.0); st != 13 {
				t.Fatalf("step: status %d", st)
			}
		})
		if down != 1 || up != 1 {
			t.Errorf("session step %d crossed %d down, %d up; want 1 and 1", i, down, up)
		}
	}
}

// settleGoroutines waits up to a second for the goroutine count to fall
// to at most base and reports the last count.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestSessionCloseEndsWrappers: Close ends every resident copy, on an
// in-process machine and on the parts (a remote rank 0 and a member
// below it); closing twice, and closing after the machine shut down,
// return.
func TestSessionCloseEndsWrappers(t *testing.T) {
	ranks := func(w *spmd.World, a *Args) {
		if _, err := w.AllReduceSum(a.Float(0)); err != nil {
			panic(err)
		}
	}
	r := newRuntime(t, 4)
	if err := r.Register(Registered{Name: "ranks", Body: ranks}); err != nil {
		t.Fatal(err)
	}
	rp := newParts(t, Registered{Name: "ranks", Body: ranks})
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		r     *Runtime
		procs []int
	}{{r, []int{0, 1, 2, 3}}, {r, []int{3, 1}}, {rp, []int{2, 3}}, {rp, []int{1, 2, 3}}} {
		s, st := c.r.Open(0, c.procs, "ranks", []Param{StepConst()})
		if st != StatusOK {
			t.Fatalf("open over %v: status %d", c.procs, st)
		}
		for i := 0; i < 3; i++ {
			if st, _ := s.Step(float64(i)); st != StatusOK {
				t.Fatalf("step over %v: status %d", c.procs, st)
			}
		}
		s.Close()
		s.Close()
		if st, _ := s.Step(1.0); st != StatusInvalid {
			t.Errorf("step after close: status %d, want %d", st, StatusInvalid)
		}
		if n := settleGoroutines(base); n > base {
			t.Fatalf("after closing a session over %v: %d goroutines, %d before it opened", c.procs, n, base)
		}
	}
	s, st := r.Open(0, []int{0, 1}, "ranks", []Param{StepConst()})
	if st != StatusOK {
		t.Fatalf("open: status %d", st)
	}
	r.Machine.Shutdown()
	s.Close()
}

// TestSessionInvalid pins the parameter rules: a StepConst outside a
// session, a session reduction with an out, a one-shot reduction
// without one, an unregistered program, and a step with the wrong
// number of values are StatusInvalid; an unencodable step value with a
// remote member is StatusError, and nothing runs for any of them.
func TestSessionInvalid(t *testing.T) {
	var runs atomic.Int32
	count := func(w *spmd.World, a *Args) { runs.Add(1) }
	r := newParts(t, Registered{Name: "count", Body: count})
	registerCombiners(t, r)
	out := defval.New[[]float64]()
	if st := r.Call(0, []int{0, 1}, "count", []Param{StepConst()}); st != StatusInvalid {
		t.Errorf("StepConst in a call: status %d", st)
	}
	if st := r.Call(0, []int{0, 1}, "count", []Param{ReduceNamed(1, "test:sum", nil)}); st != StatusInvalid {
		t.Errorf("call reduction with no out: status %d", st)
	}
	if _, st := r.Open(0, []int{0, 1}, "count", []Param{ReduceNamed(1, "test:sum", out)}); st != StatusInvalid {
		t.Errorf("session reduction with an out: status %d", st)
	}
	if _, st := r.Open(0, []int{0, 1}, "missing", nil); st != StatusInvalid {
		t.Errorf("session of an unregistered program: status %d", st)
	}
	s, st := r.Open(0, []int{1, 2}, "count", []Param{StepConst()})
	if st != StatusOK {
		t.Fatalf("open: status %d", st)
	}
	defer s.Close()
	if st, _ := s.Step(); st != StatusInvalid {
		t.Errorf("step with no value for its StepConst: status %d", st)
	}
	if st, _ := s.Step(1, 2); st != StatusInvalid {
		t.Errorf("step with two values for one StepConst: status %d", st)
	}
	if st, _ := s.Step(make(chan int)); st != StatusError {
		t.Errorf("step with an unencodable value across parts: status %d", st)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("%d bodies ran", n)
	}
	if st, _ := s.Step(1); st != StatusOK {
		t.Fatalf("valid step: status %d", st)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d bodies ran, want the valid step's 2", n)
	}
}

// TestNamedReduceAcrossParts: a ReduceNamed with an order-sensitive and
// a summing combiner over {1, 2}, spanning the parts, gives the value
// the same call gives on an in-process machine; a part that never
// registered the name contributes StatusInvalid.
func TestNamedReduceAcrossParts(t *testing.T) {
	body := func(w *spmd.World, a *Args) {
		copy(a.Reduction(0), []float64{float64(10 + w.Rank()), float64(20 + w.Rank())})
		a.Reduction(1)[0] = float64(w.Rank() + 1)
	}
	call := func(r *Runtime, procs []int, names ...string) ([][]float64, int) {
		outs := [2]*defval.Var[[]float64]{defval.New[[]float64](), defval.New[[]float64]()}
		st := r.Call(0, procs, "edges", []Param{ReduceNamed(2, names[0], outs[0]), ReduceNamed(1, names[1], outs[1])})
		return [][]float64{outs[0].Value(), outs[1].Value()}, st
	}
	inproc := newRuntime(t, 4)
	if err := inproc.Register(Registered{Name: "edges", Body: body}); err != nil {
		t.Fatal(err)
	}
	registerCombiners(t, inproc)
	want, st := call(inproc, []int{1, 2}, "test:firstLast", "test:sum")
	if st != StatusOK || !reflect.DeepEqual(want, [][]float64{{10, 21}, {3}}) {
		t.Fatalf("in-process: %v, status %d", want, st)
	}
	rts, _ := newPartsLinks(t, Registered{Name: "edges", Body: body})
	registerCombiners(t, rts[:]...)
	if err := rts[0].RegisterCombine("test:part0only", sum); err != nil {
		t.Fatal(err)
	}
	if got, st := call(rts[0], []int{1, 2}, "test:firstLast", "test:sum"); st != StatusOK || !reflect.DeepEqual(got, want) {
		t.Errorf("across parts: %v, status %d; want %v", got, st, want)
	}
	if _, st := call(rts[0], []int{1, 2}, "test:firstLast", "test:part0only"); st != StatusInvalid {
		t.Errorf("a combiner part 1 never registered: status %d, want %d", st, StatusInvalid)
	}
	if _, st := call(rts[0], []int{0, 1}, "test:firstLast", "test:part0only"); st != StatusOK {
		t.Errorf("the same combiner on part 0's own group: status %d", st)
	}
}

// TestDownMemberEndsCall: a group with a member Router.Down reports
// gets StatusDown and runs no body — a call on an in-process machine
// with a killed processor, a call on the parts with a remote processor
// marked down, and a session whose member is killed between steps,
// which Close still ends.
func TestDownMemberEndsCall(t *testing.T) {
	var runs atomic.Int32
	count := func(w *spmd.World, a *Args) { runs.Add(1) }
	r := newRuntime(t, 4)
	if err := r.Register(Registered{Name: "count", Body: count}); err != nil {
		t.Fatal(err)
	}
	if err := r.Machine.Router().KillProcessor(3); err != nil {
		t.Fatal(err)
	}
	if st := r.CallFn(0, []int{0, 1, 2, 3}, count, nil); st != StatusDown {
		t.Errorf("call with processor 3 killed: status %d, want %d", st, StatusDown)
	}
	if n := runs.Swap(0); n != 0 {
		t.Errorf("%d bodies ran for a call with a killed member", n)
	}

	rp := newParts(t, Registered{Name: "count", Body: count})
	rp.Machine.Router().MarkRemoteDown(3)
	if st := rp.Call(0, []int{2, 3}, "count", nil); st != StatusDown {
		t.Errorf("call with remote processor 3 marked down: status %d, want %d", st, StatusDown)
	}
	if _, st := rp.Open(0, []int{2, 3}, "count", nil); st != StatusDown {
		t.Errorf("session with remote processor 3 marked down: status %d, want %d", st, StatusDown)
	}
	if n := runs.Swap(0); n != 0 {
		t.Errorf("%d bodies ran in the parts for a group with a down member", n)
	}

	r2 := newRuntime(t, 4)
	if err := r2.Register(Registered{Name: "count", Body: count}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	s, st := r2.Open(0, []int{0, 1, 2, 3}, "count", nil)
	if st != StatusOK {
		t.Fatalf("open: status %d", st)
	}
	if st, _ := s.Step(); st != StatusOK || runs.Load() != 4 {
		t.Fatalf("first step: status %d, %d bodies", st, runs.Load())
	}
	if err := r2.Machine.Router().KillProcessor(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Step(); st != StatusDown {
		t.Errorf("step after processor 2 was killed: status %d, want %d", st, StatusDown)
	}
	if n := runs.Load(); n != 4 {
		t.Errorf("%d bodies ran, want the first step's 4", n)
	}
	s.Close()
	if n := settleGoroutines(base); n > base {
		t.Errorf("after Close: %d goroutines, %d before the session opened", n, base)
	}
}
