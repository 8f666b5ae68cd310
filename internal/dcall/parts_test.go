package dcall

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/arraymgr"
	"repro/internal/darray"
	"repro/internal/defval"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/msg/wire"
	"repro/internal/spmd"
	"repro/internal/vp"
)

// codecLink joins two in-process machines as the two parts of one
// partitioned machine. Every message is encoded and decoded by the wire
// codec on its way across, as the TCP transport does, so a call that
// spans the parts runs the same spawn orders, tuples and array-manager
// requests a cluster would, with no sockets.
type codecLink struct{ peer *msg.Router }

func (l *codecLink) Send(m msg.Message) error {
	b, err := wire.AppendAny(nil, m.Data, false)
	if err != nil {
		return err
	}
	if m.Data, _, err = wire.ReadAny(b); err != nil {
		return err
	}
	return l.peer.Inject(m)
}

func (l *codecLink) Close() error { return nil }

// newParts boots four processors split into two parts, {0, 1} and
// {2, 3}, each with its own array manager and runtime, and registers
// progs in both, as every part of a cluster registers the same
// programs. It returns part 0's runtime, the one the tests call from.
func newParts(t *testing.T, progs ...Registered) *Runtime {
	t.Helper()
	const p = 4
	links := [2]*codecLink{{}, {}}
	var rts [2]*Runtime
	for rank := range rts {
		machine := vp.NewMachine(p)
		t.Cleanup(machine.Shutdown)
		hosted := make([]bool, p)
		for i := range hosted {
			hosted[i] = i/2 == rank
		}
		machine.Router().SetTransport(links[rank], hosted)
		rts[rank] = NewRuntime(machine, arraymgr.New(machine))
		rts[rank].SetCallBase(uint64(rank) << 40)
		for _, prog := range progs {
			if err := rts[rank].Register(prog); err != nil {
				t.Fatal(err)
			}
		}
	}
	links[0].peer, links[1].peer = rts[1].Machine.Router(), rts[0].Machine.Router()
	return rts[0]
}

// fillBody writes c*100 + 10*rank + i into element i of its section and
// sets its status to 10 + rank; parameters are Const(c), Local, Index,
// Status.
func fillBody(w *spmd.World, a *Args) {
	c, sec, rank := a.Float(0), a.Section(1), a.Index(2)
	for i := range sec.F {
		sec.F[i] = c*100 + float64(10*rank+i)
	}
	a.SetStatus(3, 10+rank)
}

// TestCallAcrossParts runs one Const/Local/Index/Status call over a
// part-local group, over groups spanning both parts with rank 0 on
// either side, and over a group wholly in the other part: every group
// returns the same merged status and leaves the same section contents.
func TestCallAcrossParts(t *testing.T) {
	r := newParts(t, Registered{Name: "fill", Body: fillBody})
	var want []float64
	for _, procs := range [][]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}} {
		id, st := r.AM.CreateArray(0, arraymgr.CreateSpec{
			Type: darray.Double, Dims: []int{8}, Procs: procs,
			Distrib: []grid.Decomp{grid.BlockDefault()}, Borders: arraymgr.NoBorderSpec{},
			Indexing: grid.RowMajor,
		})
		if st != arraymgr.StatusOK {
			t.Fatalf("create over %v: %v", procs, st)
		}
		if st := r.Call(0, procs, "fill", []Param{Const(7.0), Local(id), Index(), Status()}); st != 11 {
			t.Errorf("call over %v: status %d, want 11 (the max of 10+rank)", procs, st)
		}
		got, ast := r.AM.ReadBlock(0, id, []int{0}, []int{8})
		if ast != arraymgr.StatusOK {
			t.Fatalf("read back over %v: %v", procs, ast)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("call over %v left %v, the part-local group %v", procs, got, want)
		}
	}
}

// TestCrossPartClosuresRefused pins the cross-process checks: with a
// member in the other part, a Reduce parameter, a StatusCombine option
// and an anonymous CallFn body each fail with StatusInvalid before any
// wrapper is spawned in either part, and the reduction stays undefined.
func TestCrossPartClosuresRefused(t *testing.T) {
	var runs atomic.Int32
	count := func(w *spmd.World, a *Args) { runs.Add(1) }
	r := newParts(t, Registered{Name: "count", Body: count})
	procs := []int{1, 2}
	out := defval.New[[]float64]()
	sum := func(a, b []float64) []float64 { return []float64{a[0] + b[0]} }
	lowest := func(a, b int) int { return min(a, b) }
	if st := r.Call(0, procs, "count", []Param{Reduce(1, sum, out)}); st != StatusInvalid {
		t.Errorf("cross-part Reduce: status %d, want %d", st, StatusInvalid)
	}
	if st := r.Call(0, procs, "count", []Param{Status()}, Options{StatusCombine: lowest}); st != StatusInvalid {
		t.Errorf("cross-part StatusCombine: status %d, want %d", st, StatusInvalid)
	}
	if st := r.CallFn(0, procs, count, nil); st != StatusInvalid {
		t.Errorf("cross-part CallFn: status %d, want %d", st, StatusInvalid)
	}
	if out.IsDefined() {
		t.Error("a refused call defined its reduction")
	}
	// A valid call after the refused ones runs exactly its own two
	// copies: the refused calls spawned nothing, here or in part 1.
	if st := r.Call(0, procs, "count", nil); st != StatusOK {
		t.Fatalf("cross-part call: status %d", st)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d wrapper bodies ran, want the valid call's 2", n)
	}
}

// TestPartLocalCallKeepsClosures runs a Reduce, a StatusCombine and a
// CallFn over a group wholly in the caller's part of a partitioned
// machine: they need no spawn order, so they work as on an unpartitioned
// machine.
func TestPartLocalCallKeepsClosures(t *testing.T) {
	body := func(w *spmd.World, a *Args) {
		a.Reduction(0)[0] = float64(10 + w.Rank())
		a.SetStatus(1, 10+w.Rank())
	}
	r := newParts(t, Registered{Name: "ranks", Body: body})
	procs := []int{0, 1}
	out := defval.New[[]float64]()
	sum := func(a, b []float64) []float64 { return []float64{a[0] + b[0]} }
	lowest := func(a, b int) int { return min(a, b) }
	if st := r.Call(0, procs, "ranks", []Param{Reduce(1, sum, out), Status()}, Options{StatusCombine: lowest}); st != 10 {
		t.Errorf("part-local Reduce+StatusCombine: status %d, want 10 (the min)", st)
	}
	if got := out.Value(); got[0] != 21 {
		t.Errorf("part-local reduction %v, want [21]", got)
	}
	out2 := defval.New[[]float64]()
	if st := r.CallFn(0, procs, body, []Param{Reduce(1, sum, out2), Status()}); st != 11 {
		t.Errorf("part-local CallFn: status %d, want 11 (the max)", st)
	}
}
