package arraymgr

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/trace"
)

// fastPathSpec distributes a 32x32 array over a 2x2 grid, so processor 0
// owns the interior-local rectangle [0,16)x[0,16).
func fastPathSpec() CreateSpec {
	spec := basicSpec(4)
	spec.Dims = []int{32, 32}
	return spec
}

// TestLocalFastPathZeroAllocs pins the zero-copy local fast path at zero
// heap allocations and zero messages per operation: a wholly-local
// rectangle moves between the caller's buffer and section storage without
// touching the router or the allocator.
func TestLocalFastPathZeroAllocs(t *testing.T) {
	machine, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, fastPathSpec())

	lo, hi := []int{0, 0}, []int{16, 16}
	buf := make([]float64, 256)
	for i := range buf {
		buf[i] = float64(i)
	}
	if st := m.WriteBlock(0, id, lo, hi, buf); st != StatusOK {
		t.Fatalf("warm-up WriteBlock: %v", st)
	}

	before := machine.Router().Sent()
	writeAllocs := testing.AllocsPerRun(200, func() {
		if st := m.WriteBlock(0, id, lo, hi, buf); st != StatusOK {
			t.Errorf("WriteBlock: %v", st)
		}
	})
	readAllocs := testing.AllocsPerRun(200, func() {
		if st := m.ReadBlockInto(0, id, lo, hi, buf); st != StatusOK {
			t.Errorf("ReadBlockInto: %v", st)
		}
	})
	if writeAllocs != 0 {
		t.Errorf("local WriteBlock: %v allocs/op, want 0", writeAllocs)
	}
	if readAllocs != 0 {
		t.Errorf("local ReadBlockInto: %v allocs/op, want 0", readAllocs)
	}
	if sent := machine.Router().Sent() - before; sent != 0 {
		t.Errorf("local fast path sent %d messages, want 0", sent)
	}
}

// TestLocalGatherScatterFastPath pins the indexed plane's local fast path:
// when every index of a gather or scatter resolves to the requesting
// processor, the operation touches neither the router nor the allocator,
// and the k=1 element ops ride the same path through the scratch pool.
func TestLocalGatherScatterFastPath(t *testing.T) {
	machine, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, fastPathSpec()) // 32x32 over 2x2: proc 0 owns [0,16)^2

	local := [][]int{{0, 0}, {15, 15}, {3, 7}, {3, 7}, {12, 1}}
	vals := []float64{1, 2, 3, 4, 5}
	dst := make([]float64, len(local))
	if st := m.ScatterElements(0, id, local, vals); st != StatusOK {
		t.Fatalf("warm-up ScatterElements: %v", st)
	}

	before := machine.Router().Sent()
	scatterAllocs := testing.AllocsPerRun(200, func() {
		if st := m.ScatterElements(0, id, local, vals); st != StatusOK {
			t.Errorf("ScatterElements: %v", st)
		}
	})
	gatherAllocs := testing.AllocsPerRun(200, func() {
		if st := m.GatherElementsInto(0, id, local, dst); st != StatusOK {
			t.Errorf("GatherElementsInto: %v", st)
		}
	})
	readAllocs := testing.AllocsPerRun(200, func() {
		if _, st := m.ReadElement(0, id, local[0]); st != StatusOK {
			t.Errorf("ReadElement: %v", st)
		}
	})
	writeAllocs := testing.AllocsPerRun(200, func() {
		if st := m.WriteElement(0, id, local[1], 9); st != StatusOK {
			t.Errorf("WriteElement: %v", st)
		}
	})
	if scatterAllocs != 0 {
		t.Errorf("local ScatterElements: %v allocs/op, want 0", scatterAllocs)
	}
	if gatherAllocs != 0 {
		t.Errorf("local GatherElementsInto: %v allocs/op, want 0", gatherAllocs)
	}
	if readAllocs != 0 {
		t.Errorf("local ReadElement: %v allocs/op, want 0", readAllocs)
	}
	if writeAllocs != 0 {
		t.Errorf("local WriteElement: %v allocs/op, want 0", writeAllocs)
	}
	if sent := machine.Router().Sent() - before; sent != 0 {
		t.Errorf("local indexed fast path sent %d messages, want 0", sent)
	}

	// The fast path preserves semantics: values land where a write_element
	// loop puts them (the repeated {3,7} takes its last value).
	for i, idx := range local {
		want := vals[i]
		if i == 2 {
			want = vals[3]
		}
		if idx[0] == 15 && idx[1] == 15 {
			want = 9 // the WriteElement pin above
		}
		got, st := m.ReadElement(0, id, idx)
		if st != StatusOK || got != want {
			t.Errorf("element %v = %v (%v), want %v", idx, got, st, want)
		}
	}

	// A vector with any remote index declines the fast path but still
	// succeeds through the coordinator.
	mixed := [][]int{{0, 0}, {20, 20}}
	before = machine.Router().Sent()
	if st := m.GatherElementsInto(0, id, mixed, make([]float64, 2)); st != StatusOK {
		t.Fatalf("mixed GatherElementsInto: %v", st)
	}
	if sent := machine.Router().Sent() - before; sent == 0 {
		t.Error("mixed-owner gather sent no messages; fast path must decline")
	}
	// Malformed requests keep their authoritative statuses.
	if st := m.GatherElementsInto(0, id, [][]int{{0, 0}}, make([]float64, 2)); st != StatusInvalid {
		t.Errorf("wrong-size destination: %v", st)
	}
	if _, st := m.ReadElement(0, id, []int{32, 0}); st != StatusInvalid {
		t.Errorf("out-of-range element: %v", st)
	}
}

// TestReadBlockIntoMatchesReadBlock checks the buffer-reuse read against
// the allocating read on local, remote and owner-spanning rectangles,
// including the fallback cases the fast path must decline.
func TestReadBlockIntoMatchesReadBlock(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, fastPathSpec())
	vals := make([]float64, 32*32)
	for i := range vals {
		vals[i] = float64(3*i + 1)
	}
	if st := m.WriteBlock(0, id, []int{0, 0}, []int{32, 32}, vals); st != StatusOK {
		t.Fatalf("WriteBlock: %v", st)
	}

	rects := []struct {
		name   string
		lo, hi []int
	}{
		{"wholly-local", []int{2, 3}, []int{14, 16}},
		{"wholly-remote", []int{16, 16}, []int{32, 32}},
		{"spans-owners", []int{8, 8}, []int{24, 24}},
		{"whole-array", []int{0, 0}, []int{32, 32}},
	}
	for _, r := range rects {
		t.Run(r.name, func(t *testing.T) {
			want, st := m.ReadBlock(0, id, r.lo, r.hi)
			if st != StatusOK {
				t.Fatalf("ReadBlock: %v", st)
			}
			dst := make([]float64, grid.RectSize(r.lo, r.hi))
			if st := m.ReadBlockInto(0, id, r.lo, r.hi, dst); st != StatusOK {
				t.Fatalf("ReadBlockInto: %v", st)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
				}
			}
		})
	}

	// A wrong-sized buffer is rejected, not silently truncated.
	if st := m.ReadBlockInto(0, id, []int{0, 0}, []int{4, 4}, make([]float64, 3)); st != StatusInvalid {
		t.Fatalf("short buffer: %v", st)
	}
	// Freed arrays fail through the fallback path.
	if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatalf("FreeArray: %v", st)
	}
	if st := m.ReadBlockInto(0, id, []int{0, 0}, []int{4, 4}, make([]float64, 16)); st != StatusNotFound {
		t.Fatalf("freed ReadBlockInto: %v", st)
	}
}

// TestControlFanoutBudget asserts the message budget of the flat control
// fan-out: creating or freeing an array distributed over P processors
// costs exactly one user request plus P-1 control messages (every target
// but the coordinator receives one; the coordinator's own copy runs in
// place).
func TestControlFanoutBudget(t *testing.T) {
	const p = 8
	machine, m := newTestManager(t, p)
	spec := basicSpec(p)
	spec.Dims = []int{16, 16}
	spec.Distrib = []grid.Decomp{grid.BlockOf(4), grid.BlockOf(2)}

	before := machine.Router().Sent()
	id := mustCreate(t, m, 0, spec)
	if got, want := machine.Router().Sent()-before, uint64(1+p-1); got != want {
		t.Errorf("create over %d processors sent %d messages, want %d", p, got, want)
	}

	before = machine.Router().Sent()
	if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatalf("FreeArray: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(1+p-1); got != want {
		t.Errorf("free over %d processors sent %d messages, want %d", p, got, want)
	}

	// The sections really exist everywhere and really are gone afterwards.
	id2 := mustCreate(t, m, 0, spec)
	for proc := 0; proc < p; proc++ {
		if _, st := m.FindLocal(proc, id2); st != StatusOK {
			t.Fatalf("FindLocal(%d): %v", proc, st)
		}
	}
	if st := m.FreeArray(0, id2); st != StatusOK {
		t.Fatalf("FreeArray: %v", st)
	}
	for proc := 0; proc < p; proc++ {
		if _, st := m.FindLocal(proc, id2); st != StatusNotFound {
			t.Fatalf("freed FindLocal(%d): %v", proc, st)
		}
	}
}

// TestFanoutReachesLiveTargets frees an array with one of its section
// holders dead. Every live target must still drop its entry: a flat
// fan-out posts to each target directly, so a dead processor strands
// no other (a request tree rooted at the coordinator left processor 3,
// below processor 1, holding its entry). The free reports the dead
// target as STATUS_DOWN. The create before it pins the am_debug view of
// a fan-out: one create_local line per target, the coordinator's own
// copy included.
func TestFanoutReachesLiveTargets(t *testing.T) {
	const p = 4
	machine, m := newTestManager(t, p)
	m.SetCallPolicy(&CallPolicy{Timeout: 20 * time.Millisecond, Retries: 1})
	spec := basicSpec(p)
	spec.Dims = []int{8}
	spec.Distrib = []grid.Decomp{grid.BlockDefault()}

	var buf bytes.Buffer
	trace.SetOutput(&buf)
	trace.SetLevel(trace.Ops)
	id := mustCreate(t, m, 0, spec)
	trace.SetLevel(trace.Off)
	trace.SetOutput(os.Stderr)
	if got := strings.Count(buf.String(), "am: create_local "); got != p {
		t.Errorf("create over %d processors traced %d create_local lines, want %d:\n%s", p, got, p, buf.String())
	}

	if err := machine.Router().KillProcessor(1); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	if st := m.FreeArray(0, id); st != StatusDown {
		t.Fatalf("FreeArray with processor 1 dead: %v, want %v", st, StatusDown)
	}
	for _, proc := range []int{0, 2, 3} {
		if _, st := m.FindLocal(proc, id); st != StatusNotFound {
			t.Errorf("processor %d still holds the freed array's entry (FindLocal: %v)", proc, st)
		}
	}
}
