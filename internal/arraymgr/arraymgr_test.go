package arraymgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/vp"
)

func newTestManager(t *testing.T, p int) (*vp.Machine, *Manager) {
	t.Helper()
	machine := vp.NewMachine(p)
	t.Cleanup(machine.Shutdown)
	return machine, New(machine)
}

func mustCreate(t *testing.T, m *Manager, onProc int, spec CreateSpec) darray.ID {
	t.Helper()
	id, st := m.CreateArray(onProc, spec)
	if st != StatusOK {
		t.Fatalf("CreateArray: %v", st)
	}
	return id
}

func basicSpec(p int) CreateSpec {
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	return CreateSpec{
		Type:     darray.Double,
		Dims:     []int{4, 4},
		Procs:    procs,
		Distrib:  []grid.Decomp{grid.BlockDefault(), grid.BlockDefault()},
		Borders:  NoBorderSpec{},
		Indexing: grid.RowMajor,
	}
}

func TestCreateReadWriteFree(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))

	// Write and read every element through global indices, from the
	// creating processor.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if st := m.WriteElement(0, id, []int{i, j}, float64(10*i+j)); st != StatusOK {
				t.Fatalf("Write(%d,%d): %v", i, j, st)
			}
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v, st := m.ReadElement(0, id, []int{i, j})
			if st != StatusOK || v != float64(10*i+j) {
				t.Fatalf("Read(%d,%d) = %v,%v", i, j, v, st)
			}
		}
	}
	if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatalf("Free: %v", st)
	}
	// Subsequent references fail (§4.2.2 postcondition).
	if _, st := m.ReadElement(0, id, []int{0, 0}); st != StatusNotFound {
		t.Fatalf("read after free: %v, want STATUS_NOT_FOUND", st)
	}
	if st := m.FreeArray(0, id); st != StatusNotFound {
		t.Fatalf("double free: %v, want STATUS_NOT_FOUND", st)
	}
}

// §3.2.1.5: "a request to read the first element of a distributed array
// returns the same value no matter where it is executed" — operations give
// identical results on any processor holding a section or on the creator.
func TestGlobalViewFromAnyHolder(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))
	if st := m.WriteElement(2, id, []int{3, 3}, 7.5); st != StatusOK {
		t.Fatalf("write from proc 2: %v", st)
	}
	for proc := 0; proc < 4; proc++ {
		v, st := m.ReadElement(proc, id, []int{3, 3})
		if st != StatusOK || v != 7.5 {
			t.Fatalf("read on proc %d = %v,%v", proc, v, st)
		}
	}
}

func TestRequestsOnUninvolvedProcessorFail(t *testing.T) {
	_, m := newTestManager(t, 6)
	spec := basicSpec(6)
	spec.Procs = []int{1, 2, 3, 4} // distribute over 4 of 6
	spec.Dims = []int{4, 4}
	id := mustCreate(t, m, 1, spec)
	// Processor 5 holds no section and did not create the array.
	if _, st := m.ReadElement(5, id, []int{0, 0}); st != StatusNotFound {
		t.Fatalf("read on uninvolved proc: %v", st)
	}
	// Creator (proc 1) that also holds a section works; proc 0 does not.
	if _, st := m.ReadElement(1, id, []int{0, 0}); st != StatusOK {
		t.Fatalf("read on creator: %v", st)
	}
	if _, st := m.ReadElement(0, id, []int{0, 0}); st != StatusNotFound {
		t.Fatalf("read on proc 0: %v", st)
	}
}

func TestCreatorWithoutSectionHasGlobalView(t *testing.T) {
	_, m := newTestManager(t, 4)
	spec := basicSpec(4)
	spec.Procs = []int{1, 2} // creator 0 not among them
	spec.Dims = []int{2, 4}
	spec.Distrib = []grid.Decomp{grid.NoDecomp(), grid.BlockDefault()}
	id := mustCreate(t, m, 0, spec)
	if st := m.WriteElement(0, id, []int{1, 3}, 9); st != StatusOK {
		t.Fatalf("creator write: %v", st)
	}
	v, st := m.ReadElement(0, id, []int{1, 3})
	if st != StatusOK || v != 9 {
		t.Fatalf("creator read: %v,%v", v, st)
	}
	// But find_local on the creator fails: it has no local section.
	if _, st := m.FindLocal(0, id); st != StatusNotFound {
		t.Fatalf("find_local on creator: %v", st)
	}
	if _, st := m.FindLocal(1, id); st != StatusOK {
		t.Fatalf("find_local on holder: %v", st)
	}
}

func TestFindLocalIsRealStorage(t *testing.T) {
	_, m := newTestManager(t, 2)
	spec := basicSpec(2)
	spec.Dims = []int{4}
	spec.Distrib = []grid.Decomp{grid.BlockDefault()}
	id := mustCreate(t, m, 0, spec)
	// Write through the global view; observe through the local section.
	if st := m.WriteElement(0, id, []int{3}, 5); st != StatusOK {
		t.Fatalf("write: %v", st)
	}
	sec, st := m.FindLocal(1, id) // element 3 lives on proc 1 (2 elems each)
	if st != StatusOK {
		t.Fatalf("find_local: %v", st)
	}
	if sec.F[1] != 5 {
		t.Fatalf("local section = %v", sec.F)
	}
	// And the other direction: mutate the section, read globally.
	sec.F[0] = 11
	v, st := m.ReadElement(0, id, []int{2})
	if st != StatusOK || v != 11 {
		t.Fatalf("global read after local write = %v,%v", v, st)
	}
}

func TestIntArray(t *testing.T) {
	_, m := newTestManager(t, 2)
	spec := basicSpec(2)
	spec.Type = darray.Int
	spec.Dims = []int{4}
	spec.Distrib = []grid.Decomp{grid.BlockDefault()}
	id := mustCreate(t, m, 0, spec)
	if st := m.WriteElement(0, id, []int{1}, 42); st != StatusOK {
		t.Fatalf("write: %v", st)
	}
	v, st := m.ReadElement(0, id, []int{1})
	if st != StatusOK || v != 42 {
		t.Fatalf("read = %v,%v", v, st)
	}
	sec, st := m.FindLocal(0, id)
	if st != StatusOK || sec.Type != darray.Int || sec.I[1] != 42 {
		t.Fatalf("int section: %+v st=%v", sec, st)
	}
}

func TestFindInfo(t *testing.T) {
	_, m := newTestManager(t, 4)
	spec := basicSpec(4)
	spec.Borders = ExplicitBorders{1, 1, 0, 0}
	id := mustCreate(t, m, 0, spec)
	cases := []struct {
		which string
		want  any
	}{
		{"type", "double"},
		{"dimensions", []int{4, 4}},
		{"processors", []int{0, 1, 2, 3}},
		{"grid_dimensions", []int{2, 2}},
		{"local_dimensions", []int{2, 2}},
		{"borders", []int{1, 1, 0, 0}},
		{"local_dimensions_plus", []int{4, 2}},
		{"indexing_type", "row"},
		{"grid_indexing_type", "row"},
	}
	for _, c := range cases {
		got, st := m.FindInfo(0, id, c.which)
		if st != StatusOK {
			t.Fatalf("FindInfo(%q): %v", c.which, st)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("FindInfo(%q) = %v, want %v", c.which, got, c.want)
		}
	}
	if _, st := m.FindInfo(0, id, "nonsense"); st != StatusInvalid {
		t.Fatal("unknown selector must be STATUS_INVALID")
	}
}

func TestInvalidCreates(t *testing.T) {
	_, m := newTestManager(t, 4)
	base := basicSpec(4)

	bad := base
	bad.Dims = nil
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("nil dims: %v", st)
	}

	bad = base
	bad.Dims = []int{0, 4}
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("zero dim: %v", st)
	}

	bad = base
	bad.Procs = []int{0, 0, 1, 2}
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("duplicate procs: %v", st)
	}

	bad = base
	bad.Procs = []int{0, 9}
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("out-of-range proc: %v", st)
	}

	bad = base
	bad.Distrib = []grid.Decomp{grid.BlockDefault()}
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("distrib arity: %v", st)
	}

	// 5 rows over a grid dimension of 2 used to be rejected (the paper's
	// divide-evenly restriction); the distribution layer handles the
	// uneven trailing block, so this now succeeds.
	uneven := base
	uneven.Dims = []int{5, 4}
	if id, st := m.CreateArray(0, uneven); st != StatusOK {
		t.Fatalf("uneven block create: %v", st)
	} else if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatalf("uneven block free: %v", st)
	}

	bad = base
	bad.Borders = ExplicitBorders{1} // wrong length
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("bad borders: %v", st)
	}

	// Bordered fields keep the paper's exactly-even block shapes: borders
	// on a cyclic dimension or an uneven block layout are rejected at
	// creation (halo exchange assumes full-size, index-adjacent
	// interiors), and verification may not retrofit them later.
	bad = base
	bad.Distrib = []grid.Decomp{grid.CyclicDefault(), grid.BlockDefault()}
	bad.Borders = ExplicitBorders{1, 1, 0, 0}
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("bordered cyclic create: %v", st)
	}

	bad = base
	bad.Dims = []int{5, 4} // 5 over a grid dimension of 2: uneven
	bad.Borders = ExplicitBorders{1, 1, 0, 0}
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("bordered uneven create: %v", st)
	}

	cyc := base
	cyc.Distrib = []grid.Decomp{grid.CyclicDefault(), grid.BlockDefault()}
	if id, st := m.CreateArray(0, cyc); st != StatusOK {
		t.Fatalf("borderless cyclic create: %v", st)
	} else {
		if st := m.VerifyArray(0, id, 2, ExplicitBorders{1, 1, 0, 0}, grid.RowMajor); st != StatusInvalid {
			t.Fatalf("verify retrofitting borders onto a cyclic array: %v", st)
		}
		if st := m.VerifyArray(0, id, 2, NoBorderSpec{}, grid.RowMajor); st != StatusOK {
			t.Fatalf("borderless verify of a cyclic array: %v", st)
		}
		if st := m.FreeArray(0, id); st != StatusOK {
			t.Fatalf("free cyclic: %v", st)
		}
	}

	bad = base
	bad.Distrib = []grid.Decomp{grid.BlockCyclicOf(0), grid.BlockDefault()}
	if _, st := m.CreateArray(0, bad); st != StatusInvalid {
		t.Fatalf("block_cyclic(0): %v", st)
	}
}

func TestReadWriteErrors(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))
	if _, st := m.ReadElement(0, id, []int{4, 0}); st != StatusInvalid {
		t.Fatalf("out-of-range read: %v", st)
	}
	if _, st := m.ReadElement(0, id, []int{0}); st != StatusInvalid {
		t.Fatalf("arity read: %v", st)
	}
	if st := m.WriteElement(0, id, []int{0, -1}, 0); st != StatusInvalid {
		t.Fatalf("negative write: %v", st)
	}
	if _, st := m.ReadElement(0, darray.ID{Proc: 0, Seq: 999}, []int{0, 0}); st != StatusNotFound {
		t.Fatalf("unknown ID: %v", st)
	}
}

// §4.2.7's examples: verify with matching borders succeeds without change;
// mismatching borders reallocates, preserving interior data; wrong indexing
// is invalid.
func TestVerifyArray(t *testing.T) {
	_, m := newTestManager(t, 4)
	spec := basicSpec(4)
	spec.Borders = ExplicitBorders{1, 1, 1, 1}
	id := mustCreate(t, m, 0, spec)

	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if st := m.WriteElement(0, id, []int{i, j}, float64(i*4+j)); st != StatusOK {
				t.Fatal(st)
			}
		}
	}

	// Matching borders: no-op OK.
	if st := m.VerifyArray(0, id, 2, ExplicitBorders{1, 1, 1, 1}, grid.RowMajor); st != StatusOK {
		t.Fatalf("verify matching: %v", st)
	}

	// Wrong indexing: invalid.
	if st := m.VerifyArray(0, id, 2, ExplicitBorders{1, 1, 1, 1}, grid.ColMajor); st != StatusInvalid {
		t.Fatalf("verify wrong indexing: %v", st)
	}

	// Wrong ndims: invalid.
	if st := m.VerifyArray(0, id, 3, ExplicitBorders{1, 1, 1, 1, 0, 0}, grid.RowMajor); st != StatusInvalid {
		t.Fatalf("verify wrong ndims: %v", st)
	}

	// Different borders: reallocate, interior preserved.
	if st := m.VerifyArray(0, id, 2, ExplicitBorders{2, 2, 0, 0}, grid.RowMajor); st != StatusOK {
		t.Fatalf("verify realloc: %v", st)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v, st := m.ReadElement(0, id, []int{i, j})
			if st != StatusOK || v != float64(i*4+j) {
				t.Fatalf("after realloc (%d,%d) = %v,%v", i, j, v, st)
			}
		}
	}
	borders, st := m.FindInfo(0, id, "borders")
	if st != StatusOK || !reflect.DeepEqual(borders, []int{2, 2, 0, 0}) {
		t.Fatalf("borders after verify = %v", borders)
	}
	plus, _ := m.FindInfo(0, id, "local_dimensions_plus")
	if !reflect.DeepEqual(plus, []int{6, 2}) {
		t.Fatalf("local_dimensions_plus = %v", plus)
	}
}

func TestForeignBorders(t *testing.T) {
	_, m := newTestManager(t, 4)
	m.SetBorderResolver(func(program string, parmNum, ndims int) ([]int, error) {
		if program != "fpgm" {
			return nil, fmt.Errorf("unknown program %q", program)
		}
		// The paper's example routine: parameter 1 gets borders 2,2,...
		if parmNum == 1 {
			b := make([]int, 2*ndims)
			for i := range b {
				b[i] = 2
			}
			return b, nil
		}
		return nil, fmt.Errorf("parameter %d has no borders", parmNum)
	})
	spec := basicSpec(4)
	spec.Borders = ForeignBorders{Program: "fpgm", ParmNum: 1}
	id := mustCreate(t, m, 0, spec)
	b, st := m.FindInfo(0, id, "borders")
	if st != StatusOK || !reflect.DeepEqual(b, []int{2, 2, 2, 2}) {
		t.Fatalf("foreign borders = %v, %v", b, st)
	}

	// Unknown program: invalid.
	spec.Borders = ForeignBorders{Program: "nope", ParmNum: 1}
	if _, st := m.CreateArray(0, spec); st != StatusInvalid {
		t.Fatalf("unknown foreign program: %v", st)
	}
}

func TestForeignBordersWithoutResolver(t *testing.T) {
	_, m := newTestManager(t, 2)
	spec := basicSpec(2)
	spec.Dims = []int{4}
	spec.Distrib = []grid.Decomp{grid.BlockDefault()}
	spec.Borders = ForeignBorders{Program: "x", ParmNum: 1}
	if _, st := m.CreateArray(0, spec); st != StatusInvalid {
		t.Fatalf("foreign borders without resolver: %v", st)
	}
}

func TestColumnMajorArray(t *testing.T) {
	_, m := newTestManager(t, 4)
	spec := basicSpec(4)
	spec.Indexing = grid.ColMajor
	id := mustCreate(t, m, 0, spec)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if st := m.WriteElement(0, id, []int{i, j}, float64(i*4+j)); st != StatusOK {
				t.Fatal(st)
			}
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v, st := m.ReadElement(0, id, []int{i, j})
			if st != StatusOK || v != float64(i*4+j) {
				t.Fatalf("(%d,%d) = %v,%v", i, j, v, st)
			}
		}
	}
}

// Figure 3.8's scenario through the array manager: 2x2 array over procs
// (0,2,4,6) of an 8-processor machine; writing x(1,0) lands on processor 4
// under row-major and processor 2 under column-major indexing.
func TestFig38Distribution(t *testing.T) {
	for _, c := range []struct {
		ix       grid.Indexing
		wantProc int
	}{
		{grid.RowMajor, 4},
		{grid.ColMajor, 2},
	} {
		_, m := newTestManager(t, 8)
		spec := CreateSpec{
			Type:     darray.Double,
			Dims:     []int{2, 2},
			Procs:    []int{0, 2, 4, 6},
			Distrib:  []grid.Decomp{grid.BlockDefault(), grid.BlockDefault()},
			Borders:  NoBorderSpec{},
			Indexing: c.ix,
		}
		id := mustCreate(t, m, 0, spec)
		if st := m.WriteElement(0, id, []int{1, 0}, 1); st != StatusOK {
			t.Fatal(st)
		}
		sec, st := m.FindLocal(c.wantProc, id)
		if st != StatusOK {
			t.Fatalf("%v: find_local on %d: %v", c.ix, c.wantProc, st)
		}
		if sec.F[0] != 1 {
			t.Fatalf("%v: x(1,0) not on processor %d", c.ix, c.wantProc)
		}
	}
}

// Property: random read-after-write across random processors always
// observes the last write (single-writer discipline per element).
func TestQuickReadAfterWrite(t *testing.T) {
	_, m := newTestManager(t, 4)
	spec := basicSpec(4)
	spec.Dims = []int{8, 8}
	id := mustCreate(t, m, 0, spec)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		i, j := rng.Intn(8), rng.Intn(8)
		v := rng.Float64()
		wp, rp := rng.Intn(4), rng.Intn(4)
		if st := m.WriteElement(wp, id, []int{i, j}, v); st != StatusOK {
			t.Fatal(st)
		}
		got, st := m.ReadElement(rp, id, []int{i, j})
		if st != StatusOK || got != v {
			t.Fatalf("iter %d: (%d,%d) = %v,%v want %v", iter, i, j, got, st, v)
		}
	}
}

// Concurrent creates from different processors produce distinct IDs and
// independent arrays.
func TestConcurrentCreates(t *testing.T) {
	_, m := newTestManager(t, 4)
	const each = 8
	var mu sync.Mutex
	ids := map[darray.ID]bool{}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				spec := basicSpec(4)
				id, st := m.CreateArray(p, spec)
				if st != StatusOK {
					t.Errorf("create on %d: %v", p, st)
					return
				}
				mu.Lock()
				if ids[id] {
					t.Errorf("duplicate ID %v", id)
				}
				ids[id] = true
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if len(ids) != 4*each {
		t.Fatalf("%d unique IDs, want %d", len(ids), 4*each)
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusOK.String() != "STATUS_OK" || StatusInvalid.String() != "STATUS_INVALID" ||
		StatusNotFound.String() != "STATUS_NOT_FOUND" || StatusError.String() != "STATUS_ERROR" {
		t.Fatal("status strings broken")
	}
	if Status(42).String() == "" {
		t.Fatal("unknown status should still print")
	}
}

func TestBadOnProc(t *testing.T) {
	_, m := newTestManager(t, 2)
	if _, st := m.CreateArray(5, basicSpec(2)); st != StatusInvalid {
		t.Fatalf("create on bad proc: %v", st)
	}
	if _, st := m.ReadElement(-1, darray.ID{}, []int{0}); st != StatusInvalid {
		t.Fatalf("read on bad proc: %v", st)
	}
	if st := m.WriteElement(7, darray.ID{}, []int{0}, 0); st != StatusInvalid {
		t.Fatalf("write on bad proc: %v", st)
	}
	if _, st := m.FindLocal(7, darray.ID{}); st != StatusInvalid {
		t.Fatalf("find_local on bad proc: %v", st)
	}
	if _, st := m.FindInfo(7, darray.ID{}, "type"); st != StatusInvalid {
		t.Fatalf("find_info on bad proc: %v", st)
	}
	if st := m.FreeArray(7, darray.ID{}); st != StatusInvalid {
		t.Fatalf("free on bad proc: %v", st)
	}
	if st := m.VerifyArray(7, darray.ID{}, 1, NoBorderSpec{}, grid.RowMajor); st != StatusInvalid {
		t.Fatalf("verify on bad proc: %v", st)
	}
}

// Borders are invisible to the task level: global element (0,0) of a
// bordered array reads/writes the interior, never the border cells.
func TestBordersInvisibleGlobally(t *testing.T) {
	_, m := newTestManager(t, 2)
	spec := CreateSpec{
		Type:     darray.Double,
		Dims:     []int{4},
		Procs:    []int{0, 1},
		Distrib:  []grid.Decomp{grid.BlockDefault()},
		Borders:  ExplicitBorders{1, 1},
		Indexing: grid.RowMajor,
	}
	id := mustCreate(t, m, 0, spec)
	if st := m.WriteElement(0, id, []int{0}, 3); st != StatusOK {
		t.Fatal(st)
	}
	sec, st := m.FindLocal(0, id)
	if st != StatusOK {
		t.Fatal(st)
	}
	// Storage is [border, e0, e1, border]; the write must land at index 1.
	if sec.Len() != 4 || sec.F[1] != 3 || sec.F[0] != 0 {
		t.Fatalf("bordered storage = %v", sec.F)
	}
}

// With tracing enabled the manager emits one line per operation, like the
// paper's am_debug array manager.
func TestOpsTracing(t *testing.T) {
	var buf bytes.Buffer
	trace.SetOutput(&buf)
	trace.SetLevel(trace.Ops)
	defer func() {
		trace.SetLevel(trace.Off)
		trace.SetOutput(os.Stderr)
	}()

	_, m := newTestManager(t, 2)
	spec := basicSpec(2)
	spec.Dims = []int{4}
	spec.Distrib = []grid.Decomp{grid.BlockDefault()}
	id := mustCreate(t, m, 0, spec)
	if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatal(st)
	}
	out := buf.String()
	for _, want := range []string{"create_array", "create_local", "free_array", "free_local"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkRemoteReadInproc prices an 8 KiB remote read on one in-process
// machine: processor 0 reads the whole piece owned by processor 1 of a
// block array over 4, so the coordinator's split, the owner's
// validation and copy, and the owner's request goroutine all sit on the
// measured path; the coordinator runs on the benchmark's goroutine.
func BenchmarkRemoteReadInproc(b *testing.B) {
	const p, piece = 4, 1024
	machine := vp.NewMachine(p)
	b.Cleanup(machine.Shutdown)
	m := New(machine)
	id, st := m.CreateArray(0, distSpec(p*piece, p, grid.BlockDefault(), darray.Double))
	if st != StatusOK {
		b.Fatalf("CreateArray: %v", st)
	}
	lo, hi := []int{piece}, []int{2 * piece}
	buf := make([]float64, piece)
	b.SetBytes(8 * piece)
	b.ReportAllocs()
	for b.Loop() {
		if st := m.ReadBlockInto(0, id, lo, hi, buf); st != StatusOK {
			b.Fatal(st)
		}
	}
}
