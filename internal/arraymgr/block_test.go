package arraymgr

import (
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
)

// TestBlockElementEquivalence writes through the bulk path and reads back
// per element (and vice versa): the two data planes must agree exactly.
func TestBlockElementEquivalence(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))

	lo, hi := []int{0, 0}, []int{4, 4}
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i * i)
	}
	if st := m.WriteBlock(0, id, lo, hi, vals); st != StatusOK {
		t.Fatalf("WriteBlock: %v", st)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v, st := m.ReadElement(0, id, []int{i, j})
			if st != StatusOK {
				t.Fatalf("ReadElement(%d,%d): %v", i, j, st)
			}
			if want := vals[i*4+j]; v != want {
				t.Fatalf("element (%d,%d) = %v, want %v", i, j, v, want)
			}
		}
	}

	// Per-element writes, bulk sub-rectangle read.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if st := m.WriteElement(0, id, []int{i, j}, float64(10*i+j)); st != StatusOK {
				t.Fatalf("WriteElement: %v", st)
			}
		}
	}
	sub, st := m.ReadBlock(0, id, []int{1, 1}, []int{3, 4})
	if st != StatusOK {
		t.Fatalf("ReadBlock: %v", st)
	}
	k := 0
	for i := 1; i < 3; i++ {
		for j := 1; j < 4; j++ {
			if want := float64(10*i + j); sub[k] != want {
				t.Fatalf("block[%d] (element %d,%d) = %v, want %v", k, i, j, sub[k], want)
			}
			k++
		}
	}
}

// TestBlockOneMessagePerOwner verifies the bulk data plane's message
// budget: a block transfer issues exactly one request per remote owning
// processor, independent of element count; the coordinator runs on the
// caller and costs none.
func TestBlockOneMessagePerOwner(t *testing.T) {
	machine, m := newTestManager(t, 4)
	spec := basicSpec(4)
	spec.Dims = []int{32, 32} // 1024 elements over a 2x2 grid
	id := mustCreate(t, m, 0, spec)

	lo, hi := []int{0, 0}, []int{32, 32}
	owners := 4
	remote := owners - 1 // processor 0 holds a section and coordinates

	before := machine.Router().Sent()
	if _, st := m.ReadBlock(0, id, lo, hi); st != StatusOK {
		t.Fatalf("ReadBlock: %v", st)
	}
	got := machine.Router().Sent() - before
	if want := uint64(remote); got != want {
		t.Fatalf("ReadBlock of 1024 elements sent %d messages, want %d", got, want)
	}

	before = machine.Router().Sent()
	if st := m.WriteBlock(0, id, lo, hi, make([]float64, 1024)); st != StatusOK {
		t.Fatalf("WriteBlock: %v", st)
	}
	got = machine.Router().Sent() - before
	if want := uint64(remote); got != want {
		t.Fatalf("WriteBlock of 1024 elements sent %d messages, want %d", got, want)
	}
}

func TestBlockErrors(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))

	if _, st := m.ReadBlock(0, id, []int{0, 0}, []int{5, 4}); st != StatusInvalid {
		t.Fatalf("out-of-range rectangle: %v", st)
	}
	if _, st := m.ReadBlock(0, id, []int{2, 2}, []int{2, 4}); st != StatusInvalid {
		t.Fatalf("empty rectangle: %v", st)
	}
	if st := m.WriteBlock(0, id, []int{0, 0}, []int{2, 2}, []float64{1}); st != StatusInvalid {
		t.Fatalf("short buffer: %v", st)
	}
	if _, st := m.ReadBlock(7, id, []int{0, 0}, []int{4, 4}); st != StatusInvalid {
		t.Fatalf("bad processor: %v", st)
	}
	if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatalf("FreeArray: %v", st)
	}
	if _, st := m.ReadBlock(0, id, []int{0, 0}, []int{4, 4}); st != StatusNotFound {
		t.Fatalf("freed array read: %v", st)
	}
	if st := m.WriteBlock(0, id, []int{0, 0}, []int{4, 4}, make([]float64, 16)); st != StatusNotFound {
		t.Fatalf("freed array write: %v", st)
	}
}

// TestBlockWithBordersAndIndexing runs the bulk path over bordered
// column-major arrays: storage displacement must not leak into the global
// view.
func TestBlockWithBordersAndIndexing(t *testing.T) {
	for _, ix := range []grid.Indexing{grid.RowMajor, grid.ColMajor} {
		_, m := newTestManager(t, 4)
		spec := CreateSpec{
			Type:     darray.Double,
			Dims:     []int{6, 4},
			Procs:    []int{0, 1, 2, 3},
			Distrib:  []grid.Decomp{grid.BlockOf(2), grid.BlockOf(2)},
			Borders:  ExplicitBorders{1, 2, 2, 1},
			Indexing: ix,
		}
		id := mustCreate(t, m, 0, spec)
		vals := make([]float64, 24)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		if st := m.WriteBlock(0, id, []int{0, 0}, []int{6, 4}, vals); st != StatusOK {
			t.Fatalf("%v: WriteBlock: %v", ix, st)
		}
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				v, st := m.ReadElement(0, id, []int{i, j})
				if st != StatusOK {
					t.Fatalf("%v: ReadElement: %v", ix, st)
				}
				if want := vals[i*4+j]; v != want {
					t.Fatalf("%v: element (%d,%d) = %v, want %v", ix, i, j, v, want)
				}
			}
		}
		got, st := m.ReadBlock(0, id, []int{0, 0}, []int{6, 4})
		if st != StatusOK {
			t.Fatalf("%v: ReadBlock: %v", ix, st)
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("%v: ReadBlock[%d] = %v, want %v", ix, i, got[i], vals[i])
			}
		}
	}
}
