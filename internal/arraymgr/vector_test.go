package arraymgr

import (
	"math/rand"
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
)

// TestGatherScatterPerElementEquivalence is the equivalence property of the
// indexed plane: GatherElements/ScatterElements must agree with
// read_element/write_element loops across decompositions, border widths,
// indexing orders and element types, including repeated indices.
func TestGatherScatterPerElementEquivalence(t *testing.T) {
	cases := []struct {
		name string
		p    int
		spec func(p int) CreateSpec
	}{
		{"2d/row", 4, func(p int) CreateSpec { return basicSpec(p) }},
		{"2d/col", 4, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Indexing = grid.ColMajor
			return s
		}},
		{"2d/bordered", 4, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Borders = ExplicitBorders{1, 2, 0, 1}
			return s
		}},
		{"2d/int", 4, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Type = darray.Int
			return s
		}},
		{"1d/subset-procs", 6, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Dims = []int{20}
			s.Procs = []int{5, 1, 3, 0}
			s.Distrib = []grid.Decomp{grid.BlockDefault()}
			return s
		}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, m := newTestManager(t, c.p)
			spec := c.spec(c.p)
			id := mustCreate(t, m, 0, spec)

			const k = 40
			indices := make([][]int, k)
			vals := make([]float64, k)
			for i := range indices {
				idx := make([]int, len(spec.Dims))
				for d := range idx {
					idx[d] = rng.Intn(spec.Dims[d])
				}
				indices[i] = idx
				vals[i] = float64(i + 1)
			}
			indices[k-1] = indices[0] // repeated index: last writer wins

			if st := m.ScatterElements(0, id, indices, vals); st != StatusOK {
				t.Fatalf("ScatterElements: %v", st)
			}
			got, st := m.GatherElements(0, id, indices)
			if st != StatusOK {
				t.Fatalf("GatherElements: %v", st)
			}
			if len(got) != k {
				t.Fatalf("gather returned %d values for %d indices", len(got), k)
			}
			for i, idx := range indices {
				want, st := m.ReadElement(0, id, idx)
				if st != StatusOK {
					t.Fatalf("ReadElement(%v): %v", idx, st)
				}
				if got[i] != want {
					t.Fatalf("gather[%d] (%v) = %v, read_element says %v", i, idx, got[i], want)
				}
			}
			// The scatter must equal a sequential write_element loop: replay
			// it per element on a second array and compare snapshots.
			id2 := mustCreate(t, m, 0, spec)
			for i, idx := range indices {
				if st := m.WriteElement(0, id2, idx, vals[i]); st != StatusOK {
					t.Fatalf("WriteElement: %v", st)
				}
			}
			lo := make([]int, len(spec.Dims))
			a, st := m.ReadBlock(0, id, lo, spec.Dims)
			if st != StatusOK {
				t.Fatalf("ReadBlock: %v", st)
			}
			b, st := m.ReadBlock(0, id2, lo, spec.Dims)
			if st != StatusOK {
				t.Fatalf("ReadBlock: %v", st)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("scatter and write_element loop disagree at %d: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestGatherScatterMessageBudget asserts the indexed plane's budget: a
// k-element gather or scatter across P owning processors costs at most one
// request/reply pair per owner (here, one router message per request; the
// reply rides a channel), never one per element.
func TestGatherScatterMessageBudget(t *testing.T) {
	const p = 4
	machine, m := newTestManager(t, p)
	spec := basicSpec(p)
	spec.Dims = []int{64}
	spec.Distrib = []grid.Decomp{grid.BlockDefault()}
	id := mustCreate(t, m, 0, spec)

	// 32 indices spread over all 4 owners, from processor 0 (itself an
	// owner): 3 remote owner requests.
	indices := make([][]int, 32)
	vals := make([]float64, len(indices))
	for i := range indices {
		indices[i] = []int{(i * 7) % 64}
		vals[i] = float64(i)
	}
	budget := uint64(p - 1)

	before := machine.Router().Sent()
	if st := m.ScatterElements(0, id, indices, vals); st != StatusOK {
		t.Fatalf("ScatterElements: %v", st)
	}
	if got := machine.Router().Sent() - before; got > budget {
		t.Errorf("%d-element scatter across %d owners sent %d messages, budget %d", len(indices), p, got, budget)
	}

	before = machine.Router().Sent()
	if _, st := m.GatherElements(0, id, indices); st != StatusOK {
		t.Fatalf("GatherElements: %v", st)
	}
	if got := machine.Router().Sent() - before; got > budget {
		t.Errorf("%d-element gather across %d owners sent %d messages, budget %d", len(indices), p, got, budget)
	}

	// All indices on one remote owner: exactly one message, to that
	// owner, regardless of k.
	remote := make([][]int, 16)
	for i := range remote {
		remote[i] = []int{48 + i%16}
	}
	before = machine.Router().Sent()
	if _, st := m.GatherElements(0, id, remote); st != StatusOK {
		t.Fatalf("GatherElements: %v", st)
	}
	if got := machine.Router().Sent() - before; got != 1 {
		t.Errorf("single-owner gather sent %d messages, want 1", got)
	}
}

// TestScatterDuplicateIndices pins the last-writer-wins ordering of
// repeated indices within one ScatterElements request, including
// duplicates that straddle other owners' elements.
func TestScatterDuplicateIndices(t *testing.T) {
	_, m := newTestManager(t, 4)
	spec := basicSpec(4)
	spec.Dims = []int{16}
	spec.Distrib = []grid.Decomp{grid.BlockDefault()}
	id := mustCreate(t, m, 0, spec)

	indices := [][]int{{2}, {9}, {2}, {14}, {2}, {9}}
	vals := []float64{1, 2, 3, 4, 5, 6}
	if st := m.ScatterElements(0, id, indices, vals); st != StatusOK {
		t.Fatalf("ScatterElements: %v", st)
	}
	for _, c := range []struct {
		idx  int
		want float64
	}{{2, 5}, {9, 6}, {14, 4}} {
		got, st := m.ReadElement(0, id, []int{c.idx})
		if st != StatusOK || got != c.want {
			t.Errorf("element %d = %v (%v), want %v (last writer)", c.idx, got, st, c.want)
		}
	}
}

// TestOwnerReplyZeroAllocs pins the owner read handler — serving a
// rectangle share and an offset set from the float-buffer pool — at
// zero heap allocations per request at a steady state.
func TestOwnerReplyZeroAllocs(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, fastPathSpec())

	blockReq := &request{id: id, lo: []int{0, 0}, hi: []int{16, 16}}
	vectorReq := &request{id: id, offs: []int{0, 5, 17, 100, 255, 5}}

	// Warm the pool: the first requests allocate their buffers.
	for i := 0; i < 3; i++ {
		if r := m.doReadLocal(0, blockReq); r.status != StatusOK {
			t.Fatalf("doReadLocal (rectangle): %v", r.status)
		} else {
			putBuf(r.vals)
		}
		if r := m.doReadLocal(0, vectorReq); r.status != StatusOK {
			t.Fatalf("doReadLocal (offsets): %v", r.status)
		} else {
			putBuf(r.vals)
		}
	}

	block := testing.AllocsPerRun(200, func() {
		r := m.doReadLocal(0, blockReq)
		if r.status != StatusOK {
			t.Errorf("doReadLocal (rectangle): %v", r.status)
		}
		putBuf(r.vals)
	})
	vector := testing.AllocsPerRun(200, func() {
		r := m.doReadLocal(0, vectorReq)
		if r.status != StatusOK {
			t.Errorf("doReadLocal (offsets): %v", r.status)
		}
		putBuf(r.vals)
	})
	if block != 0 {
		t.Errorf("read_local (rectangle) reply: %v allocs/op, want 0 (pooled)", block)
	}
	if vector != 0 {
		t.Errorf("read_local (offsets) reply: %v allocs/op, want 0 (pooled)", vector)
	}
}

// TestGatherScatterErrors covers the failure statuses of the indexed plane.
func TestGatherScatterErrors(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))

	if _, st := m.GatherElements(0, id, [][]int{{0, 0}, {4, 0}}); st != StatusInvalid {
		t.Errorf("out-of-range gather: %v", st)
	}
	if _, st := m.GatherElements(0, id, [][]int{{0}}); st != StatusInvalid {
		t.Errorf("short index tuple: %v", st)
	}
	if st := m.ScatterElements(0, id, [][]int{{0, 0}}, []float64{1, 2}); st != StatusInvalid {
		t.Errorf("length mismatch: %v", st)
	}
	if st := m.GatherElementsInto(0, id, [][]int{{0, 0}}, make([]float64, 2)); st != StatusInvalid {
		t.Errorf("wrong-size destination: %v", st)
	}
	if _, st := m.GatherElements(7, id, [][]int{{0, 0}}); st != StatusInvalid {
		t.Errorf("bad processor: %v", st)
	}
	// The empty vector succeeds and moves nothing.
	if vals, st := m.GatherElements(0, id, nil); st != StatusOK || len(vals) != 0 {
		t.Errorf("empty gather: %v %v", vals, st)
	}
	if st := m.ScatterElements(0, id, nil, nil); st != StatusOK {
		t.Errorf("empty scatter: %v", st)
	}
	if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatalf("FreeArray: %v", st)
	}
	if _, st := m.GatherElements(0, id, [][]int{{0, 0}}); st != StatusNotFound {
		t.Errorf("freed gather: %v", st)
	}
	if st := m.ScatterElements(0, id, [][]int{{0, 0}}, []float64{1}); st != StatusNotFound {
		t.Errorf("freed scatter: %v", st)
	}
}

// TestGatherElementsInto drives the buffer-reuse gather: one caller-owned
// buffer serves repeated gathers and always agrees with GatherElements.
func TestGatherElementsInto(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))
	indices := [][]int{{0, 0}, {3, 3}, {1, 2}, {2, 1}, {3, 3}}
	vals := []float64{10, 20, 30, 40, 50}
	if st := m.ScatterElements(0, id, indices, vals); st != StatusOK {
		t.Fatalf("ScatterElements: %v", st)
	}
	want, st := m.GatherElements(0, id, indices)
	if st != StatusOK {
		t.Fatalf("GatherElements: %v", st)
	}
	dst := make([]float64, len(indices))
	for run := 0; run < 3; run++ {
		if st := m.GatherElementsInto(0, id, indices, dst); st != StatusOK {
			t.Fatalf("GatherElementsInto: %v", st)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("run %d: dst[%d] = %v, want %v", run, i, dst[i], want[i])
			}
		}
	}
}
