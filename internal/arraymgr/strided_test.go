package arraymgr

import (
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
)

// TestStridedPerElementEquivalence is the equivalence property of the
// strided plane: ReadBlockStrided/WriteBlockStrided must agree with
// per-element loops over the lattice, across decompositions, borders and
// indexing orders, and must leave off-lattice elements untouched.
func TestStridedPerElementEquivalence(t *testing.T) {
	cases := []struct {
		name string
		p    int
		spec func(p int) CreateSpec
		step []int
	}{
		{"2d/row", 4, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Dims = []int{12, 8}
			return s
		}, []int{2, 3}},
		{"2d/col/bordered", 4, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Dims = []int{12, 8}
			s.Indexing = grid.ColMajor
			s.Borders = ExplicitBorders{1, 2, 0, 1}
			return s
		}, []int{3, 2}},
		{"1d/subset-procs", 6, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Dims = []int{24}
			s.Procs = []int{5, 1, 3, 0}
			s.Distrib = []grid.Decomp{grid.BlockDefault()}
			return s
		}, []int{4}},
		{"2d/rows-only", 4, func(p int) CreateSpec {
			s := basicSpec(p)
			s.Dims = []int{16, 6}
			s.Distrib = []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()}
			return s
		}, []int{4, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, m := newTestManager(t, c.p)
			spec := c.spec(c.p)
			id := mustCreate(t, m, 0, spec)

			// Background pattern through the dense path.
			nd := len(spec.Dims)
			lo := make([]int, nd)
			base := make([]float64, grid.RectSize(lo, spec.Dims))
			for i := range base {
				base[i] = float64(i + 1)
			}
			if st := m.WriteBlock(0, id, lo, spec.Dims, base); st != StatusOK {
				t.Fatalf("WriteBlock: %v", st)
			}

			// Strided read agrees with per-element reads on the lattice.
			got, st := m.ReadBlockStrided(0, id, lo, spec.Dims, c.step)
			if st != StatusOK {
				t.Fatalf("ReadBlockStrided: %v", st)
			}
			if len(got) != grid.StridedRectSize(lo, spec.Dims, c.step) {
				t.Fatalf("strided read returned %d values, lattice has %d", len(got), grid.StridedRectSize(lo, spec.Dims, c.step))
			}
			if err := grid.ForEachStridedRect(lo, spec.Dims, c.step, func(gidx []int, k int) error {
				want, st := m.ReadElement(0, id, gidx)
				if st != StatusOK {
					t.Fatalf("ReadElement(%v): %v", gidx, st)
				}
				if got[k] != want {
					t.Fatalf("strided[%d] (%v) = %v, read_element says %v", k, gidx, got[k], want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// The buffer-reuse variant agrees.
			dst := make([]float64, len(got))
			if st := m.ReadBlockStridedInto(0, id, lo, spec.Dims, c.step, dst); st != StatusOK {
				t.Fatalf("ReadBlockStridedInto: %v", st)
			}
			for i := range got {
				if dst[i] != got[i] {
					t.Fatalf("dst[%d] = %v, want %v", i, dst[i], got[i])
				}
			}

			// Strided write hits exactly the lattice, like a write_element
			// loop over it: replay on a second array and compare snapshots.
			for i := range dst {
				dst[i] = -float64(i + 1)
			}
			if st := m.WriteBlockStrided(0, id, lo, spec.Dims, c.step, dst); st != StatusOK {
				t.Fatalf("WriteBlockStrided: %v", st)
			}
			id2 := mustCreate(t, m, 0, spec)
			if st := m.WriteBlock(0, id2, lo, spec.Dims, base); st != StatusOK {
				t.Fatalf("WriteBlock: %v", st)
			}
			if err := grid.ForEachStridedRect(lo, spec.Dims, c.step, func(gidx []int, k int) error {
				if st := m.WriteElement(0, id2, gidx, dst[k]); st != StatusOK {
					t.Fatalf("WriteElement: %v", st)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
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
					t.Fatalf("strided write and write_element loop disagree at %d: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestStridedUnitStepDelegates pins the stride=1 degenerate case: it
// matches the dense path (identical results; a wholly-local rectangle
// sends no messages).
func TestStridedUnitStepDelegates(t *testing.T) {
	machine, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, fastPathSpec())
	vals := make([]float64, 32*32)
	for i := range vals {
		vals[i] = float64(i)
	}
	if st := m.WriteBlock(0, id, []int{0, 0}, []int{32, 32}, vals); st != StatusOK {
		t.Fatalf("WriteBlock: %v", st)
	}
	ones := []int{1, 1}
	want, st := m.ReadBlock(0, id, []int{3, 5}, []int{29, 31})
	if st != StatusOK {
		t.Fatalf("ReadBlock: %v", st)
	}
	got, st := m.ReadBlockStrided(0, id, []int{3, 5}, []int{29, 31}, ones)
	if st != StatusOK {
		t.Fatalf("unit-step ReadBlockStrided: %v", st)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unit-step strided[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
	// Wholly-local unit-step ops take the dense fast path: zero messages.
	buf := make([]float64, 16*16)
	before := machine.Router().Sent()
	if st := m.ReadBlockStridedInto(0, id, []int{0, 0}, []int{16, 16}, ones, buf); st != StatusOK {
		t.Fatalf("ReadBlockStridedInto: %v", st)
	}
	if st := m.WriteBlockStrided(0, id, []int{0, 0}, []int{16, 16}, ones, buf); st != StatusOK {
		t.Fatalf("WriteBlockStrided: %v", st)
	}
	if sent := machine.Router().Sent() - before; sent != 0 {
		t.Errorf("unit-step local ops sent %d messages, want 0", sent)
	}
}

// TestStridedMessageBudget asserts the strided plane's budget: fetching
// every k-th row across P owning processors costs one request per remote
// owner holding a lattice point — never one
// message (or one index) per element, and owners the stride skips are
// never contacted.
func TestStridedMessageBudget(t *testing.T) {
	const p = 4
	machine, m := newTestManager(t, p)
	spec := basicSpec(p)
	spec.Dims = []int{32, 16} // block rows: 8 rows per owner
	spec.Distrib = []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()}
	id := mustCreate(t, m, 0, spec)

	lo, hi := []int{0, 0}, []int{32, 16}

	// Every 2nd row touches all 4 owners: 3 remote requests.
	before := machine.Router().Sent()
	if _, st := m.ReadBlockStrided(0, id, lo, hi, []int{2, 1}); st != StatusOK {
		t.Fatalf("ReadBlockStrided: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(p-1); got != want {
		t.Errorf("every-2nd-row read sent %d messages, want %d", got, want)
	}

	before = machine.Router().Sent()
	if st := m.WriteBlockStrided(0, id, lo, hi, []int{2, 1}, make([]float64, 16*16)); st != StatusOK {
		t.Fatalf("WriteBlockStrided: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(p-1); got != want {
		t.Errorf("every-2nd-row write sent %d messages, want %d", got, want)
	}

	// Every 16th row holds points only on owners 0 and 2: the stride skips
	// owners 1 and 3 entirely, so only one remote owner is contacted.
	before = machine.Router().Sent()
	if _, st := m.ReadBlockStrided(0, id, lo, hi, []int{16, 1}); st != StatusOK {
		t.Fatalf("ReadBlockStrided: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(1); got != want {
		t.Errorf("every-16th-row read sent %d messages, want %d (skipped owners contacted?)", got, want)
	}
}

// TestStridedOwnerReplyZeroAllocs pins the owner read handler serving a
// strided share at zero heap allocations per request at a steady state,
// like the dense and offset-set pieces it also serves.
func TestStridedOwnerReplyZeroAllocs(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, fastPathSpec())

	req := &request{id: id, lo: []int{0, 0}, hi: []int{16, 16}, step: []int{2, 3}}
	for i := 0; i < 3; i++ {
		if r := m.doReadLocal(0, req); r.status != StatusOK {
			t.Fatalf("doReadLocal (strided): %v", r.status)
		} else {
			putBuf(r.vals)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		r := m.doReadLocal(0, req)
		if r.status != StatusOK {
			t.Errorf("doReadLocal (strided): %v", r.status)
		}
		putBuf(r.vals)
	})
	if allocs != 0 {
		t.Errorf("read_local (strided) reply: %v allocs/op, want 0 (pooled)", allocs)
	}
}

// TestCopyShareZeroAllocs pins piece.place, which places every rectangle
// read reply and packs every rectangle write with one MoveLattice on the
// request buffer, at zero heap allocations in both directions for a
// rectangle of at most darray.MaxFastDims dimensions — one run per
// dimension (cyclic x block) and several (block-cyclic) alike: the walk's
// scratch lives in fixed arrays.
func TestCopyShareZeroAllocs(t *testing.T) {
	_, m := newTestManager(t, 4)
	for _, distrib := range [][]grid.Decomp{
		{grid.CyclicOf(2), grid.BlockOf(2)},
		{grid.BlockCyclicOfN(2, 2), grid.BlockCyclicOfN(3, 2)},
	} {
		id := mustCreate(t, m, 0, CreateSpec{
			Type: darray.Double, Dims: []int{12, 10}, Procs: []int{0, 1, 2, 3},
			Distrib: distrib, Borders: NoBorderSpec{}, Indexing: grid.RowMajor,
		})
		meta, st := m.Meta(0, id)
		if st != StatusOK {
			t.Fatalf("Meta: %v", st)
		}
		lo, hi, step := []int{1, 0}, []int{12, 9}, []int{2, 1}
		pieces, sdims, size, err := split(meta, region{lo: lo, hi: hi, step: step})
		if err != nil || len(pieces) == 0 {
			t.Fatalf("split: %d pieces, %v", len(pieces), err)
		}
		full := make([]float64, size)
		p := &pieces[len(pieces)-1]
		sub := make([]float64, p.size(sdims))
		allocs := testing.AllocsPerRun(200, func() {
			if p.place(false, full, sub, sdims) != nil || p.place(true, full, sub, sdims) != nil {
				t.Fatal("place failed")
			}
		})
		if allocs != 0 {
			t.Errorf("%v: piece.place (runs %v): %v allocs/op, want 0", distrib, p.blk.Runs, allocs)
		}
	}
}

// TestStridedLocalFastPath pins the wholly-local strided fast path at zero
// heap allocations and zero messages, including a lattice whose bounding
// hi overshoots the section edge (locality is decided by the last lattice
// point, not the requested bound).
func TestStridedLocalFastPath(t *testing.T) {
	machine, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, fastPathSpec()) // 32x32 over 2x2: proc 0 owns [0,16)^2

	// lo=1, step=3 within [0,16): last point 13, but hi=16 would also
	// qualify; use hi=15 and an overshooting variant below.
	lo, hi, step := []int{1, 0}, []int{16, 16}, []int{3, 2}
	n := grid.StridedRectSize(lo, hi, step)
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = float64(i)
	}
	if st := m.WriteBlockStrided(0, id, lo, hi, step, buf); st != StatusOK {
		t.Fatalf("warm-up WriteBlockStrided: %v", st)
	}
	before := machine.Router().Sent()
	writeAllocs := testing.AllocsPerRun(200, func() {
		if st := m.WriteBlockStrided(0, id, lo, hi, step, buf); st != StatusOK {
			t.Errorf("WriteBlockStrided: %v", st)
		}
	})
	readAllocs := testing.AllocsPerRun(200, func() {
		if st := m.ReadBlockStridedInto(0, id, lo, hi, step, buf); st != StatusOK {
			t.Errorf("ReadBlockStridedInto: %v", st)
		}
	})
	if writeAllocs != 0 {
		t.Errorf("local WriteBlockStrided: %v allocs/op, want 0", writeAllocs)
	}
	if readAllocs != 0 {
		t.Errorf("local ReadBlockStridedInto: %v allocs/op, want 0", readAllocs)
	}
	if sent := machine.Router().Sent() - before; sent != 0 {
		t.Errorf("local strided fast path sent %d messages, want 0", sent)
	}

	// Overshooting bound: points {1, 9} in each dimension (step 8, hi 17
	// would leave the array; hi=16 with last point 9 stays inside proc 0's
	// section even though a dense [1,16) read would too — use step 12:
	// points {1, 13}, bounding box [1,14) local, requested hi 16 local as
	// well; the point is the lattice, not the bound, decides).
	big := []int{12, 12}
	small := make([]float64, grid.StridedRectSize([]int{1, 1}, []int{16, 16}, big))
	before = machine.Router().Sent()
	if st := m.ReadBlockStridedInto(0, id, []int{1, 1}, []int{16, 16}, big, small); st != StatusOK {
		t.Fatalf("sparse ReadBlockStridedInto: %v", st)
	}
	if sent := machine.Router().Sent() - before; sent != 0 {
		t.Errorf("sparse local strided read sent %d messages, want 0", sent)
	}
}

// TestStridedErrors covers the failure statuses of the strided plane.
func TestStridedErrors(t *testing.T) {
	_, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, basicSpec(4))

	if _, st := m.ReadBlockStrided(0, id, []int{0, 0}, []int{5, 4}, []int{1, 2}); st != StatusInvalid {
		t.Errorf("out-of-range rectangle: %v", st)
	}
	if _, st := m.ReadBlockStrided(0, id, []int{0, 0}, []int{4, 4}, []int{0, 1}); st != StatusInvalid {
		t.Errorf("zero step: %v", st)
	}
	if _, st := m.ReadBlockStrided(0, id, []int{0, 0}, []int{4, 4}, []int{2}); st != StatusInvalid {
		t.Errorf("short step vector: %v", st)
	}
	if st := m.WriteBlockStrided(0, id, []int{0, 0}, []int{4, 4}, []int{2, 2}, []float64{1}); st != StatusInvalid {
		t.Errorf("short buffer: %v", st)
	}
	if st := m.ReadBlockStridedInto(0, id, []int{0, 0}, []int{4, 4}, []int{2, 2}, make([]float64, 3)); st != StatusInvalid {
		t.Errorf("wrong-size destination: %v", st)
	}
	if _, st := m.ReadBlockStrided(7, id, []int{0, 0}, []int{4, 4}, []int{2, 2}); st != StatusInvalid {
		t.Errorf("bad processor: %v", st)
	}
	if st := m.FreeArray(0, id); st != StatusOK {
		t.Fatalf("FreeArray: %v", st)
	}
	if _, st := m.ReadBlockStrided(0, id, []int{0, 0}, []int{4, 4}, []int{2, 2}); st != StatusNotFound {
		t.Errorf("freed strided read: %v", st)
	}
	if st := m.WriteBlockStrided(0, id, []int{0, 0}, []int{4, 4}, []int{2, 2}, make([]float64, 4)); st != StatusNotFound {
		t.Errorf("freed strided write: %v", st)
	}
}
