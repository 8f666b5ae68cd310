package darray

import (
	"testing"

	"repro/internal/grid"
)

// refSection builds a bordered section whose interior element at lidx
// holds value(lidx), with borders poisoned to -1 so border leaks are
// visible.
func refSection(t *testing.T, typ ElemType, localDims, borders []int, ix grid.Indexing, value func(lidx []int) float64) *Section {
	t.Helper()
	plus, err := DimsPlus(localDims, borders)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSection(typ, grid.Size(plus))
	for i := 0; i < s.Len(); i++ {
		s.SetFloat(i, -1)
	}
	if err := grid.ForEachRect(make([]int, len(localDims)), localDims, func(lidx []int, k int) error {
		off, err := StorageOffset(lidx, localDims, borders, ix)
		if err != nil {
			return err
		}
		s.SetFloat(off, value(lidx))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSectionStridedReadWrite checks MoveLattice's strided moves against
// per-element enumeration across border widths, indexing orders and
// element types.
func TestSectionStridedReadWrite(t *testing.T) {
	value := func(lidx []int) float64 {
		v := 2.0
		for _, x := range lidx {
			v = 23*v + float64(x)
		}
		return v
	}
	cases := []struct {
		name      string
		typ       ElemType
		localDims []int
		borders   []int
		ix        grid.Indexing
		lo, hi    []int
		step      []int
	}{
		{"1d/plain", Double, []int{17}, []int{0, 0}, grid.RowMajor, []int{2}, []int{16}, []int{3}},
		{"2d/row", Double, []int{8, 9}, []int{0, 0, 0, 0}, grid.RowMajor, []int{1, 0}, []int{8, 9}, []int{2, 3}},
		{"2d/row/unit-last", Double, []int{8, 9}, []int{1, 1, 2, 0}, grid.RowMajor, []int{0, 2}, []int{7, 9}, []int{3, 1}},
		{"2d/col/bordered", Double, []int{6, 5}, []int{2, 1, 0, 2}, grid.ColMajor, []int{1, 1}, []int{6, 5}, []int{2, 2}},
		{"2d/int", Int, []int{5, 5}, []int{1, 0, 1, 0}, grid.RowMajor, []int{0, 0}, []int{5, 5}, []int{2, 4}},
		{"3d/mixed", Double, []int{4, 5, 6}, []int{1, 1, 0, 0, 2, 1}, grid.RowMajor, []int{0, 1, 2}, []int{4, 5, 6}, []int{3, 2, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := refSection(t, c.typ, c.localDims, c.borders, c.ix, value)
			n := grid.StridedRectSize(c.lo, c.hi, c.step)
			dst := make([]float64, n)
			if err := s.MoveLattice(true, dst, c.lo, c.hi, c.step, nil, c.localDims, c.borders, c.ix); err != nil {
				t.Fatal(err)
			}
			if err := grid.ForEachStridedRect(c.lo, c.hi, c.step, func(lidx []int, k int) error {
				want := value(lidx)
				if c.typ == Int {
					want = float64(int64(want))
				}
				if dst[k] != want {
					t.Fatalf("dst[%d] (%v) = %v, want %v", k, lidx, dst[k], want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Write the lattice back shifted; only lattice elements change.
			for i := range dst {
				dst[i] += 1000
			}
			if err := s.MoveLattice(false, dst, c.lo, c.hi, c.step, nil, c.localDims, c.borders, c.ix); err != nil {
				t.Fatal(err)
			}
			onLattice := func(lidx []int) bool {
				for i := range lidx {
					if lidx[i] < c.lo[i] || lidx[i] >= c.hi[i] || (lidx[i]-c.lo[i])%c.step[i] != 0 {
						return false
					}
				}
				return true
			}
			if err := grid.ForEachRect(make([]int, len(c.localDims)), c.localDims, func(lidx []int, k int) error {
				off, err := StorageOffset(lidx, c.localDims, c.borders, c.ix)
				if err != nil {
					return err
				}
				want := value(lidx)
				if c.typ == Int {
					want = float64(int64(want))
				}
				if onLattice(lidx) {
					want += 1000
					if c.typ == Int {
						want = float64(int64(want))
					}
				}
				if got := s.GetFloat(off); got != want {
					t.Fatalf("element %v = %v after strided write, want %v", lidx, got, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSectionStridedErrors covers MoveLattice's validation of strided
// moves.
func TestSectionStridedErrors(t *testing.T) {
	s := NewSection(Double, 16)
	localDims := []int{4, 4}
	borders := NoBorders(2)
	if err := s.MoveLattice(true, make([]float64, 4), []int{0, 0}, []int{4, 4}, []int{0, 2}, nil, localDims, borders, grid.RowMajor); err == nil {
		t.Error("zero step accepted")
	}
	if err := s.MoveLattice(true, make([]float64, 3), []int{0, 0}, []int{4, 4}, []int{2, 2}, nil, localDims, borders, grid.RowMajor); err == nil {
		t.Error("wrong-size buffer accepted")
	}
	if err := s.MoveLattice(false, make([]float64, 4), []int{0, 0}, []int{5, 4}, []int{2, 2}, nil, localDims, borders, grid.RowMajor); err == nil {
		t.Error("out-of-range rectangle accepted")
	}
	if err := s.MoveLattice(false, make([]float64, 5), []int{0, 0}, []int{4, 4}, []int{2, 2}, nil, localDims, borders, grid.RowMajor); err == nil {
		t.Error("wrong-size values accepted")
	}
}

// TestSectionStridedZeroAllocs pins MoveLattice's strided moves at zero
// heap allocations, like the dense moves on the same walk.
func TestSectionStridedZeroAllocs(t *testing.T) {
	localDims := []int{16, 16}
	borders := []int{1, 1, 2, 0}
	s := refSection(t, Double, localDims, borders, grid.RowMajor, func(lidx []int) float64 { return float64(lidx[0]) })
	lo, hi, step := []int{0, 0}, []int{16, 16}, []int{2, 3}
	buf := make([]float64, grid.StridedRectSize(lo, hi, step))
	read := testing.AllocsPerRun(200, func() {
		if err := s.MoveLattice(true, buf, lo, hi, step, nil, localDims, borders, grid.RowMajor); err != nil {
			t.Error(err)
		}
	})
	write := testing.AllocsPerRun(200, func() {
		if err := s.MoveLattice(false, buf, lo, hi, step, nil, localDims, borders, grid.RowMajor); err != nil {
			t.Error(err)
		}
	})
	if read != 0 {
		t.Errorf("MoveLattice read: %v allocs/op, want 0", read)
	}
	if write != 0 {
		t.Errorf("MoveLattice write: %v allocs/op, want 0", write)
	}
}

// TestOwnerBlocksStrided checks the strided owner split of a block array
// (Split): blocks hold one run per dimension and partition the lattice
// exactly, each block's points lie on the request lattice at their
// buffer positions and in its owner's section, and cells the stride
// skips produce no block.
func TestOwnerBlocksStrided(t *testing.T) {
	meta := &Meta{
		ID: ID{}, Type: Double,
		Dims:          []int{12, 8},
		Procs:         []int{0, 1, 2, 3, 4, 5},
		GridDims:      []int{3, 2},
		LocalDims:     []int{4, 4},
		Borders:       NoBorders(2),
		LocalDimsPlus: []int{4, 4},
		Indexing:      grid.RowMajor,
		GridIndexing:  grid.RowMajor,
	}
	strides := grid.Strides(meta.LocalDimsPlus, meta.Indexing)
	cases := []struct {
		name         string
		lo, hi, step []int
	}{
		{"every-2nd-row", []int{0, 0}, []int{12, 8}, []int{2, 1}},
		{"every-3rd-both", []int{1, 1}, []int{12, 8}, []int{3, 3}},
		{"skip-middle-cells", []int{0, 0}, []int{12, 8}, []int{8, 5}},
		{"single-point", []int{5, 3}, []int{6, 4}, []int{1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blocks, err := meta.Split(c.lo, c.hi, c.step)
			if err != nil {
				t.Fatalf("Split: %v", err)
			}
			sdims := grid.StridedRectDims(c.lo, c.hi, c.step)
			seen := make(map[int]int) // flattened global index -> hits
			for _, sh := range blocks {
				if _, ok := meta.HoldsSection(sh.SrcProc); !ok || sh.Runs != nil {
					t.Fatalf("block on processor %d (holds a section: %v) with runs %v", sh.SrcProc, ok, sh.Runs)
				}
				// Local bounds stay inside the section and the buffer, and
				// a block holds at least one point.
				cnt := make([]int, len(sh.SrcLo))
				for i := range sh.SrcLo {
					if sh.SrcLo[i] < 0 || sh.SrcHi[i] > meta.LocalDims[i] || sh.SrcLo[i] >= sh.SrcHi[i] ||
						sh.DstLo[i] < 0 || sh.DstHi[i] > sdims[i] {
						t.Fatalf("block bounds outside the section or buffer, or empty: %+v", sh)
					}
					cnt[i] = (sh.SrcHi[i] - sh.SrcLo[i] + grid.StepAt(sh.SrcStep, i) - 1) / grid.StepAt(sh.SrcStep, i)
				}
				gidx := make([]int, len(cnt))
				if err := grid.ForEachRect(make([]int, len(cnt)), cnt, func(tt []int, _ int) error {
					// The placed position is a request lattice point.
					off := 0
					for i := range tt {
						gidx[i] = c.lo[i] + (sh.DstLo[i]+tt[i]*grid.StepAt(sh.DstStep, i))*c.step[i]
						off += (sh.SrcLo[i] + tt[i]*grid.StepAt(sh.SrcStep, i)) * strides[i]
					}
					if err := grid.CheckIndex(gidx, meta.Dims); err != nil {
						t.Fatalf("block point %v off the array", gidx)
					}
					// Owned by the share's processor, at the share's offset.
					proc, want, err := meta.Owner(gidx)
					if err != nil {
						return err
					}
					if proc != sh.SrcProc || off != want {
						t.Fatalf("point %v in block of proc %d at offset %d, owner says %d at %d", gidx, sh.SrcProc, off, proc, want)
					}
					lin, err := grid.Flatten(gidx, meta.Dims, grid.RowMajor)
					if err != nil {
						return err
					}
					seen[lin]++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			want := grid.StridedRectSize(c.lo, c.hi, c.step)
			if len(seen) != want {
				t.Fatalf("blocks cover %d points, lattice has %d", len(seen), want)
			}
			for lin, n := range seen {
				if n != 1 {
					t.Fatalf("point %d covered %d times", lin, n)
				}
			}
		})
	}
}
