package darray

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// latticeLayout is one bordered section shape for the walk's tests.
type latticeLayout struct {
	typ       ElemType
	localDims []int
	borders   []int
	ix        grid.Indexing
}

// plus is the layout's storage shape, borders included.
func (l latticeLayout) plus() []int {
	plus, _ := DimsPlus(l.localDims, l.borders) // every test layout is valid
	return plus
}

// meta is the single-cell metadata CopyRect reads the layout from.
func (l latticeLayout) meta() *Meta {
	return &Meta{Type: l.typ, Dims: l.localDims, LocalDims: l.localDims, Borders: l.borders, LocalDimsPlus: l.plus(), Indexing: l.ix}
}

// section allocates the layout's storage and fills every element, borders
// included, with a value distinct to its offset. Int storage alternates
// values past 2^53, which a float64 cannot hold, with small negatives.
func (l latticeLayout) section() *Section {
	s := NewSection(l.typ, grid.Size(l.plus()))
	for off := range s.Len() {
		if l.typ == Int {
			s.I[off] = int64(-off)
			if off%2 == 0 {
				s.I[off] = 1<<53 + 1 + int64(off)
			}
		} else {
			s.F[off] = 1.25*float64(off) - 7
		}
	}
	return s
}

// clone returns a deep copy of a section.
func clone(s *Section) *Section {
	return &Section{Type: s.Type, F: append([]float64(nil), s.F...), I: append([]int64(nil), s.I...)}
}

// refMove is the per-element semantics of the walk: Int→Int exact,
// everything else through GetFloat and SetFloat.
func refMove(dst *Section, dOff int, src *Section, sOff int) {
	if dst.Type == Int && src.Type == Int {
		dst.I[dOff] = src.I[sOff]
		return
	}
	dst.SetFloat(dOff, src.GetFloat(sOff))
}

// sameStorage fails the test unless got and want hold identical storage.
func sameStorage(t *testing.T, what string, got, want *Section) {
	t.Helper()
	for off := range want.Len() {
		if want.Type == Int && got.I[off] != want.I[off] || want.Type == Double && got.F[off] != want.F[off] {
			t.Fatalf("%s: storage offset %d = %v, want %v", what, off, got.GetFloat(off), want.GetFloat(off))
		}
	}
}

// fuzzLayout draws a layout of the given rank whose storage extent stays
// within ext per dimension, so high ranks stay small.
func fuzzLayout(in *fuzzBytes, rank, ext int) latticeLayout {
	l := latticeLayout{localDims: make([]int, rank), borders: make([]int, 2*rank)}
	for i := range rank {
		l.localDims[i] = 1 + in.next(ext)
	}
	l.borders = fuzzBorders(in, l.localDims, ext)
	if in.next(2) == 1 {
		l.typ = Int
	}
	if in.next(2) == 1 {
		l.ix = grid.ColMajor
	}
	return l
}

// fuzzBorders draws borders that keep each dimension's storage within ext.
func fuzzBorders(in *fuzzBytes, localDims []int, ext int) []int {
	b := make([]int, 2*len(localDims))
	for i, d := range localDims {
		b[2*i] = in.next(ext - d + 1)
		b[2*i+1] = in.next(ext - d - b[2*i] + 1)
	}
	return b
}

// latticeExt caps each dimension's storage extent by rank so that every
// layout holds at most a few thousand elements.
var latticeExt = [MaxFastDims + 2]int{0, 64, 24, 12, 7, 5, 4, 3, 3, 2}

// FuzzMoveLattice checks the one lattice walk against a per-element
// reference built from grid.ForEachStridedRect and StorageOffset, over
// ranks 1 to MaxFastDims+1 (the last on heap scratch), random borders,
// both indexings, dense (nil) and strided steps, and Int and Double
// sections: MoveLattice in both directions, then CopyRect onto a second
// section of another layout, border widths and element type, then both
// again over run lists (checkRunLists).
func FuzzMoveLattice(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for r := 0; r <= MaxFastDims; r++ {
		for range 2 {
			b := make([]byte, 96)
			rng.Read(b)
			b[0] = byte(r)
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next(MaxFastDims+1)
		ext := latticeExt[n]
		src := fuzzLayout(&in, n, ext)
		lo, hi, step := make([]int, n), make([]int, n), make([]int, n)
		for i, d := range src.localDims {
			lo[i] = in.next(d)
			hi[i] = lo[i] + 1 + in.next(d-lo[i])
			step[i] = 1 + in.next(3)
		}
		if in.next(2) == 0 {
			step = nil
		}
		sec := src.section()
		offset := func(l latticeLayout, idx []int) int {
			off, err := StorageOffset(idx, l.localDims, l.borders, l.ix)
			if err != nil {
				t.Fatal(err)
			}
			return off
		}

		// Read: the packed buffer holds the lattice in row-major order.
		vals := make([]float64, grid.StridedRectSize(lo, hi, step))
		if err := sec.MoveLattice(true, vals, lo, hi, step, nil, src.localDims, src.borders, src.ix); err != nil {
			t.Fatalf("MoveLattice read %v %v %v: %v", lo, hi, step, err)
		}
		_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
			if want := sec.GetFloat(offset(src, idx)); vals[k] != want {
				t.Fatalf("read point %d %v = %v, want %v", k, idx, vals[k], want)
			}
			return nil
		})

		// Write: only lattice points change, each from its packed value.
		for k := range vals {
			vals[k] = 0.75*float64(k) - 3.5
		}
		got, want := clone(sec), clone(sec)
		if err := got.MoveLattice(false, vals, lo, hi, step, nil, src.localDims, src.borders, src.ix); err != nil {
			t.Fatalf("MoveLattice write: %v", err)
		}
		_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
			want.SetFloat(offset(src, idx), vals[k])
			return nil
		})
		sameStorage(t, "write", got, want)

		// CopyRect onto another layout, its own step and origin.
		cnt := grid.StridedRectDims(lo, hi, step)
		dst := latticeLayout{localDims: make([]int, n)}
		dLo, dStep := make([]int, n), make([]int, n)
		for i, c := range cnt {
			dStep[i] = 1 + in.next(3)
			if (c-1)*dStep[i]+1 > ext {
				dStep[i] = 1
			}
			span := (c-1)*dStep[i] + 1
			dLo[i] = in.next(ext - span + 1)
			dst.localDims[i] = dLo[i] + span + in.next(ext-dLo[i]-span+1)
		}
		if in.next(2) == 0 {
			for i := range dStep {
				dStep[i] = 1
			}
			if in.next(2) == 0 {
				dStep = nil
			}
		}
		dst.borders = fuzzBorders(&in, dst.localDims, ext)
		if in.next(2) == 1 {
			dst.typ = Int
		}
		if in.next(2) == 1 {
			dst.ix = grid.ColMajor
		}
		got, want = dst.section(), dst.section()
		if err := CopyRect(got, dst.meta(), dLo, dStep, sec, src.meta(), lo, hi, step, nil); err != nil {
			t.Fatalf("CopyRect: %v", err)
		}
		sIdx, dIdx := make([]int, n), make([]int, n)
		_ = grid.ForEachRect(make([]int, n), cnt, func(j []int, _ int) error {
			for i := range j {
				sIdx[i] = lo[i] + j[i]*grid.StepAt(step, i)
				dIdx[i] = dLo[i] + j[i]*grid.StepAt(dStep, i)
			}
			refMove(want, offset(dst, dIdx), sec, offset(src, sIdx))
			return nil
		})
		sameStorage(t, "CopyRect", got, want)
		checkRunLists(t, &in, src, sec, lo, hi, step)
	})
}

// checkRunLists splits each dimension of the lattice (lo, hi, step) into
// 1 to 3 interleaved runs, in either order, and checks the run-list
// MoveLattice both ways and CopyRect onto a packed section against a
// per-element reference of the packing order: one combination of runs
// after another, last dimension's run fastest, each row-major.
func checkRunLists(t *testing.T, in *fuzzBytes, src latticeLayout, sec *Section, lo, hi, step []int) {
	n := len(lo)
	runs := make([]int, n)
	var rLo, rHi, rStep, dLo []int
	packed := latticeLayout{typ: Double, localDims: make([]int, n), borders: make([]int, 2*n)}
	base := make([]int, n+1) // dimension i's runs start at base[i]
	for i := range n {
		base[i] = len(rLo)
		st := grid.StepAt(step, i)
		r := 1 + in.next(3)
		rev := in.next(2) == 1
		for j := range r {
			if rev {
				j = r - 1 - j
			}
			if l := lo[i] + j*st; l < hi[i] {
				rLo, rHi, rStep = append(rLo, l), append(rHi, hi[i]), append(rStep, r*st)
				dLo = append(dLo, packed.localDims[i])
				packed.localDims[i] += (hi[i] - l + r*st - 1) / (r * st)
				runs[i]++
			}
		}
	}
	base[n] = len(rLo)
	// The reference visits every point in packing order, with its
	// section index and its index in the packed section.
	visit := func(f func(sIdx, pIdx []int)) {
		k := make([]int, n)
		l, h, st, p := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
		for {
			for i := range n {
				r := base[i] + k[i]
				l[i], h[i], st[i] = rLo[r], rHi[r], rStep[r]
			}
			_ = grid.ForEachStridedRect(l, h, st, func(idx []int, _ int) error {
				for i := range n {
					p[i] = dLo[base[i]+k[i]] + (idx[i]-l[i])/st[i]
				}
				f(idx, p)
				return nil
			})
			i := n - 1
			for ; i >= 0; i-- {
				if k[i]++; k[i] < runs[i] {
					break
				}
				k[i] = 0
			}
			if i < 0 {
				return
			}
		}
	}
	size, err := LatticeSize(rLo, rHi, rStep, runs, src.localDims)
	if err != nil || size != grid.StridedRectSize(lo, hi, step) {
		t.Fatalf("LatticeSize(%v %v %v runs %v) = %d, %v; want %d", rLo, rHi, rStep, runs, size, err, grid.StridedRectSize(lo, hi, step))
	}
	offset := func(l latticeLayout, idx []int) int {
		off, err := StorageOffset(idx, l.localDims, l.borders, l.ix)
		if err != nil {
			t.Fatal(err)
		}
		return off
	}
	vals := make([]float64, size)
	if err := sec.MoveLattice(true, vals, rLo, rHi, rStep, runs, src.localDims, src.borders, src.ix); err != nil {
		t.Fatalf("MoveLattice read over runs %v: %v", runs, err)
	}
	at := 0
	visit(func(sIdx, _ []int) {
		if want := sec.GetFloat(offset(src, sIdx)); vals[at] != want {
			t.Fatalf("run-list read point %d %v = %v, want %v", at, sIdx, vals[at], want)
		}
		at++
	})
	for j := range vals {
		vals[j] = 0.5*float64(j) + 1
	}
	got, want := clone(sec), clone(sec)
	if err := got.MoveLattice(false, vals, rLo, rHi, rStep, runs, src.localDims, src.borders, src.ix); err != nil {
		t.Fatalf("MoveLattice write over runs %v: %v", runs, err)
	}
	at = 0
	visit(func(sIdx, _ []int) {
		want.SetFloat(offset(src, sIdx), vals[at])
		at++
	})
	sameStorage(t, "run-list write", got, want)
	pGot, pWant := packed.section(), packed.section()
	if err := CopyRect(pGot, packed.meta(), dLo, nil, sec, src.meta(), rLo, rHi, rStep, runs); err != nil {
		t.Fatalf("CopyRect over runs %v: %v", runs, err)
	}
	visit(func(sIdx, pIdx []int) {
		refMove(pWant, offset(packed, pIdx), sec, offset(src, sIdx))
	})
	sameStorage(t, "run-list CopyRect", pGot, pWant)
}

// TestCopyInteriorAllocs pins CopyInterior — the copy_local reallocation
// of a section to new borders — at one walk with at most one heap
// allocation, and checks that an Int section holding 2^53+1, which no
// float64 holds, round-trips exactly in column-major order (whose
// innermost lattice step is not contiguous in storage).
func TestCopyInteriorAllocs(t *testing.T) {
	localDims := []int{64, 64}
	src := latticeLayout{Double, localDims, []int{1, 1, 2, 0}, grid.RowMajor}
	dst := latticeLayout{Double, localDims, []int{0, 3, 1, 1}, grid.RowMajor}
	a, b := src.section(), dst.section()
	allocs := testing.AllocsPerRun(50, func() {
		if err := CopyInterior(b, a, localDims, dst.borders, src.borders, grid.RowMajor); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("CopyInterior 64x64: %v allocs/op, want <= 1", allocs)
	}

	const big = 1<<53 + 1
	if int64(float64(int64(big))) == big {
		t.Fatal("2^53+1 survives a float64 round trip; the check below proves nothing")
	}
	ld := []int{5, 7}
	la := latticeLayout{Int, ld, []int{1, 0, 2, 1}, grid.ColMajor}
	lb := latticeLayout{Int, ld, []int{0, 2, 1, 0}, grid.ColMajor}
	orig, mid, back := la.section(), lb.section(), la.section()
	_ = grid.ForEachRect([]int{0, 0}, ld, func(idx []int, k int) error {
		off, _ := StorageOffset(idx, ld, la.borders, la.ix)
		orig.I[off] = big + int64(k)
		return nil
	})
	if err := CopyInterior(mid, orig, ld, lb.borders, la.borders, grid.ColMajor); err != nil {
		t.Fatal(err)
	}
	if err := CopyInterior(back, mid, ld, la.borders, lb.borders, grid.ColMajor); err != nil {
		t.Fatal(err)
	}
	_ = grid.ForEachRect([]int{0, 0}, ld, func(idx []int, k int) error {
		off, _ := StorageOffset(idx, ld, la.borders, la.ix)
		if back.I[off] != big+int64(k) {
			t.Fatalf("interior %v = %d after the round trip, want %d", idx, back.I[off], big+int64(k))
		}
		return nil
	})
}

// BenchmarkMoveLattice prices the one lattice walk at its own layer, one
// sub-benchmark per shape the data plane sends through it.
func BenchmarkMoveLattice(b *testing.B) {
	section := func(localDims, borders []int) *Section {
		return latticeLayout{Double, localDims, borders, grid.RowMajor}.section()
	}
	move := func(b *testing.B, read bool, s *Section, lo, hi, step, localDims, borders []int) {
		vals := make([]float64, grid.StridedRectSize(lo, hi, step))
		b.SetBytes(int64(8 * len(vals)))
		b.ReportAllocs()
		for b.Loop() {
			if err := s.MoveLattice(read, vals, lo, hi, step, nil, localDims, borders, grid.RowMajor); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("1d-run-8KiB", func(b *testing.B) {
		ld, bd := []int{1024}, []int{0, 0}
		move(b, true, section(ld, bd), []int{0}, ld, nil, ld, bd)
	})
	b.Run("2d-bordered-subblock-write", func(b *testing.B) {
		ld, bd := []int{128, 64}, []int{2, 2, 2, 2}
		move(b, false, section(ld, bd), []int{8, 16}, []int{72, 48}, nil, ld, bd)
	})
	b.Run("2d-stride2-read", func(b *testing.B) {
		ld, bd := []int{256, 256}, []int{0, 0, 0, 0}
		move(b, true, section(ld, bd), []int{0, 0}, ld, []int{2, 2}, ld, bd)
	})
	b.Run("copyrect-512x128", func(b *testing.B) {
		sl := latticeLayout{Double, []int{512, 128}, []int{0, 0, 0, 0}, grid.RowMajor}
		dl := latticeLayout{Double, []int{512, 128}, []int{1, 1, 1, 1}, grid.RowMajor}
		sm, dm := sl.meta(), dl.meta()
		src, dst := sl.section(), dl.section()
		b.SetBytes(8 * 512 * 128)
		b.ReportAllocs()
		for b.Loop() {
			if err := CopyRect(dst, dm, []int{0, 0}, nil, src, sm, []int{0, 0}, sl.localDims, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copy-interior-128x128", func(b *testing.B) {
		ld, sb, db := []int{128, 128}, []int{1, 1, 1, 1}, []int{2, 0, 0, 2}
		src, dst := section(ld, sb), section(ld, db)
		b.SetBytes(8 * 128 * 128)
		b.ReportAllocs()
		for b.Loop() {
			if err := CopyInterior(dst, src, ld, db, sb, grid.RowMajor); err != nil {
				b.Fatal(err)
			}
		}
	})
}
