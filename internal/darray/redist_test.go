package darray

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/grid"
)

// The transfer-schedule property harness: whatever pair of layouts the
// schedule spans, applying its pieces with the owner-side copy kernels
// must land every lattice point of the source rectangle at its
// destination position, and touch nothing else.

// sectionsFor allocates one local section per processor of the array.
func sectionsFor(m *Meta) map[int]*Section {
	out := make(map[int]*Section, len(m.Procs))
	for _, p := range m.Procs {
		out[p] = NewSection(m.Type, m.LocalStorageSize())
	}
	return out
}

// fillGlobal writes encode(g) to every global index of the array.
func fillGlobal(t *testing.T, m *Meta, secs map[int]*Section, encode func([]int) float64) {
	t.Helper()
	strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
	idx := make([]int, m.NDims())
	var walk func(d int)
	walk = func(d int) {
		if d == len(idx) {
			slot, off, ok := m.ResolveIndex(idx, strides)
			if !ok {
				t.Fatalf("unresolvable index %v", idx)
			}
			secs[m.Procs[slot]].SetFloat(off, encode(idx))
			return
		}
		for i := 0; i < m.Dims[d]; i++ {
			idx[d] = i
			walk(d + 1)
		}
	}
	walk(0)
}

// applySchedule runs every pair of the schedule through the owner-side
// copy kernels, exactly as the redistribution plane's same-process pairs
// and shipped pieces do.
func applySchedule(t *testing.T, sched *Schedule, dst *Meta, dstSecs map[int]*Section, src *Meta, srcSecs map[int]*Section) {
	t.Helper()
	for _, pb := range sched.Blocks {
		err := CopyRect(dstSecs[pb.DstProc], dst, pb.DstLo, pb.DstStep, srcSecs[pb.SrcProc], src, pb.SrcLo, pb.SrcHi, pb.SrcStep)
		if err != nil {
			t.Fatalf("CopyRect(%+v): %v", pb, err)
		}
	}
	for _, ps := range sched.Sets {
		if len(ps.SrcOffs) == 0 || len(ps.SrcOffs) != len(ps.DstOffs) {
			t.Fatalf("malformed pair set: %d src offsets, %d dst offsets", len(ps.SrcOffs), len(ps.DstOffs))
		}
		if err := CopyOffsets(dstSecs[ps.DstProc], srcSecs[ps.SrcProc], ps.DstOffs, ps.SrcOffs); err != nil {
			t.Fatalf("CopyOffsets: %v", err)
		}
	}
}

// redistLayouts is the layout sweep of the schedule tests: all three
// distribution kinds, uneven trailing blocks, subset/star dimensions and
// both indexing orders appear.
func redistLayouts(t *testing.T, dims []int) map[string]*Meta {
	t.Helper()
	switch len(dims) {
	case 1:
		return map[string]*Meta{
			"block":       metaForDist(t, dims, []int{4}, []grid.Decomp{grid.BlockDefault()}, []int{0, 0}, grid.RowMajor),
			"cyclic":      metaForDist(t, dims, []int{4}, []grid.Decomp{grid.CyclicDefault()}, []int{0, 0}, grid.RowMajor),
			"blockcyclic": metaForDist(t, dims, []int{3}, []grid.Decomp{grid.BlockCyclicOf(3)}, []int{1, 2}, grid.RowMajor),
		}
	case 2:
		return map[string]*Meta{
			"block-star": metaForDist(t, dims, []int{4, 1},
				[]grid.Decomp{grid.BlockOf(4), grid.NoDecomp()}, []int{0, 0, 0, 0}, grid.RowMajor),
			"star-cyclic": metaForDist(t, dims, []int{1, 3},
				[]grid.Decomp{grid.NoDecomp(), grid.CyclicOf(3)}, []int{0, 0, 0, 0}, grid.ColMajor),
			"cyclic-block": metaForDist(t, dims, []int{2, 2},
				[]grid.Decomp{grid.CyclicOf(2), grid.BlockOf(2)}, []int{1, 0, 0, 1}, grid.RowMajor),
			"blockcyclic-block": metaForDist(t, dims, []int{3, 2},
				[]grid.Decomp{grid.BlockCyclicOf(2), grid.BlockOf(2)}, []int{0, 0, 0, 0}, grid.RowMajor),
		}
	default:
		t.Fatalf("unsupported rank %d", len(dims))
		return nil
	}
}

// TestTransferScheduleCompleteness drives every ordered pair of layouts
// (descriptor blocks unless a side is block-cyclic of width > 1, offset
// sets otherwise) with random dense and strided rectangles and checks
// element-for-element delivery.
func TestTransferScheduleCompleteness(t *testing.T) {
	for _, dims := range [][]int{{29}, {11, 10}} {
		encode := func(g []int) float64 {
			v := 1.0
			for i := range g {
				v = v*64 + float64(g[i])
			}
			return v
		}
		layouts := redistLayouts(t, dims)
		rng := rand.New(rand.NewSource(int64(len(dims))))
		for sname, src := range layouts {
			for dname, dst := range layouts {
				for trial := 0; trial < 6; trial++ {
					// A random lattice that fits both arrays at independent
					// random origins.
					n := len(dims)
					cnt := make([]int, n)
					srcLo := make([]int, n)
					dstLo := make([]int, n)
					step := make([]int, n)
					strided := trial%2 == 1
					for i := 0; i < n; i++ {
						step[i] = 1
						if strided {
							step[i] = 1 + rng.Intn(3)
						}
						maxSpan := dims[i] // both arrays share global dims here
						cnt[i] = 1 + rng.Intn((maxSpan-1)/step[i]+1)
						span := (cnt[i]-1)*step[i] + 1
						srcLo[i] = rng.Intn(dims[i] - span + 1)
						dstLo[i] = rng.Intn(dims[i] - span + 1)
					}
					// TransferSchedule takes dims as lattice extents, not
					// point counts: extent = (cnt-1)*step + 1 rounded to the
					// request convention hi-lo.
					ext := make([]int, n)
					for i := 0; i < n; i++ {
						ext[i] = (cnt[i]-1)*step[i] + 1
					}
					var stepArg []int
					if strided {
						stepArg = step
					}
					sched, err := dst.TransferSchedule(src, dstLo, srcLo, ext, stepArg)
					if err != nil {
						t.Fatalf("%s->%s: TransferSchedule: %v", sname, dname, err)
					}
					if len(sched.Sets) != 0 && src.progressive() && dst.progressive() {
						t.Fatalf("%s->%s: progression layouts produced %d offset sets", sname, dname, len(sched.Sets))
					}
					srcSecs := sectionsFor(src)
					dstSecs := sectionsFor(dst)
					fillGlobal(t, src, srcSecs, encode)
					for _, s := range dstSecs {
						for i := 0; i < s.Len(); i++ {
							s.SetFloat(i, -1)
						}
					}
					applySchedule(t, sched, dst, dstSecs, src, srcSecs)
					// Every lattice point must have landed; everything else
					// must still be the sentinel.
					want := make(map[int]map[int]float64) // proc -> off -> value
					dStrides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
					gSrc := make([]int, n)
					gDst := make([]int, n)
					zero := make([]int, n)
					err = grid.ForEachStridedRect(zero, ext, step, func(off []int, _ int) error {
						for i := range off {
							gSrc[i] = srcLo[i] + off[i]
							gDst[i] = dstLo[i] + off[i]
						}
						slot, o, ok := dst.ResolveIndex(gDst, dStrides)
						if !ok {
							t.Fatalf("unresolvable destination %v", gDst)
						}
						p := dst.Procs[slot]
						if want[p] == nil {
							want[p] = make(map[int]float64)
						}
						want[p][o] = encode(gSrc)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for p, s := range dstSecs {
						for off := 0; off < s.Len(); off++ {
							v := s.GetFloat(off)
							if w, hit := want[p][off]; hit {
								if v != w {
									t.Fatalf("%s->%s trial %d: proc %d off %d = %v, want %v", sname, dname, trial, p, off, v, w)
								}
							} else if v != -1 {
								t.Fatalf("%s->%s trial %d: proc %d off %d clobbered to %v", sname, dname, trial, p, off, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestTransferScheduleErrors pins schedule validation: rank mismatches
// and out-of-bounds rectangles are rejected.
func TestTransferScheduleErrors(t *testing.T) {
	a := metaForDist(t, []int{16}, []int{4}, []grid.Decomp{grid.BlockDefault()}, []int{0, 0}, grid.RowMajor)
	b := metaForDist(t, []int{16, 4}, []int{4, 1},
		[]grid.Decomp{grid.BlockDefault(), grid.NoDecomp()}, []int{0, 0, 0, 0}, grid.RowMajor)
	if _, err := a.TransferSchedule(b, []int{0}, []int{0, 0}, []int{4}, nil); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := a.TransferSchedule(a, []int{8}, []int{0}, []int{12}, nil); err == nil {
		t.Error("destination rectangle past the extent accepted")
	}
	if _, err := a.TransferSchedule(a, []int{0}, []int{0}, []int{8}, []int{0}); err == nil {
		t.Error("zero step accepted")
	}
}

// TestStridedSharesMatchOwnerLattice checks the descriptor split against
// the materialized offset sets point for point over the shared layout
// sweep (checkStridedShares), dense and strided.
func TestStridedSharesMatchOwnerLattice(t *testing.T) {
	for name, m := range distMetas(t, grid.RowMajor) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 8; trial++ {
			lo, hi, step := randomDistRect(rng, m.Dims)
			if trial%2 == 0 {
				step = nil
			}
			checkStridedShares(t, name, m, lo, hi, step)
		}
	}
}

// FuzzStridedShares runs checkStridedShares over random layouts (block,
// cyclic(N), block-cyclic(B) and star dimensions with uneven trailing
// cells, borders and either indexing order) and random rectangles, dense
// and strided. StridedShares is the split of every rectangle transfer on
// the data plane.
func FuzzStridedShares(f *testing.F) {
	f.Add([]byte{0})
	// 1-d cyclic over four cells, every 3rd point of [2, 23).
	f.Add([]byte{0, 22, 3, 1, 0, 0, 0, 2, 2, 6, 1})
	// 2-d uneven block x cyclic with borders, column-major, dense.
	f.Add([]byte{1, 12, 2, 0, 1, 1, 6, 2, 1, 0, 2, 1, 3, 0, 4, 0, 2, 0, 0})
	// Block-cyclic(2): no share form.
	f.Add([]byte{0, 15, 2, 2, 1, 0, 0, 0, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		m := fuzzMeta(t, &in, 1+in.next(3))
		n := m.NDims()
		lo := make([]int, n)
		hi := make([]int, n)
		step := make([]int, n)
		for i := 0; i < n; i++ {
			lo[i] = in.next(m.Dims[i])
			hi[i] = lo[i] + 1 + in.next(m.Dims[i]-lo[i])
			step[i] = 1 + in.next(4)
		}
		if in.next(2) == 0 {
			step = nil
		}
		checkStridedShares(t, "fuzz", m, lo, hi, step)
	})
}

// checkStridedShares checks StridedShares(lo, hi, step) — dense when step
// is nil — against the per-point walk: a layout with a block-cyclic B > 1
// dimension over several cells must report no share form; any other must
// have one, and enumerating each share's local lattice and placement must
// reproduce exactly the (proc, offset, position) triples OwnerLattice
// produces.
func checkStridedShares(t *testing.T, name string, m *Meta, lo, hi, step []int) {
	t.Helper()
	blockCyclic := false
	for i, d := range m.ResolvedDists() {
		if d.Kind == grid.DistBlockCyclic && m.GridDims[i] > 1 && d.B > 1 {
			blockCyclic = true
		}
	}
	shares, ok, err := m.StridedShares(lo, hi, step)
	if err != nil {
		t.Fatalf("%s: StridedShares(%v,%v,%v): %v", name, lo, hi, step, err)
	}
	if blockCyclic {
		if ok {
			t.Fatalf("%s: block-cyclic layout reported descriptor-eligible", name)
		}
		return
	}
	if !ok {
		t.Fatalf("%s: progression layout reported ineligible", name)
	}
	sets, err := m.OwnerLattice(lo, hi, step)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]map[int]int) // proc -> position -> offset
	for _, s := range sets {
		pm := make(map[int]int, len(s.Offs))
		for i, off := range s.Offs {
			pm[s.Pos[i]] = off
		}
		want[s.Proc] = pm
	}
	sdims := grid.RectDims(lo, hi)
	if step != nil {
		sdims = grid.StridedRectDims(lo, hi, step)
	}
	got := make(map[int]map[int]int)
	strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
	n := m.NDims()
	for _, sh := range shares {
		pm := got[sh.Proc]
		if pm == nil {
			pm = make(map[int]int)
			got[sh.Proc] = pm
		}
		cnt := make([]int, n)
		for i := 0; i < n; i++ {
			cnt[i] = (sh.Hi[i] - sh.Lo[i] + sh.Step[i] - 1) / sh.Step[i]
		}
		zero := make([]int, n)
		lidx := make([]int, n)
		pidx := make([]int, n)
		err := grid.ForEachRect(zero, cnt, func(idx []int, _ int) error {
			off := 0
			for i := range idx {
				lidx[i] = sh.Lo[i] + idx[i]*sh.Step[i]
				pidx[i] = sh.PosLo[i] + idx[i]*sh.PosStep[i]
				off += (lidx[i] + m.Borders[2*i]) * strides[i]
			}
			pos, err := grid.Flatten(pidx, sdims, grid.RowMajor)
			if err != nil {
				return err
			}
			if old, dup := pm[pos]; dup {
				t.Fatalf("%s: position %d claimed twice (offsets %d, %d)", name, pos, old, off)
			}
			pm[pos] = off
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for proc, pm := range want {
		gm := got[proc]
		if len(gm) != len(pm) {
			t.Fatalf("%s: proc %d holds %d positions via shares, %d via offset sets", name, proc, len(gm), len(pm))
		}
		for pos, off := range pm {
			if gm[pos] != off {
				t.Fatalf("%s: proc %d position %d -> offset %d via shares, %d via offset sets", name, proc, pos, gm[pos], off)
			}
		}
	}
	for proc := range got {
		if _, okp := want[proc]; !okp && len(got[proc]) > 0 {
			t.Fatalf("%s: shares invented holdings on proc %d", name, proc)
		}
	}
}

// TestCopyRectConverts exercises the allocating >MaxFastDims dispatch
// indirectly by crossing element types, indexing orders and per-side
// steps through the fast path (conversion and non-contiguous walks).
func TestCopyRectConverts(t *testing.T) {
	src := metaForDist(t, []int{6, 4}, []int{1, 1},
		[]grid.Decomp{grid.NoDecomp(), grid.NoDecomp()}, []int{0, 0, 0, 0}, grid.RowMajor)
	dst := metaForDist(t, []int{6, 4}, []int{1, 1},
		[]grid.Decomp{grid.NoDecomp(), grid.NoDecomp()}, []int{1, 1, 0, 0}, grid.ColMajor)
	dst.Type = Int
	s := NewSection(Double, src.LocalStorageSize())
	d := NewSection(Int, dst.LocalStorageSize())
	for i := 0; i < s.Len(); i++ {
		s.SetFloat(i, float64(i)+0.5)
	}
	// Every other source row lands on consecutive destination rows.
	if err := CopyRect(d, dst, []int{1, 0}, nil, s, src, []int{0, 1}, []int{5, 4}, []int{2, 1}); err != nil {
		t.Fatal(err)
	}
	strides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	sStrides := grid.Strides(src.LocalDimsPlus, src.Indexing)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			sOff := (2*r)*sStrides[0] + (1+c)*sStrides[1]
			dOff := (1+r+dst.Borders[0])*strides[0] + c*strides[1]
			want := float64(int64(s.GetFloat(sOff))) // Int storage truncates
			if got := d.GetFloat(dOff); got != want {
				t.Fatalf("dst[%d,%d] = %v, want %v", 1+r, c, got, want)
			}
		}
	}
}

// TestCopyOffsetsBounds pins the kernel's bounds checks.
func TestCopyOffsetsBounds(t *testing.T) {
	a := NewSection(Double, 4)
	b := NewSection(Double, 4)
	if err := CopyOffsets(a, b, []int{0}, []int{4}); err == nil {
		t.Error("source offset out of bounds accepted")
	}
	if err := CopyOffsets(a, b, []int{-1}, []int{0}); err == nil {
		t.Error("negative destination offset accepted")
	}
	if err := CopyOffsets(a, b, []int{0, 1}, []int{0}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// randomDistRect draws a random rectangle plus step fitting dims.
func randomDistRect(rng *rand.Rand, dims []int) (lo, hi, step []int) {
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	step = make([]int, len(dims))
	for i, d := range dims {
		lo[i] = rng.Intn(d)
		hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
		step[i] = 1 + rng.Intn(3)
	}
	return lo, hi, step
}

// fuzzBytes doles out fuzz input one bounded choice at a time; an
// exhausted input yields zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzMeta draws one layout of the given rank: per dimension an extent,
// a grid extent and block, cyclic(N), block-cyclic(B) or star, plus
// borders and an indexing order.
func fuzzMeta(t *testing.T, in *fuzzBytes, rank int) *Meta {
	dims := make([]int, rank)
	gridDims := make([]int, rank)
	specs := make([]grid.Decomp, rank)
	borders := make([]int, 2*rank)
	for i := 0; i < rank; i++ {
		dims[i] = 1 + in.next(24)
		gridDims[i] = 1 + in.next(4)
		switch in.next(4) {
		case 0:
			specs[i] = grid.BlockOf(gridDims[i])
		case 1:
			specs[i] = grid.CyclicOf(gridDims[i])
		case 2:
			specs[i] = grid.BlockCyclicOfN(1+in.next(4), gridDims[i])
		default:
			specs[i], gridDims[i] = grid.NoDecomp(), 1
		}
		borders[2*i], borders[2*i+1] = in.next(3), in.next(3)
	}
	ix := grid.RowMajor
	if in.next(2) == 1 {
		ix = grid.ColMajor
	}
	return metaForDist(t, dims, gridDims, specs, borders, ix)
}

// schedulePairs flattens a schedule into its (srcSlot, dstSlot) →
// (srcOff, dstOff) pairs, enumerating each descriptor block's two local
// lattices in lockstep. It fails the test on a block whose sides differ
// in shape or leave their sections, and on an owner pair that appears
// twice.
func schedulePairs(t *testing.T, sched *Schedule, dst, src *Meta) map[[2]int][][2]int {
	t.Helper()
	out := make(map[[2]int][][2]int)
	claim := func(s, d int) [2]int {
		k := [2]int{s, d}
		if _, dup := out[k]; dup {
			t.Fatalf("owner pair (%d,%d) appears twice in the schedule", s, d)
		}
		out[k] = nil
		return k
	}
	n := dst.NDims()
	sStr := grid.Strides(src.LocalDimsPlus, src.Indexing)
	dStr := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	for _, pb := range sched.Blocks {
		if pb.SrcProc != src.Procs[pb.SrcSlot] || pb.DstProc != dst.Procs[pb.DstSlot] {
			t.Fatalf("block %+v: processors disagree with slots", pb)
		}
		sSt, dSt := orDense(pb.SrcStep, n), orDense(pb.DstStep, n)
		if err := grid.CheckStridedRect(pb.SrcLo, pb.SrcHi, sSt, src.LocalDims); err != nil {
			t.Fatalf("block %+v: source side: %v", pb, err)
		}
		if err := grid.CheckStridedRect(pb.DstLo, pb.DstHi, dSt, dst.LocalDims); err != nil {
			t.Fatalf("block %+v: destination side: %v", pb, err)
		}
		cnt := grid.StridedRectDims(pb.SrcLo, pb.SrcHi, sSt)
		if !EqualInts(cnt, grid.StridedRectDims(pb.DstLo, pb.DstHi, dSt)) {
			t.Fatalf("block %+v: sides differ in shape", pb)
		}
		k := claim(pb.SrcSlot, pb.DstSlot)
		zero := make([]int, n)
		_ = grid.ForEachRect(zero, cnt, func(j []int, _ int) error {
			so, do := 0, 0
			for i := range j {
				so += (pb.SrcLo[i] + j[i]*sSt[i] + src.Borders[2*i]) * sStr[i]
				do += (pb.DstLo[i] + j[i]*dSt[i] + dst.Borders[2*i]) * dStr[i]
			}
			out[k] = append(out[k], [2]int{so, do})
			return nil
		})
	}
	for _, ps := range sched.Sets {
		k := claim(ps.SrcSlot, ps.DstSlot)
		for i := range ps.SrcOffs {
			out[k] = append(out[k], [2]int{ps.SrcOffs[i], ps.DstOffs[i]})
		}
	}
	return out
}

// FuzzTransferSchedule pins the closed-form schedule to the per-point
// walk: over random layout pairs (block, cyclic(N), block-cyclic(B) and
// star dimensions; 1-D and 2-D; uneven trailing blocks, borders and both
// indexing orders) and random dense or strided lattices at distinct
// source and destination origins, every owner pair must move exactly the
// (srcOff, dstOff) pairs the walk resolves — none missing, none extra.
func FuzzTransferSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 9, 3, 0, 0, 0, 17, 3, 1, 0, 0, 1, 1, 2, 0, 3, 3})
	// The panel handoff: columns [4,8) of a 16x16 (*,block) array onto
	// the same columns of a (cyclic,*) one, 4 cells each, dense.
	f.Add([]byte{1, 15, 0, 3, 0, 0, 15, 3, 0, 0, 0, 0, 15, 3, 1, 0, 0, 15, 0, 3, 0, 0, 0,
		0, 15, 0, 0, 0, 0, 3, 0, 4, 4, 0})
	f.Add([]byte{0, 22, 2, 2, 2, 1, 2, 1, 20, 3, 1, 0, 1, 0, 1, 2, 5, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		rank := 1 + in.next(2)
		src := fuzzMeta(t, &in, rank)
		dst := fuzzMeta(t, &in, rank)
		srcLo := make([]int, rank)
		dstLo := make([]int, rank)
		ext := make([]int, rank)
		step := make([]int, rank)
		for i := 0; i < rank; i++ {
			step[i] = 1 + in.next(4)
			room := min(src.Dims[i], dst.Dims[i])
			cnt := 1 + in.next((room-1)/step[i]+1)
			span := (cnt-1)*step[i] + 1
			ext[i] = span + in.next(min(step[i], room-span+1)) // hi need not be tight
			srcLo[i] = in.next(src.Dims[i] - ext[i] + 1)
			dstLo[i] = in.next(dst.Dims[i] - ext[i] + 1)
		}
		if in.next(2) == 0 {
			step = nil
		}
		sched, err := dst.TransferSchedule(src, dstLo, srcLo, ext, step)
		if err != nil {
			t.Fatalf("TransferSchedule(%v, %v, %v, %v): %v", dstLo, srcLo, ext, step, err)
		}
		if len(sched.Sets) != 0 && src.progressive() && dst.progressive() {
			t.Fatalf("progression layouts produced %d offset sets", len(sched.Sets))
		}
		oracle, err := dst.walkSchedule(src, dstLo, srcLo, ext, step)
		if err != nil {
			t.Fatal(err)
		}
		got := schedulePairs(t, sched, dst, src)
		want := schedulePairs(t, oracle, dst, src)
		if len(got) != len(want) {
			t.Fatalf("%d owner pairs, walk has %d", len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			sort.Slice(g, func(a, b int) bool { return g[a][0] < g[b][0] || g[a][0] == g[b][0] && g[a][1] < g[b][1] })
			sort.Slice(w, func(a, b int) bool { return w[a][0] < w[b][0] || w[a][0] == w[b][0] && w[a][1] < w[b][1] })
			if len(g) != len(w) {
				t.Fatalf("owner pair %v moves %d points, walk %d", k, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("owner pair %v: point %d moves %v, walk %v", k, i, g[i], w[i])
				}
			}
		}
	})
}

// orDense returns step, or a fresh all-ones step of rank n when it is nil.
func orDense(step []int, n int) []int {
	if step != nil {
		return step
	}
	st := make([]int, n)
	for i := range st {
		st[i] = 1
	}
	return st
}
