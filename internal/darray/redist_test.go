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
// copy kernel, exactly as the redistribution plane's same-process pairs
// do.
func applySchedule(t *testing.T, sched *Schedule, dst *Meta, dstSecs map[int]*Section, src *Meta, srcSecs map[int]*Section) {
	t.Helper()
	for _, pb := range sched.Blocks {
		err := CopyRect(dstSecs[pb.DstProc], dst, pb.DstLo, pb.DstStep, srcSecs[pb.SrcProc], src, pb.SrcLo, pb.SrcHi, pb.SrcStep, pb.Runs)
		if err != nil {
			t.Fatalf("CopyRect(%+v): %v", pb, err)
		}
	}
}

// multiRun reports whether the layout has a block-cyclic dimension of
// width > 1 over several cells: the only kind whose cells hold several
// runs of a lattice per dimension.
func multiRun(m *Meta) bool {
	for i, d := range m.ResolvedDists() {
		if d.Kind == grid.DistBlockCyclic && m.GridDims[i] > 1 && d.B > 1 {
			return true
		}
	}
	return false
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
// (one run per dimension unless a side is block-cyclic of width > 1)
// with random dense and strided rectangles and checks
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
					for _, pb := range sched.Blocks {
						if pb.Runs != nil && !multiRun(src) && !multiRun(dst) {
							t.Fatalf("%s->%s: single-run layouts produced runs %v", sname, dname, pb.Runs)
						}
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

// TestStridedSharesMatchOwnerLattice checks the closed-form rectangle
// split (Split) against the materialized offset sets point for point over
// the shared layout sweep (checkStridedShares), dense and strided.
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
// and strided. Split is the split of every rectangle transfer on the
// data plane.
func FuzzStridedShares(f *testing.F) {
	f.Add([]byte{0})
	// 1-d cyclic over four cells, every 3rd point of [2, 23).
	f.Add([]byte{0, 22, 3, 1, 0, 0, 0, 2, 2, 6, 1})
	// 2-d uneven block x cyclic with borders, column-major, dense.
	f.Add([]byte{1, 12, 2, 0, 1, 1, 6, 2, 1, 0, 2, 1, 3, 0, 4, 0, 2, 0, 0})
	// Block-cyclic(2): several runs per cell.
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

// blockPoints calls visit with the interior-local source and destination
// indices of every point of a schedule block, in the block's packing
// order: one combination of runs after another, each row-major.
func blockPoints(pb *PairBlock, n int, visit func(src, dst []int)) {
	runs := pb.Runs
	if runs == nil {
		runs = make([]int, n)
		for i := range runs {
			runs[i] = 1
		}
	}
	k := make([]int, n)
	src, dst := make([]int, n), make([]int, n)
	for {
		// This combination's runs, one per dimension.
		base := make([]int, n)
		cnt := make([]int, n)
		for i, j := 0, 0; i < n; i++ {
			base[i] = j + k[i]
			j += runs[i]
			st := grid.StepAt(pb.SrcStep, base[i])
			cnt[i] = (pb.SrcHi[base[i]] - pb.SrcLo[base[i]] + st - 1) / st
		}
		_ = grid.ForEachRect(make([]int, n), cnt, func(t []int, _ int) error {
			for i, r := range base {
				src[i] = pb.SrcLo[r] + t[i]*grid.StepAt(pb.SrcStep, r)
				dst[i] = pb.DstLo[r] + t[i]*grid.StepAt(pb.DstStep, r)
			}
			visit(src, dst)
			return nil
		})
		if !nextCombo(k, runs) {
			return
		}
	}
}

// checkStridedShares checks Split(lo, hi, step) — dense when step is nil
// — against the per-point walk on every layout: each block's size must
// match its points, its lists must pass LatticeSize on both sides, only a
// layout with a block-cyclic B > 1 dimension over several cells may hold
// several runs in a dimension, and enumerating every block's source
// points and buffer positions must reproduce exactly the (proc, offset,
// position) triples OwnerLattice produces.
func checkStridedShares(t *testing.T, name string, m *Meta, lo, hi, step []int) {
	t.Helper()
	blocks, err := m.Split(lo, hi, step)
	if err != nil {
		t.Fatalf("%s: Split(%v,%v,%v): %v", name, lo, hi, step, err)
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
	sdims := grid.StridedRectDims(lo, hi, step)
	got := make(map[int]map[int]int)
	strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
	n := m.NDims()
	for b := range blocks {
		sh := &blocks[b]
		if sh.Runs != nil && !multiRun(m) {
			t.Fatalf("%s: single-run layout split with runs %v", name, sh.Runs)
		}
		sSize, err := LatticeSize(sh.SrcLo, sh.SrcHi, sh.SrcStep, sh.Runs, m.LocalDims)
		if err != nil {
			t.Fatalf("%s: block %+v: source side: %v", name, sh, err)
		}
		dSize, err := LatticeSize(sh.DstLo, sh.DstHi, sh.DstStep, sh.Runs, sdims)
		if err != nil {
			t.Fatalf("%s: block %+v: buffer side: %v", name, sh, err)
		}
		if sSize != dSize {
			t.Fatalf("%s: block %+v: source lists %d points, buffer %d", name, sh, sSize, dSize)
		}
		pm := got[sh.SrcProc]
		if pm == nil {
			pm = make(map[int]int)
			got[sh.SrcProc] = pm
		}
		blockPoints(sh, n, func(lidx, pidx []int) {
			off := 0
			for i := range lidx {
				off += (lidx[i] + m.Borders[2*i]) * strides[i]
			}
			pos, err := grid.Flatten(pidx, sdims, grid.RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			if old, dup := pm[pos]; dup {
				t.Fatalf("%s: position %d claimed twice (offsets %d, %d)", name, pos, old, off)
			}
			pm[pos] = off
		})
	}
	for proc, pm := range want {
		gm := got[proc]
		if len(gm) != len(pm) {
			t.Fatalf("%s: proc %d holds %d positions via Split, %d via offset sets", name, proc, len(gm), len(pm))
		}
		for pos, off := range pm {
			if gm[pos] != off {
				t.Fatalf("%s: proc %d position %d -> offset %d via Split, %d via offset sets", name, proc, pos, gm[pos], off)
			}
		}
	}
	for proc := range got {
		if _, okp := want[proc]; !okp && len(got[proc]) > 0 {
			t.Fatalf("%s: Split invented holdings on proc %d", name, proc)
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
	if err := CopyRect(d, dst, []int{1, 0}, nil, s, src, []int{0, 1}, []int{5, 4}, []int{2, 1}, nil); err != nil {
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
// (srcOff, dstOff) pairs, enumerating each block's two sides in lockstep
// in packing order. It fails the test on a block whose sides differ in
// shape or leave their sections, and on an owner pair that appears
// twice.
func schedulePairs(t *testing.T, sched *Schedule, dst, src *Meta) map[[2]int][][2]int {
	t.Helper()
	out := make(map[[2]int][][2]int)
	n := dst.NDims()
	sStr := grid.Strides(src.LocalDimsPlus, src.Indexing)
	dStr := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	for b := range sched.Blocks {
		pb := &sched.Blocks[b]
		if pb.SrcProc != src.Procs[pb.SrcSlot] || pb.DstProc != dst.Procs[pb.DstSlot] {
			t.Fatalf("block %+v: processors disagree with slots", pb)
		}
		sSize, err := LatticeSize(pb.SrcLo, pb.SrcHi, pb.SrcStep, pb.Runs, src.LocalDims)
		if err != nil {
			t.Fatalf("block %+v: source side: %v", pb, err)
		}
		dSize, err := LatticeSize(pb.DstLo, pb.DstHi, pb.DstStep, pb.Runs, dst.LocalDims)
		if err != nil {
			t.Fatalf("block %+v: destination side: %v", pb, err)
		}
		if sSize != dSize {
			t.Fatalf("block %+v: sides list %d and %d points", pb, sSize, dSize)
		}
		k := [2]int{pb.SrcSlot, pb.DstSlot}
		if _, dup := out[k]; dup {
			t.Fatalf("owner pair (%d,%d) appears twice in the schedule", k[0], k[1])
		}
		out[k] = nil
		blockPoints(pb, n, func(s, d []int) {
			so, do := 0, 0
			for i := range s {
				so += (s[i] + src.Borders[2*i]) * sStr[i]
				do += (d[i] + dst.Borders[2*i]) * dStr[i]
			}
			out[k] = append(out[k], [2]int{so, do})
		})
		if len(out[k]) != sSize {
			t.Fatalf("block %+v: enumerated %d points, lists %d", pb, len(out[k]), sSize)
		}
	}
	return out
}

// walkSchedule is the per-point oracle of the schedule: resolve every
// lattice point on both sides (ResolveIndex) and bucket the paired
// storage offsets by (source slot, destination slot).
func walkSchedule(t *testing.T, dst, src *Meta, dstLo, srcLo, dims, step []int) map[[2]int][][2]int {
	t.Helper()
	n := dst.NDims()
	out := make(map[[2]int][][2]int)
	srcStrides := grid.Strides(src.LocalDimsPlus, src.Indexing)
	dstStrides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	srcIdx := make([]int, n)
	dstIdx := make([]int, n)
	err := grid.ForEachStridedRect(make([]int, n), dims, step, func(off []int, _ int) error {
		for i := range off {
			srcIdx[i] = srcLo[i] + off[i]
			dstIdx[i] = dstLo[i] + off[i]
		}
		sSlot, sOff, ok := src.ResolveIndex(srcIdx, srcStrides)
		if !ok {
			t.Fatalf("unresolvable source index %v", srcIdx)
		}
		dSlot, dOff, ok := dst.ResolveIndex(dstIdx, dstStrides)
		if !ok {
			t.Fatalf("unresolvable destination index %v", dstIdx)
		}
		k := [2]int{sSlot, dSlot}
		out[k] = append(out[k], [2]int{sOff, dOff})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzTransferSchedule pins the closed-form schedule to the per-point
// walk: over random layout pairs (block, cyclic(N), block-cyclic(B) and
// star dimensions; 1-D and 2-D; uneven trailing blocks, borders and both
// indexing orders) and random dense or strided lattices at distinct
// source and destination origins, every owner pair must move exactly the
// (srcOff, dstOff) pairs the walk resolves — none missing, none extra —
// and only a block-cyclic B > 1 side may hold several runs.
func FuzzTransferSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 9, 3, 0, 0, 0, 17, 3, 1, 0, 0, 1, 1, 2, 0, 3, 3})
	// The panel handoff: columns [4,8) of a 16x16 (*,block) array onto
	// the same columns of a (cyclic,*) one, 4 cells each, dense.
	f.Add([]byte{1, 15, 0, 3, 0, 0, 15, 3, 0, 0, 0, 0, 15, 3, 1, 0, 0, 15, 0, 3, 0, 0, 0,
		0, 15, 0, 0, 0, 0, 3, 0, 4, 4, 0})
	f.Add([]byte{0, 22, 2, 2, 2, 1, 2, 1, 20, 3, 1, 0, 1, 0, 1, 2, 5, 4, 1})
	// Block-cyclic x block-cyclic with a different width on each side:
	// 1-D bc(3) over 3 cells onto bc(2) over 2, the whole extent, dense.
	f.Add([]byte{0, 23, 2, 2, 2, 0, 0, 0, 23, 1, 2, 1, 1, 0, 1, 0, 23, 0, 0, 0, 0})
	// 2-D bc(3) x bc(2) onto bc(2) x bc(4), bordered, strided, the
	// destination column-major.
	f.Add([]byte{1, 20, 1, 2, 2, 1, 0, 15, 1, 2, 1, 0, 1, 0, 20, 1, 2, 1, 0, 0, 15, 1, 2, 3, 0, 0, 1,
		0, 20, 0, 0, 0, 1, 5, 0, 1, 2, 1})
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
		for _, pb := range sched.Blocks {
			if pb.Runs != nil && !multiRun(src) && !multiRun(dst) {
				t.Fatalf("single-run layouts produced runs %v", pb.Runs)
			}
		}
		got := schedulePairs(t, sched, dst, src)
		want := walkSchedule(t, dst, src, dstLo, srcLo, ext, step)
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

// specMeta builds the row-major, borderless metadata of an array of the
// given extents spread over p processors by a textual distribution such
// as "block_cyclic(8),*".
func specMeta(tb testing.TB, dims []int, p int, distrib string) *Meta {
	tb.Helper()
	specs, err := grid.ParseDistrib(distrib)
	if err != nil {
		tb.Fatal(err)
	}
	gridDims, err := grid.GridDims(p, specs)
	if err != nil {
		tb.Fatal(err)
	}
	return metaForDist(tb, dims, gridDims, specs, NoBorders(len(dims)), grid.RowMajor)
}

// scheduleShapes are the benchmark shapes of Split and TransferSchedule:
// each a source array, the rectangle taken from it, and the destination
// array of the redistribution.
var scheduleShapes = []struct {
	name     string
	dims     []int
	p        int
	src, dst string
	lo, hi   []int
}{
	{"1d-block-4owners", []int{1024}, 4, "block", "cyclic", []int{0}, []int{1024}},
	{"panel-512x128", []int{512, 512}, 4, "*,block", "cyclic,*", []int{0, 128}, []int{512, 256}},
	{"bc8xbc8-512", []int{512, 512}, 4, "block_cyclic(8),block_cyclic(8)", "block,*", []int{0, 0}, []int{512, 512}},
	{"bc64xbc48-960", []int{960, 960}, 6, "block_cyclic(64),block_cyclic(48)", "block_cyclic(48),block_cyclic(64)", []int{0, 0}, []int{960, 960}},
}

// TestScheduleDescriptorSize bounds what a schedule costs to describe:
// over a sweep of layout pairs on arrays of realistic size, block-cyclic
// ones included, the index ints of every pair (six bound vectors and the
// run counts) come to at most 2 per element moved. Per-dimension run
// lists keep block-cyclic pairs far below that; a schedule that
// enumerated points, or expanded the product of the runs into
// rectangles, would not.
func TestScheduleDescriptorSize(t *testing.T) {
	layouts := []string{"block,*", "*,block", "cyclic,*", "block,cyclic", "block_cyclic(8),*", "*,block_cyclic(8)",
		"block_cyclic(8),block_cyclic(8)", "block_cyclic(4),block"}
	pairs := [][2]string{}
	for _, s := range layouts {
		for _, d := range layouts {
			pairs = append(pairs, [2]string{s, d})
		}
	}
	check := func(dims []int, p int, src, dst string) {
		sm, dm := specMeta(t, dims, p, src), specMeta(t, dims, p, dst)
		zero := make([]int, len(dims))
		sched, err := dm.TransferSchedule(sm, zero, zero, dims, nil)
		if err != nil {
			t.Fatal(err)
		}
		ints, elems := 0, 0
		for _, b := range sched.Blocks {
			ints += len(b.SrcLo) + len(b.SrcHi) + len(b.SrcStep) + len(b.DstLo) + len(b.DstHi) + len(b.DstStep) + len(b.Runs)
			n, err := LatticeSize(b.SrcLo, b.SrcHi, b.SrcStep, b.Runs, sm.LocalDims)
			if err != nil {
				t.Fatal(err)
			}
			elems += n
		}
		if elems != grid.Size(dims) || float64(ints) > 2*float64(elems) {
			t.Errorf("%v over %d, (%s) -> (%s): %d index ints for %d elements (want all %d, at most 2 ints each)",
				dims, p, src, dst, ints, elems, grid.Size(dims))
		}
	}
	for _, pr := range pairs {
		check([]int{512, 512}, 4, pr[0], pr[1])
	}
	check([]int{960, 960}, 6, "block_cyclic(64),block_cyclic(48)", "block_cyclic(48),block_cyclic(64)")
	check([]int{960, 960}, 6, "block_cyclic(48),block_cyclic(64)", "block_cyclic(64),block_cyclic(48)")
}

// BenchmarkSplit prices the coordinator's rectangle split (Split) on
// each scheduleShapes source array and rectangle.
func BenchmarkSplit(b *testing.B) {
	for _, c := range scheduleShapes {
		b.Run(c.name, func(b *testing.B) {
			m := specMeta(b, c.dims, c.p, c.src)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := m.Split(c.lo, c.hi, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransferSchedule prices the redistribution schedule of each
// scheduleShapes rectangle onto the same place in its destination array.
func BenchmarkTransferSchedule(b *testing.B) {
	for _, c := range scheduleShapes {
		b.Run(c.name, func(b *testing.B) {
			src, dst := specMeta(b, c.dims, c.p, c.src), specMeta(b, c.dims, c.p, c.dst)
			ext := make([]int, len(c.lo))
			for i := range ext {
				ext[i] = c.hi[i] - c.lo[i]
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := dst.TransferSchedule(src, c.lo, c.lo, ext, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
