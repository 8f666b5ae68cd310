// The redistribution schedule: planning direct owner↔owner transfers
// between two distributed arrays. Phase-changing algorithms (a block LU
// panel feeding a cyclic solve, a transpose between FFT stages) move a
// rectangle from one array to another with a different distribution;
// the schedule computed here is the set of non-empty src-owner/dst-owner
// intersections of that rectangle, each translated to interior-local
// coordinates on both sides, so a coordinator can ship every piece
// owner-to-owner in one message instead of bouncing the whole rectangle
// through a single client process.
//
// This file also holds the owner-side copy kernels the redistribution
// plane runs on (CopyRect, CopyOffsets) and the bounds+step owner split
// (StridedShares) that replaces materialized offset vectors on the
// cyclic rectangle path.
package darray

import (
	"fmt"

	"repro/internal/grid"
)

// PairBlock is one descriptor piece of a transfer schedule: the lattice
// points held by SrcProc on the source array and DstProc on the
// destination, as strided local rectangles on both sides. Each side has
// its own step (nil = dense): a block→cyclic pair is typically strided at
// the source and dense at the destination. Row-major enumeration of
// (SrcLo, SrcHi, SrcStep) and (DstLo, DstHi, DstStep) visits
// corresponding elements in the same order, so the piece moves with one
// packed buffer.
type PairBlock struct {
	SrcProc, DstProc      int
	SrcSlot, DstSlot      int   // grid slots of the two owning sections
	SrcLo, SrcHi, SrcStep []int // interior-local strided bounds at the source owner
	DstLo, DstHi, DstStep []int // the same lattice at the destination owner
}

// PairSet is one enumerated piece of a transfer schedule, produced only
// when a side has a block-cyclic dimension of width > 1 over several
// cells (whose holdings are not single progressions): the lattice points
// held by SrcProc on the source array and DstProc on the destination, as
// paired border-displaced storage offsets — element SrcOffs[i] of the
// source section moves to element DstOffs[i] of the destination section.
type PairSet struct {
	SrcProc, DstProc int
	SrcSlot, DstSlot int // grid slots of the two owning sections
	SrcOffs, DstOffs []int
}

// Schedule is an owner-pair transfer schedule produced by
// TransferSchedule. Every lattice point of the transferred rectangle
// appears in exactly one pair (Blocks, or Sets when a side is
// block-cyclic of width > 1), so shipping each pair once moves the whole
// rectangle: the ≤1-message-per-owner-pair budget of the redistribution
// plane.
type Schedule struct {
	Blocks []PairBlock
	Sets   []PairSet
}

// NPairs returns the number of non-empty owner pairs in the schedule.
func (s *Schedule) NPairs() int { return len(s.Blocks) + len(s.Sets) }

// TransferSchedule computes the owner-pair intersection schedule for
// copying a lattice of elements from array src onto array dst: lattice
// offset j (componentwise 0 <= j < dims, every step[i]-th per
// dimension; step nil = dense) moves source element srcLo+j to
// destination element dstLo+j.
//
// When every dimension of both arrays is block or width-1 cyclic, each
// cell holds, per dimension, one arithmetic progression of lattice
// positions (dimShares). Two progressions intersect in another one,
// with step the lcm of theirs, so the schedule is closed-form: intersect
// every source cell's progression with every destination cell's per
// dimension, and emit the cartesian product of the non-empty
// intersections as one PairBlock per owner pair. Only a block-cyclic
// side of width > 1 falls back to resolving every lattice point
// (walkSchedule). Ranks must match and both rectangles are validated
// against their arrays; element types may differ (values convert on
// write).
func (dst *Meta) TransferSchedule(src *Meta, dstLo, srcLo, dims, step []int) (*Schedule, error) {
	n := dst.NDims()
	if src.NDims() != n || len(dstLo) != n || len(srcLo) != n || len(dims) != n {
		return nil, fmt.Errorf("darray: transfer schedule rank mismatch: dst %d, src %d, bounds %d/%d/%d",
			n, src.NDims(), len(dstLo), len(srcLo), len(dims))
	}
	srcHi := make([]int, n)
	dstHi := make([]int, n)
	for i := 0; i < n; i++ {
		srcHi[i] = srcLo[i] + dims[i]
		dstHi[i] = dstLo[i] + dims[i]
	}
	if err := grid.CheckStridedRect(srcLo, srcHi, step, src.Dims); err != nil {
		return nil, err
	}
	if err := grid.CheckStridedRect(dstLo, dstHi, step, dst.Dims); err != nil {
		return nil, err
	}
	if !src.progressive() || !dst.progressive() {
		return dst.walkSchedule(src, dstLo, srcLo, dims, step)
	}
	pairs := make([][]dimPair, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		st := grid.StepAt(step, i)
		cnt := (dims[i] + st - 1) / st
		ds := dst.dimShares(i, dstLo[i], st, cnt)
		for _, s := range src.dimShares(i, srcLo[i], st, cnt) {
			for _, d := range ds {
				if p, ok := intersectShares(s, d); ok {
					pairs[i] = append(pairs[i], p)
				}
			}
		}
		counts[i] = len(pairs[i])
	}
	total := grid.Size(counts)
	sched := &Schedule{Blocks: make([]PairBlock, total)}
	// One backing array holds every block's six bound vectors.
	slab := make([]int, 6*n*total)
	sCells := make([]int, n)
	dCells := make([]int, n)
	err := grid.ForEachRect(make([]int, n), counts, func(idx []int, b int) error {
		v := slab[6*n*b:]
		sLo, sHi, sStep := v[0:n:n], v[n:2*n:2*n], v[2*n:3*n:3*n]
		dLo, dHi, dStep := v[3*n:4*n:4*n], v[4*n:5*n:5*n], v[5*n:6*n:6*n]
		sDense, dDense := true, true
		for i, j := range idx {
			p := pairs[i][j]
			sCells[i], dCells[i] = p.sCell, p.dCell
			sLo[i], sStep[i], sHi[i] = p.sLo, p.sStep, p.sLo+(p.cnt-1)*p.sStep+1
			dLo[i], dStep[i], dHi[i] = p.dLo, p.dStep, p.dLo+(p.cnt-1)*p.dStep+1
			sDense = sDense && p.sStep == 1
			dDense = dDense && p.dStep == 1
		}
		sSlot, err := grid.ProcSlot(sCells, src.GridDims, src.GridIndexing)
		if err != nil {
			return err
		}
		dSlot, err := grid.ProcSlot(dCells, dst.GridDims, dst.GridIndexing)
		if err != nil {
			return err
		}
		pb := &sched.Blocks[b]
		*pb = PairBlock{
			SrcProc: src.Procs[sSlot], DstProc: dst.Procs[dSlot],
			SrcSlot: sSlot, DstSlot: dSlot,
			SrcLo: sLo, SrcHi: sHi, DstLo: dLo, DstHi: dHi,
		}
		if !sDense {
			pb.SrcStep = sStep
		}
		if !dDense {
			pb.DstStep = dStep
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sched, nil
}

// walkSchedule is the per-point schedule: resolve every lattice point on
// both sides (ResolveIndex) and bucket by (source slot, destination
// slot) into paired storage-offset vectors, pairs ordered by first
// appearance in row-major lattice order. TransferSchedule uses it only
// for block-cyclic sides of width > 1; for every other layout it is the
// tests' oracle. Bounds are already validated.
func (dst *Meta) walkSchedule(src *Meta, dstLo, srcLo, dims, step []int) (*Schedule, error) {
	n := dst.NDims()
	sched := &Schedule{}
	srcStrides := grid.Strides(src.LocalDimsPlus, src.Indexing)
	dstStrides := grid.Strides(dst.LocalDimsPlus, dst.Indexing)
	srcIdx := make([]int, n)
	dstIdx := make([]int, n)
	type pairKey struct{ s, d int }
	byPair := make(map[pairKey]int) // (srcSlot, dstSlot) -> index into Sets
	visit := func(off []int, _ int) error {
		for i := range off {
			srcIdx[i] = srcLo[i] + off[i]
			dstIdx[i] = dstLo[i] + off[i]
		}
		sSlot, sOff, ok := src.ResolveIndex(srcIdx, srcStrides)
		if !ok {
			return fmt.Errorf("darray: unresolvable source index %v", srcIdx)
		}
		dSlot, dOff, ok := dst.ResolveIndex(dstIdx, dstStrides)
		if !ok {
			return fmt.Errorf("darray: unresolvable destination index %v", dstIdx)
		}
		k := pairKey{sSlot, dSlot}
		pi, seen := byPair[k]
		if !seen {
			pi = len(sched.Sets)
			byPair[k] = pi
			sched.Sets = append(sched.Sets, PairSet{
				SrcProc: src.Procs[sSlot], DstProc: dst.Procs[dSlot],
				SrcSlot: sSlot, DstSlot: dSlot,
			})
		}
		ps := &sched.Sets[pi]
		ps.SrcOffs = append(ps.SrcOffs, sOff)
		ps.DstOffs = append(ps.DstOffs, dOff)
		return nil
	}
	if err := grid.ForEachStridedRect(make([]int, n), dims, step, visit); err != nil {
		return nil, err
	}
	return sched, nil
}

// dimPair is one dimension's intersection of a source cell's and a
// destination cell's lattice progressions: cnt points, at local sLo +
// t*sStep in source cell sCell and dLo + t*dStep in destination cell
// dCell.
type dimPair struct {
	sCell, dCell int
	sLo, sStep   int
	dLo, dStep   int
	cnt          int
}

// intersectShares intersects two per-cell progressions of one lattice
// dimension. The source holds positions s.posLo + k*s.posStep and the
// destination d.posLo + m*d.posStep; their common positions form a
// progression of step lcm(s.posStep, d.posStep), found by solving the two
// congruences, and each side's local step scales by the same factor as
// its position step.
func intersectShares(s, d dimShare) (dimPair, bool) {
	sLast := s.posLo + ((s.hi-s.lo-1)/s.step)*s.posStep
	dLast := d.posLo + ((d.hi-d.lo-1)/d.step)*d.posStep
	x, l, ok := progressionMeet(s.posLo, s.posStep, d.posLo, d.posStep)
	if !ok {
		return dimPair{}, false
	}
	if x < d.posLo {
		x += (d.posLo - x + l - 1) / l * l
	}
	last := min(sLast, dLast)
	if x > last {
		return dimPair{}, false
	}
	return dimPair{
		sCell: s.cell, dCell: d.cell,
		sLo: s.lo + (x-s.posLo)/s.posStep*s.step, sStep: s.step * (l / s.posStep),
		dLo: d.lo + (x-d.posLo)/d.posStep*d.step, dStep: d.step * (l / d.posStep),
		cnt: (last-x)/l + 1,
	}, true
}

// progressionMeet solves x ≡ a (mod p), x ≡ b (mod q) for positive p, q:
// x is the least solution >= a and l = lcm(p, q) the period of all of
// them; ok is false when the residue classes never meet.
func progressionMeet(a, p, b, q int) (x, l int, ok bool) {
	// Extended Euclid: u*p ≡ g (mod q).
	g, u, r, u1 := p, 1, q, 0
	for r != 0 {
		t := g / r
		g, r = r, g-t*r
		u, u1 = u1, u-t*u1
	}
	diff := b - a
	if diff%g != 0 {
		return 0, 0, false
	}
	qg := q / g
	// a + k*p ≡ b (mod q) with k ≡ (diff/g)*u (mod q/g).
	k := (diff / g % qg) * (u % qg) % qg
	if k < 0 {
		k += qg
	}
	return a + k*p, p * qg, true
}

// CopyRect copies the strided interior rectangle (srcLo, srcHi, srcStep)
// of the source section onto the same-shaped lattice anchored at dstLo
// with step dstStep in the destination section (a nil step is dense),
// the two sections belonging to (possibly different) arrays described
// by their metadata. This is the zero-message service routine of the
// redistribution plane's same-process pairs: one lattice walk, with no
// heap allocation for rectangles of at most MaxFastDims dimensions.
// Element types may differ (values convert). Both rectangles are
// validated against the sections' interior dimensions.
func CopyRect(dst *Section, dstMeta *Meta, dstLo, dstStep []int, src *Section, srcMeta *Meta, srcLo, srcHi, srcStep []int) error {
	n := len(srcLo)
	if dstMeta.NDims() != n || srcMeta.NDims() != n || len(dstLo) != n || len(srcHi) != n {
		return fmt.Errorf("darray: copy-rect rank mismatch: dst %d, src %d, bounds %d/%d/%d",
			dstMeta.NDims(), srcMeta.NDims(), len(dstLo), len(srcLo), len(srcHi))
	}
	if (srcStep != nil && len(srcStep) != n) || (dstStep != nil && len(dstStep) != n) {
		return fmt.Errorf("darray: copy-rect steps of rank %d/%d for %d dimensions", len(srcStep), len(dstStep), n)
	}
	if err := grid.CheckStridedRect(srcLo, srcHi, srcStep, srcMeta.LocalDims); err != nil {
		return err
	}
	var stack [4 * MaxFastDims]int
	sc := scratch(stack[:], 4*n)
	cnt, dstHi, sStr, dStr := sc[:n], sc[n:2*n], sc[2*n:3*n], sc[3*n:]
	latticeCounts(cnt, srcLo, srcHi, srcStep)
	for i := range dstHi {
		dstHi[i] = dstLo[i] + (cnt[i]-1)*grid.StepAt(dstStep, i) + 1
	}
	if err := grid.CheckStridedRect(dstLo, dstHi, dstStep, dstMeta.LocalDims); err != nil {
		return err
	}
	walk(side{dst, layout(dStr, dstLo, dstStep, dstMeta.LocalDims, dstMeta.Borders, dstMeta.Indexing), dStr},
		side{src, layout(sStr, srcLo, srcStep, srcMeta.LocalDims, srcMeta.Borders, srcMeta.Indexing), sStr}, cnt)
	return nil
}

// CopyOffsets copies the elements at the paired storage offsets of a
// transfer-schedule Set between two sections on the same process:
// source element srcOffs[i] moves to destination element dstOffs[i], in
// order (last writer wins on repeated destinations). Offsets are
// bounds-checked against both sections; the copy performs no heap
// allocation. Element types may differ (values convert).
func CopyOffsets(dst, src *Section, dstOffs, srcOffs []int) error {
	if len(dstOffs) != len(srcOffs) {
		return fmt.Errorf("darray: %d destination offsets for %d source offsets", len(dstOffs), len(srcOffs))
	}
	sn, dn := src.Len(), dst.Len()
	for i := range srcOffs {
		if srcOffs[i] < 0 || srcOffs[i] >= sn {
			return fmt.Errorf("darray: copy offset %d outside source section of %d elements", srcOffs[i], sn)
		}
		if dstOffs[i] < 0 || dstOffs[i] >= dn {
			return fmt.Errorf("darray: copy offset %d outside destination section of %d elements", dstOffs[i], dn)
		}
	}
	if src.Type == Double && dst.Type == Double {
		for i, off := range srcOffs {
			dst.F[dstOffs[i]] = src.F[off]
		}
		return nil
	}
	for i, off := range srcOffs {
		dst.SetFloat(dstOffs[i], src.GetFloat(off))
	}
	return nil
}

// StridedShare describes one owner's holding of a strided-rectangle
// request as arithmetic progressions rather than materialized offsets:
// the owner's piece is the interior-local strided rectangle
// (Lo, Hi, Step), and element t (per-dimension t[i], row-major) of that
// piece sits at position PosLo[i] + t[i]*PosStep[i] of the request
// lattice. It is the compact descriptor of the cyclic rectangle path —
// a coordinator sends O(ndims) bounds instead of O(k) offset vectors.
type StridedShare struct {
	Proc           int
	Slot           int   // grid slot of the owning section
	Lo, Hi, Step   []int // interior-local strided rectangle at the owner
	PosLo, PosStep []int // placement of the piece on the request lattice
}

// Place moves the share's packed piece sub between itself and the request
// buffer full, row-major over the request lattice of per-dimension point
// counts sdims: into full when toFull (a read reply lands), out of it
// otherwise (a write's piece is packed). Element t of the piece
// (per-dimension t[i], row-major over its lattice) sits at request-lattice
// position PosLo[i] + t[i]*PosStep[i]. It is one lattice walk, with no heap
// allocation up to MaxFastDims dimensions.
func (sh *StridedShare) Place(toFull bool, full, sub []float64, sdims []int) {
	n := len(sdims)
	var stack [3 * MaxFastDims]int
	sc := scratch(stack[:], 3*n)
	cnt, fullStr, subStr := sc[:n], sc[n:2*n], sc[2*n:]
	latticeCounts(cnt, sh.Lo, sh.Hi, sh.Step)
	f := side{&Section{Type: Double, F: full}, layout(fullStr, sh.PosLo, sh.PosStep, sdims, nil, grid.RowMajor), fullStr}
	p := side{&Section{Type: Double, F: sub}, layout(subStr, nil, nil, cnt, nil, grid.RowMajor), subStr}
	if toFull {
		walk(f, p, cnt)
	} else {
		walk(p, f, cnt)
	}
}

// dimShare is one dimension's owner progression inside StridedShares and
// TransferSchedule: the cell, its local strided run, and the run's
// placement on the request lattice along that dimension.
type dimShare struct {
	cell           int
	lo, hi, step   int
	posLo, posStep int
}

// StridedShares splits the lattice of the strided rectangle
// (lo, hi, step) — dense when step is nil — by owner, each owner's
// piece expressed as a strided local rectangle plus its placement on
// the request lattice. That representation exists exactly when every
// dimension maps the request lattice onto each cell as an arithmetic
// progression: block dimensions (clamped runs, posStep 1) and width-1
// cyclic dimensions (residue progressions with period
// GridDims/gcd(step, GridDims)) qualify; a block-cyclic dimension of
// width > 1 over several cells does not, and the call reports ok=false
// so callers fall back to OwnerLattice. Shares appear in row-major cell
// order; every lattice point lies in exactly one share.
func (m *Meta) StridedShares(lo, hi, step []int) (shares []StridedShare, ok bool, err error) {
	if err = grid.CheckStridedRect(lo, hi, step, m.Dims); err != nil {
		return nil, false, err
	}
	if !m.progressive() {
		return nil, false, nil
	}
	n := m.NDims()
	dims := make([][]dimShare, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		st := grid.StepAt(step, i)
		dims[i] = m.dimShares(i, lo[i], st, (hi[i]-lo[i]+st-1)/st)
		counts[i] = len(dims[i])
	}
	total := grid.Size(counts)
	shares = make([]StridedShare, 0, total)
	// One slab backs the five bound vectors of every share; each is capped
	// so an append to one cannot run into the next.
	slab := make([]int, 5*n*total)
	idx := make([]int, 2*n)
	idx, cells := idx[:n], idx[n:]
	for {
		v := slab[:5*n]
		slab = slab[5*n:]
		sh := StridedShare{
			Lo: v[:n:n], Hi: v[n : 2*n : 2*n], Step: v[2*n : 3*n : 3*n],
			PosLo: v[3*n : 4*n : 4*n], PosStep: v[4*n : 5*n : 5*n],
		}
		for i := 0; i < n; i++ {
			ds := dims[i][idx[i]]
			cells[i] = ds.cell
			sh.Lo[i], sh.Hi[i], sh.Step[i] = ds.lo, ds.hi, ds.step
			sh.PosLo[i], sh.PosStep[i] = ds.posLo, ds.posStep
		}
		slot, err := grid.ProcSlot(cells, m.GridDims, m.GridIndexing)
		if err != nil {
			return nil, false, err
		}
		sh.Proc = m.Procs[slot]
		sh.Slot = slot
		shares = append(shares, sh)
		i := n - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < counts[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return shares, true, nil
		}
	}
}

// progressive reports whether every dimension maps a lattice onto each
// cell as a single arithmetic progression: block dimensions, width-1
// cyclic ones, and any distribution over a 1-cell grid dimension. A
// block-cyclic dimension of width > 1 over several cells does not.
func (m *Meta) progressive() bool {
	for i := range m.Dims {
		if m.Dists != nil && m.GridDims[i] > 1 && m.Dists[i].Kind != grid.DistBlock && m.Dists[i].B > 1 {
			return false
		}
	}
	return true
}

// dimShares splits the lattice {lo + j*st : 0 <= j < cnt} along
// dimension i of a progressive array into its per-cell progressions.
func (m *Meta) dimShares(i, lo, st, cnt int) []dimShare {
	if m.Dists != nil && m.GridDims[i] > 1 && m.Dists[i].Kind != grid.DistBlock {
		return cyclicDimShares(lo, st, cnt, m.GridDims[i])
	}
	return blockDimShares(lo, st, cnt, m.LocalDims[i], m.Dims[i])
}

// cyclicDimShares computes the per-cell progressions of the lattice
// {lo + j*st : 0 <= j < cnt} along one width-1 cyclic dimension of p
// cells. The lattice visits cells with period p/gcd(st, p); a cell
// holding any point holds every period-th lattice point from its first,
// and consecutive held points are st/gcd(st, p) apart in local storage
// (their global distance is the multiple st*p/gcd of p).
func cyclicDimShares(lo, st, cnt, p int) []dimShare {
	d := gcd(st, p)
	period := p / d
	out := make([]dimShare, 0, period)
	for c := 0; c < p; c++ {
		j0 := -1
		for j := 0; j < period; j++ {
			if (lo+j*st)%p == c {
				j0 = j
				break
			}
		}
		if j0 < 0 || j0 >= cnt {
			continue
		}
		k := (cnt-1-j0)/period + 1
		lLo := (lo + j0*st) / p
		lStep := st / d
		out = append(out, dimShare{
			cell: c, lo: lLo, hi: lLo + (k-1)*lStep + 1, step: lStep,
			posLo: j0, posStep: period,
		})
	}
	return out
}

// blockDimShares computes the per-cell runs of the lattice
// {lo + j*st : 0 <= j < cnt} along one block dimension of cell width b
// and extent n (the trailing cell possibly truncated): each touched
// cell holds a contiguous stretch of consecutive lattice points.
func blockDimShares(lo, st, cnt, b, n int) []dimShare {
	last := lo + (cnt-1)*st
	out := make([]dimShare, 0, last/b-lo/b+1)
	for c := lo / b; c <= last/b; c++ {
		cellLo, cellHi := c*b, (c+1)*b
		if cellHi > n {
			cellHi = n
		}
		jFirst := 0
		if cellLo > lo {
			jFirst = (cellLo - lo + st - 1) / st
		}
		jLast := (cellHi - 1 - lo) / st
		if jLast > cnt-1 {
			jLast = cnt - 1
		}
		if jFirst > jLast {
			continue // the stride skips this cell entirely
		}
		lLo := lo + jFirst*st - cellLo
		k := jLast - jFirst + 1
		out = append(out, dimShare{
			cell: c, lo: lLo, hi: lLo + (k-1)*st + 1, step: st,
			posLo: jFirst, posStep: 1,
		})
	}
	return out
}

// gcd returns the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
