// The transfer schedule: which owner holds which points of a lattice, and
// where each point goes, in closed form. Phase-changing algorithms (a
// block LU panel feeding a cyclic solve, a transpose between FFT stages)
// move a rectangle from one array to another with a different
// distribution, and every read or write moves a rectangle between an
// array and a caller's buffer. Both are the same computation: the
// non-empty intersections of the source owners' holdings with the
// destination's, each translated to interior-local coordinates on both
// sides. One builder (schedule) computes it for TransferSchedule, where
// the destination is another array, and for Split, where it is the
// packed request buffer, so a coordinator can move every piece in one
// message whatever the layout.
//
// This file also holds the owner-side copy kernels the redistribution
// plane runs on (CopyRect; CopyOffsets for offset sets).
package darray

import (
	"fmt"

	"repro/internal/grid"
)

// PairBlock is one owner pair of a schedule: the lattice points held by
// the source cell at SrcSlot (on SrcProc) that go to the destination cell
// at DstSlot (on DstProc), as interior-local run lists on both sides. Per
// dimension a pair holds one or more runs — arithmetic progressions of
// lattice points — and its points are the product of the per-dimension
// runs. Runs is the run count per dimension, nil meaning one each; the
// six bound vectors hold one entry per run, dimension by dimension, and a
// side's step is nil when every run of it is dense. Block and width-1
// cyclic dimensions always give one run; a block-cyclic(w) dimension over
// p cells gives one per residue mod p·w that the pair holds.
//
// The pair moves through one packed buffer filled one combination of runs
// at a time — row-major over the combinations, each combination's points
// row-major — so the two sides enumerate corresponding points in the same
// order.
type PairBlock struct {
	SrcProc, DstProc      int
	SrcSlot, DstSlot      int   // grid slots of the two owning sections
	SrcLo, SrcHi, SrcStep []int // interior-local runs at the source owner
	DstLo, DstHi, DstStep []int // the same points at the destination
	Runs                  []int // runs per dimension; nil = one each
}

// Schedule is an owner-pair transfer schedule produced by
// TransferSchedule. Every lattice point of the transferred rectangle
// appears in exactly one block, so shipping each block once moves the
// whole rectangle: the ≤1-message-per-owner-pair budget of the
// redistribution plane.
type Schedule struct {
	Blocks []PairBlock
}

// TransferSchedule computes the owner-pair schedule for copying a lattice
// of elements from array src onto array dst: lattice offset j
// (componentwise 0 <= j < dims, every step[i]-th per dimension; step nil =
// dense) moves source element srcLo+j to destination element dstLo+j, on
// any pair of layouts. Ranks must match and both rectangles are
// validated against their arrays; element types may differ (values
// convert on write).
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
	blocks, err := src.schedule(dst, srcLo, srcHi, dstLo, step)
	if err != nil {
		return nil, err
	}
	return &Schedule{Blocks: blocks}, nil
}

// Split is the schedule for moving the lattice of the global strided
// rectangle (lo, hi, step) — dense when step is nil — into its packed
// row-major buffer: one block per owning section, whose source side is
// the owner's interior-local run list and whose destination side is
// where those points sit in the buffer, a buffer of shape
// grid.StridedRectDims(lo, hi, step) with no borders. Blocks appear in
// row-major cell order, and every lattice point lies in exactly one.
func (m *Meta) Split(lo, hi, step []int) ([]PairBlock, error) {
	if err := grid.CheckStridedRect(lo, hi, step, m.Dims); err != nil {
		return nil, err
	}
	return m.schedule(nil, lo, hi, nil, step)
}

// dimRun is one arithmetic progression of cnt lattice points along one
// dimension, seen from two sides: local index lo + t*step of cell on one,
// to + t*toStep of toCell on the other. A cell's run of a lattice has the
// lattice positions on the other side; the meet of a source run and a
// destination run has the destination cell's local indices there. group,
// set on the first meet of each (cell, toCell) group, is the group's
// length.
type dimRun struct {
	cell, lo, step     int
	toCell, to, toStep int
	cnt, group         int
}

// schedule is the one builder behind TransferSchedule and Split, m being
// the source. Per dimension it lists both sides' runs of the lattice
// cell by cell, intersects every source run with every destination run
// of each cell pair, and keeps a cell pair's non-empty intersections as
// one group; every combination of one group per dimension is one
// PairBlock. dst nil is the packed buffer: one cell whose one run is the
// whole lattice, so the destination side is each point's buffer
// position. Bounds are already validated. It runs on every coordinator
// request, often on a fresh goroutine's stack, so it is flat loops over
// heap slices with a small frame.
func (m *Meta) schedule(dst *Meta, lo, hi, dstLo, step []int) ([]PairBlock, error) {
	n := m.NDims()
	// Per dimension: start is its first meet (start[n] past the last),
	// groups and single count its groups and one-run groups; at is the
	// group odometer and sCells/dCells the cells it points at.
	ints := make([]int, 6*n+1)
	start, groups, single := ints[:n+1], ints[n+1:2*n+1], ints[2*n+1:3*n+1]
	at, sCells, dCells := ints[3*n+1:4*n+1], ints[4*n+1:5*n+1], ints[5*n+1:]
	// rs holds every dimension's meets, dimension by dimension, and past
	// them the current dimension's runs while its meets are computed. The
	// room below fits a block or cyclic schedule without growing.
	room := 0
	for i := 0; i < n; i++ {
		room += m.GridDims[i]
		if dst != nil {
			room += 2 * (m.GridDims[i] + dst.GridDims[i])
		}
	}
	rs := make([]dimRun, 0, room)
	total, allSingle := 1, 1
	for i := 0; i < n; i++ {
		st := grid.StepAt(step, i)
		cnt := (hi[i] - lo[i] + st - 1) / st
		start[i] = len(rs)
		rs = m.appendRuns(rs, i, lo[i], st, cnt)
		// A destination array's runs meet the source's cell pair by cell
		// pair, and the meets replace the runs. The buffer's one run would
		// meet each source run in the run itself, which already holds its
		// buffer positions.
		if dst != nil {
			ns := len(rs)
			rs = dst.appendRuns(rs, i, dstLo[i], st, cnt)
			nd := len(rs)
			for a, aEnd := start[i], 0; a < ns; a = aEnd {
				aEnd = stretch(rs, a, ns)
				for b, bEnd := ns, 0; b < nd; b = bEnd {
					bEnd = stretch(rs, b, nd)
					for x := a; x < aEnd; x++ {
						for y := b; y < bEnd; y++ {
							rs = appendMeet(rs, x, y)
						}
					}
				}
			}
			rs = rs[:start[i]+copy(rs[start[i]:], rs[nd:])]
		}
		// Each stretch of one (cell, toCell) is one group.
		for a := start[i]; a < len(rs); a += rs[a].group {
			rs[a].group = stretch(rs, a, len(rs)) - a
			groups[i]++
			if rs[a].group == 1 {
				single[i]++
			}
		}
		total *= groups[i]
		allSingle *= single[i]
	}
	start[n] = len(rs)
	if total == 0 {
		return nil, nil
	}
	// One slab backs every block's six bound vectors (one entry per run)
	// and, for the blocks with several runs in some dimension, the run
	// counts; each vector is capped so an append cannot run into the next.
	size := n * (total - allSingle)
	for i := 0; i < n; i++ {
		size += 6 * (start[i+1] - start[i]) * (total / groups[i])
	}
	slab := make([]int, size)
	blocks := make([]PairBlock, total)
	copy(at, start[:n])
	for b := range blocks {
		k := 0
		for i := 0; i < n; i++ {
			k += rs[at[i]].group
		}
		v := slab[:6*k]
		slab = slab[6*k:]
		pb := &blocks[b]
		pb.SrcLo, pb.SrcHi, pb.SrcStep = v[:k:k], v[k:2*k:2*k], v[2*k:3*k:3*k]
		pb.DstLo, pb.DstHi, pb.DstStep = v[3*k:4*k:4*k], v[4*k:5*k:5*k], v[5*k:6*k:6*k]
		if k > n {
			pb.Runs = slab[:n:n]
			slab = slab[n:]
		}
		sDense, dDense := true, true
		for i, j := 0, 0; i < n; i++ {
			g := at[i]
			sCells[i], dCells[i] = rs[g].cell, rs[g].toCell
			if pb.Runs != nil {
				pb.Runs[i] = rs[g].group
			}
			for q := g; q < g+rs[g].group; q, j = q+1, j+1 {
				r := &rs[q]
				pb.SrcLo[j], pb.SrcStep[j], pb.SrcHi[j] = r.lo, r.step, r.lo+(r.cnt-1)*r.step+1
				pb.DstLo[j], pb.DstStep[j], pb.DstHi[j] = r.to, r.toStep, r.to+(r.cnt-1)*r.toStep+1
				sDense = sDense && r.step == 1
				dDense = dDense && r.toStep == 1
			}
		}
		if sDense {
			pb.SrcStep = nil
		}
		if dDense {
			pb.DstStep = nil
		}
		slot, err := grid.ProcSlot(sCells, m.GridDims, m.GridIndexing)
		if err != nil {
			return nil, err
		}
		pb.SrcSlot, pb.SrcProc = slot, m.Procs[slot]
		if dst != nil {
			if slot, err = grid.ProcSlot(dCells, dst.GridDims, dst.GridIndexing); err != nil {
				return nil, err
			}
			pb.DstSlot, pb.DstProc = slot, dst.Procs[slot]
		}
		// Advance the group odometer, last dimension fastest.
		for i := n - 1; i >= 0; i-- {
			if at[i] += rs[at[i]].group; at[i] < start[i+1] {
				break
			}
			at[i] = start[i]
		}
	}
	return blocks, nil
}

// stretch returns the end of the stretch of rs[a:end] that shares rs[a]'s
// cell and toCell.
func stretch(rs []dimRun, a, end int) int {
	b := a + 1
	for b < end && rs[b].cell == rs[a].cell && rs[b].toCell == rs[a].toCell {
		b++
	}
	return b
}

// appendMeet appends to rs the intersection, if any, of its source run
// rs[x] and destination run rs[y] along one lattice dimension. The source
// holds positions s.to + k*s.toStep and the destination d.to + m*d.toStep;
// their common positions form a progression of step lcm(s.toStep,
// d.toStep), found by solving the two congruences, and each side's local
// step scales by the same factor as its position step.
func appendMeet(rs []dimRun, x, y int) []dimRun {
	s, d := &rs[x], &rs[y]
	at, l, ok := progressionMeet(s.to, s.toStep, d.to, d.toStep)
	if !ok {
		return rs
	}
	if at < d.to {
		at += (d.to - at + l - 1) / l * l
	}
	last := min(s.to+(s.cnt-1)*s.toStep, d.to+(d.cnt-1)*d.toStep)
	if at > last {
		return rs
	}
	return append(rs, dimRun{
		cell: s.cell, lo: s.lo + (at-s.to)/s.toStep*s.step, step: s.step * (l / s.toStep),
		toCell: d.cell, to: d.lo + (at-d.to)/d.toStep*d.step, toStep: d.step * (l / d.toStep),
		cnt: (last-at)/l + 1,
	})
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

// appendRuns appends the runs of the lattice {lo + j*st : 0 <= j < cnt}
// along dimension i to out, cell by cell in ascending cell order.
func (m *Meta) appendRuns(out []dimRun, i, lo, st, cnt int) []dimRun {
	if m.Dists != nil && m.GridDims[i] > 1 && m.Dists[i].Kind != grid.DistBlock {
		return cyclicDimShares(out, lo, st, cnt, m.GridDims[i], m.Dists[i].B)
	}
	return blockDimShares(out, lo, st, cnt, m.LocalDims[i], m.Dims[i])
}

// cyclicDimShares appends the runs of the lattice
// {lo + j*st : 0 <= j < cnt} along one block-cyclic(w) dimension of p
// cells (cyclic is w = 1). Ownership repeats every P = p·w global
// indices, so the lattice's residues mod P repeat every T = P/gcd(st, P)
// points, and the points of one residue form one run: T apart in lattice
// position and lcm(st, P) apart globally, which is st·T/p apart in the
// owning cell's storage. A cell holds one run per residue of its own the
// lattice reaches, at most w; runs come cell by cell, each cell's in
// order of first position.
func cyclicDimShares(out []dimRun, lo, st, cnt, p, w int) []dimRun {
	period := p * w
	t := period / gcd(st, period)
	reach := min(t, cnt)
	for c := 0; c < p; c++ {
		for j := 0; j < reach; j++ {
			g := lo + j*st
			if g/w%p != c {
				continue
			}
			out = append(out, dimRun{
				cell: c, lo: g/period*w + g%w, step: st * t / p,
				to: j, toStep: t, cnt: (cnt-1-j)/t + 1,
			})
		}
	}
	return out
}

// blockDimShares appends the runs of the lattice
// {lo + j*st : 0 <= j < cnt} along one block dimension of cell width b
// and extent n (the trailing cell possibly truncated): each touched cell
// holds one stretch of consecutive lattice points.
func blockDimShares(out []dimRun, lo, st, cnt, b, n int) []dimRun {
	last := lo + (cnt-1)*st
	for c := lo / b; c <= last/b; c++ {
		cellLo, cellHi := c*b, min((c+1)*b, n)
		jFirst := 0
		if cellLo > lo {
			jFirst = (cellLo - lo + st - 1) / st
		}
		jLast := min((cellHi-1-lo)/st, cnt-1)
		if jFirst > jLast {
			continue // the stride skips this cell entirely
		}
		out = append(out, dimRun{
			cell: c, lo: lo + jFirst*st - cellLo, step: st,
			to: jFirst, toStep: 1, cnt: jLast - jFirst + 1,
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

// LatticeSize validates the lattice (lo, hi, step, runs) against an
// interior of extents dims and returns its point count. With runs nil it
// is the one strided rectangle of grid.CheckStridedRect. Otherwise
// dimension i lists runs[i] strided runs inside [0, dims[i]), and their
// points may number at most dims[i] in all: the runs of one dimension
// hold distinct points, so the cap refuses a list that repeats runs — a
// request of a few bytes that would otherwise size a reply of many
// sections.
func LatticeSize(lo, hi, step, runs, dims []int) (int, error) {
	if runs == nil {
		if err := grid.CheckStridedRect(lo, hi, step, dims); err != nil {
			return 0, err
		}
		return grid.StridedRectSize(lo, hi, step), nil
	}
	if len(runs) != len(dims) {
		return 0, fmt.Errorf("%w: run counts %v for %d dimensions", grid.ErrBadRect, runs, len(dims))
	}
	size, j := 1, 0
	for i, r := range runs {
		pts := 0
		for end := j + r; j < end; j++ {
			if j >= len(lo) || j >= len(hi) || (step != nil && j >= len(step)) ||
				lo[j] < 0 || lo[j] >= hi[j] || hi[j] > dims[i] || grid.StepAt(step, j) < 1 {
				return 0, fmt.Errorf("%w: dimension %d: run %d of %v missing or outside extent %d", grid.ErrBadRect, i, j, runs, dims[i])
			}
			pts += (hi[j] - lo[j] + grid.StepAt(step, j) - 1) / grid.StepAt(step, j)
		}
		if pts < 1 || pts > dims[i] {
			return 0, fmt.Errorf("%w: dimension %d lists %d points in an extent of %d", grid.ErrBadRect, i, pts, dims[i])
		}
		size *= pts
	}
	if j != len(lo) || j != len(hi) || (step != nil && j != len(step)) {
		return 0, fmt.Errorf("%w: run counts %v for bounds of length %d/%d/%d", grid.ErrBadRect, runs, len(lo), len(hi), len(step))
	}
	return size, nil
}

// CopyRect copies the strided interior rectangle (srcLo, srcHi, srcStep)
// of the source section onto the same-shaped lattice anchored at dstLo
// with step dstStep in the destination section (a nil step is dense),
// the two sections belonging to (possibly different) arrays described
// by their metadata. With runs non-nil the bounds are a PairBlock's run
// lists, and the copy is one one-run copy per combination of runs. This
// is the zero-message service routine of the redistribution plane's
// same-process pairs: one lattice walk per combination, with no heap
// allocation for rectangles of at most MaxFastDims dimensions. Element
// types may differ (values convert). Both sides are validated against
// the sections' interior dimensions.
func CopyRect(dst *Section, dstMeta *Meta, dstLo, dstStep []int, src *Section, srcMeta *Meta, srcLo, srcHi, srcStep, runs []int) error {
	if runs != nil {
		return copyRuns(dst, dstMeta, dstLo, dstStep, src, srcMeta, srcLo, srcHi, srcStep, runs)
	}
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

// copyRuns is CopyRect over run lists: after validating the source lists
// it runs the one-run copy once per combination of runs.
func copyRuns(dst *Section, dstMeta *Meta, dstLo, dstStep []int, src *Section, srcMeta *Meta, srcLo, srcHi, srcStep, runs []int) error {
	if _, err := LatticeSize(srcLo, srcHi, srcStep, runs, srcMeta.LocalDims); err != nil {
		return err
	}
	if len(dstLo) != len(srcLo) || (dstStep != nil && len(dstStep) != len(srcLo)) {
		return fmt.Errorf("darray: copy-rect destination of %d/%d runs for %d", len(dstLo), len(dstStep), len(srcLo))
	}
	n := len(runs)
	var stack [6 * MaxFastDims]int
	sc := scratch(stack[:], 6*n)
	k := sc[:n]
	for {
		err := CopyRect(dst, dstMeta, pickRun(sc[n:2*n], dstLo, runs, k), pickRun(sc[2*n:3*n], dstStep, runs, k),
			src, srcMeta, pickRun(sc[3*n:4*n], srcLo, runs, k), pickRun(sc[4*n:5*n], srcHi, runs, k),
			pickRun(sc[5*n:], srcStep, runs, k), nil)
		if err != nil || !nextCombo(k, runs) {
			return err
		}
	}
}

// CopyOffsets copies the elements at paired storage offsets between two
// sections on the same process: source element srcOffs[i] moves to
// destination element dstOffs[i], in order (last writer wins on repeated
// destinations). Offsets are bounds-checked against both sections; the
// copy performs no heap allocation. Element types may differ (values
// convert).
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
