// The lattice walk: the one copy kernel under every section and buffer
// move of the array manager (§5.1). A region of a bordered local section
// (§4.2), a packed request buffer and a piece's place in a request
// buffer are all the same thing to it — a storage offset plus one storage
// distance per dimension — so reading and writing blocks, copying between
// sections and placing owner replies share one odometer.
package darray

import (
	"fmt"

	"repro/internal/grid"
)

// side is one end of a walk: the storage, the offset of the lattice's
// first point and, per dimension, the storage distance between
// consecutive lattice points. A packed []float64 buffer takes part as a
// Section{Type: Double, F: buf}.
type side struct {
	sec *Section
	off int
	str []int
}

// walk moves the cnt[0]×…×cnt[n-1] points of a lattice from src to dst in
// row-major lattice order (last dimension fastest), one last-dimension run
// at a time. An empty lattice moves nothing. The odometer lives on the
// stack up to MaxFastDims dimensions and on the heap beyond, so the walk
// itself allocates nothing below that. Offsets and strides must already
// be validated against both storages.
func walk(dst, src side, cnt []int) {
	n := len(cnt)
	for _, c := range cnt {
		if c < 1 {
			return
		}
	}
	var stack [MaxFastDims]int
	pos := scratch(stack[:], n)[:n]
	// Slicing to n lets the compiler drop the odometer's bounds checks.
	dStr, sStr := dst.str[:n], src.str[:n]
	dOff, sOff := dst.off, src.off
	last := n - 1
	run, ds, ss := cnt[last], dStr[last], sStr[last]
	// Unit-stride Double runs, the common case, copy inline; keeping the
	// other cases out of line keeps this loop's state in registers.
	df, sf := dst.sec.F, src.sec.F
	inline := ds == 1 && ss == 1 && dst.sec.Type == Double && src.sec.Type == Double
	for {
		if inline {
			copy(df[dOff:dOff+run], sf[sOff:sOff+run])
		} else {
			moveRun(dst.sec, dOff, ds, src.sec, sOff, ss, run)
		}
		// Advance the outer-dimension odometer, keeping both offsets in step.
		i := last - 1
		for ; i >= 0; i-- {
			pos[i]++
			dOff += dStr[i]
			sOff += sStr[i]
			if pos[i] < cnt[i] {
				break
			}
			dOff -= cnt[i] * dStr[i]
			sOff -= cnt[i] * sStr[i]
			pos[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// moveRun moves run points, ds apart in dst from offset d and ss apart in
// src from offset s: Int→Int exactly (with copy at unit strides), Int↔Double
// converting as GetFloat and SetFloat do.
func moveRun(dst *Section, d, ds int, src *Section, s, ss, run int) {
	switch {
	case dst.Type == Int && src.Type == Int:
		di, si := dst.I, src.I
		if ds == 1 && ss == 1 {
			copy(di[d:d+run], si[s:s+run])
			return
		}
		for j := 0; j < run; j, d, s = j+1, d+ds, s+ss {
			di[d] = si[s]
		}
	case dst.Type == Int:
		di, sf := dst.I, src.F
		for j := 0; j < run; j, d, s = j+1, d+ds, s+ss {
			di[d] = int64(sf[s])
		}
	case src.Type == Int:
		df, si := dst.F, src.I
		for j := 0; j < run; j, d, s = j+1, d+ds, s+ss {
			df[d] = float64(si[s])
		}
	default:
		df, sf := dst.F, src.F
		for j := 0; j < run; j, d, s = j+1, d+ds, s+ss {
			df[d] = sf[s]
		}
	}
}

// layout is the one stride helper: it writes into str the storage distance,
// per dimension, between consecutive points of the lattice anchored at lo
// with step step (dense when nil) in a dims-shaped interior bordered by
// borders (two per dimension) and linearized under ix, and returns the
// storage offset of the lattice's first point. A nil lo is the interior
// origin and nil borders are none, so a packed row-major buffer of lattice
// shape cnt is layout(str, nil, nil, cnt, nil, grid.RowMajor).
func layout(str, lo, step, dims, borders []int, ix grid.Indexing) (origin int) {
	n := len(dims)
	str = str[:n]
	ext := 1
	for k := 0; k < n; k++ {
		i := k
		if ix == grid.RowMajor {
			i = n - 1 - k
		}
		at, plus := 0, dims[i]
		if lo != nil {
			at = lo[i]
		}
		if borders != nil {
			at += borders[2*i]
			plus += borders[2*i] + borders[2*i+1]
		}
		origin += at * ext
		str[i] = grid.StepAt(step, i) * ext
		ext *= plus
	}
	return origin
}

// latticeCounts writes the per-dimension point counts of the lattice
// (lo, hi, step) into cnt: grid.StridedRectDims without the allocation.
func latticeCounts(cnt, lo, hi, step []int) {
	for i := range cnt {
		st := grid.StepAt(step, i)
		cnt[i] = (hi[i] - lo[i] + st - 1) / st
	}
}

// scratch returns n ints: the front of stack when they fit, fresh heap
// beyond it. Callers size stack for MaxFastDims dimensions.
func scratch(stack []int, n int) []int {
	if n <= len(stack) {
		return stack[:n]
	}
	return make([]int, n)
}

// MoveLattice moves the lattice of every step[i]-th element of the
// interior rectangle [lo, hi) — dense when step is nil — between the
// section and vals, packed densely in row-major lattice order: into vals
// when read, onto the lattice otherwise (elements off it are untouched).
// With runs non-nil the bounds are run lists (see PairBlock) and vals
// holds one combination of runs after another. localDims, borders and ix
// describe the section's interior shape, border widths (nil for none) and
// storage indexing; border locations are never touched. vals must hold
// exactly LatticeSize(lo, hi, step, runs, localDims) values and stays
// caller-owned. Up to MaxFastDims dimensions the move performs no heap
// allocation.
func (s *Section) MoveLattice(read bool, vals []float64, lo, hi, step, runs, localDims, borders []int, ix grid.Indexing) error {
	if runs != nil {
		return s.moveRuns(read, vals, lo, hi, step, runs, localDims, borders, ix)
	}
	if err := grid.CheckStridedRect(lo, hi, step, localDims); err != nil {
		return err
	}
	if borders != nil {
		if err := CheckBorders(borders, len(localDims)); err != nil {
			return err
		}
	}
	if size := grid.StridedRectSize(lo, hi, step); len(vals) != size {
		return fmt.Errorf("darray: buffer of %d values for a lattice of %d points", len(vals), size)
	}
	n := len(lo)
	var stack [3 * MaxFastDims]int
	sc := scratch(stack[:], 3*n)
	cnt, secStr, bufStr := sc[:n], sc[n:2*n], sc[2*n:]
	latticeCounts(cnt, lo, hi, step)
	sec := side{s, layout(secStr, lo, step, localDims, borders, ix), secStr}
	buf := side{&Section{Type: Double, F: vals}, layout(bufStr, nil, nil, cnt, nil, grid.RowMajor), bufStr}
	if read {
		walk(buf, sec, cnt)
	} else {
		walk(sec, buf, cnt)
	}
	return nil
}

// moveRuns is MoveLattice over run lists: after validating them, one
// one-run move per combination of runs, each on the next stretch of vals.
func (s *Section) moveRuns(read bool, vals []float64, lo, hi, step, runs, localDims, borders []int, ix grid.Indexing) error {
	size, err := LatticeSize(lo, hi, step, runs, localDims)
	if err != nil {
		return err
	}
	if len(vals) != size {
		return fmt.Errorf("darray: buffer of %d values for run lists of %d points", len(vals), size)
	}
	n := len(runs)
	var stack [4 * MaxFastDims]int
	sc := scratch(stack[:], 4*n)
	k := sc[:n]
	for off := 0; ; {
		l, h, st := pickRun(sc[n:2*n], lo, runs, k), pickRun(sc[2*n:3*n], hi, runs, k), pickRun(sc[3*n:], step, runs, k)
		size := grid.StridedRectSize(l, h, st)
		if err := s.MoveLattice(read, vals[off:off+size], l, h, st, nil, localDims, borders, ix); err != nil {
			return err
		}
		off += size
		if !nextCombo(k, runs) {
			return nil
		}
	}
}

// pickRun writes into out, per dimension i, entry k[i] of dimension i's
// runs in the per-run vector v, and returns it; a nil v (a dense step)
// stays nil.
func pickRun(out, v, runs, k []int) []int {
	if v == nil {
		return nil
	}
	base := 0
	for i, r := range runs {
		out[i] = v[base+k[i]]
		base += r
	}
	return out
}

// nextCombo advances the odometer k over the combinations of one run per
// dimension, last dimension fastest; false once every one was visited.
func nextCombo(k, runs []int) bool {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i]++; k[i] < runs[i] {
			return true
		}
		k[i] = 0
	}
	return false
}
