package grid

import (
	"testing"
)

// Fuzzers for the rectangle arithmetic behind the bulk and strided data
// planes. CI runs each with a short -fuzztime as a smoke job; the seed
// corpora below keep `go test` (no -fuzz flag) covering the same
// properties deterministically.

// fuzzDims decodes three bytes into a small 3-D shape (1..8 per side).
func fuzzDims(d0, d1, d2 uint8) []int {
	return []int{int(d0%8) + 1, int(d1%8) + 1, int(d2%8) + 1}
}

// FuzzFlattenUnflatten: Unflatten then Flatten is the identity on linear
// offsets, under both indexing orders, for any shape.
func FuzzFlattenUnflatten(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint16(17), true)
	f.Add(uint8(1), uint8(1), uint8(1), uint16(0), false)
	f.Add(uint8(7), uint8(5), uint8(3), uint16(1000), false)
	f.Fuzz(func(t *testing.T, d0, d1, d2 uint8, lin uint16, rowMajor bool) {
		dims := fuzzDims(d0, d1, d2)
		ix := ColMajor
		if rowMajor {
			ix = RowMajor
		}
		l := int(lin) % Size(dims)
		idx, err := Unflatten(l, dims, ix)
		if err != nil {
			t.Fatalf("Unflatten(%d, %v): %v", l, dims, err)
		}
		got, err := Flatten(idx, dims, ix)
		if err != nil {
			t.Fatalf("Flatten(%v, %v): %v", idx, dims, err)
		}
		if got != l {
			t.Fatalf("round trip %d -> %v -> %d (%v, %v)", l, idx, got, dims, ix)
		}
	})
}

// fuzzRect decodes two bytes per dimension into a non-empty rectangle
// within [0, 16) per side.
func fuzzRect(raw []uint8) (lo, hi []int) {
	n := len(raw) / 2
	lo = make([]int, n)
	hi = make([]int, n)
	for i := 0; i < n; i++ {
		lo[i] = int(raw[2*i] % 16)
		hi[i] = lo[i] + 1 + int(raw[2*i+1]%8)
	}
	return lo, hi
}

// FuzzIntersectRect: dense rectangle intersection is symmetric, and the
// reported box is exactly the set of points in both inputs.
func FuzzIntersectRect(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(2), uint8(4), uint8(1), uint8(3), uint8(0), uint8(7))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(1), uint8(8), uint8(1), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 uint8) {
		alo, ahi := fuzzRect([]uint8{a0, a1, a2, a3})
		blo, bhi := fuzzRect([]uint8{b0, b1, b2, b3})
		lo1, hi1, ok1 := IntersectRect(alo, ahi, blo, bhi)
		lo2, hi2, ok2 := IntersectRect(blo, bhi, alo, ahi)
		if ok1 != ok2 {
			t.Fatalf("asymmetric emptiness: [%v,%v) x [%v,%v): %v vs %v", alo, ahi, blo, bhi, ok1, ok2)
		}
		inBoth := func(idx []int) bool {
			for i := range idx {
				if idx[i] < alo[i] || idx[i] >= ahi[i] || idx[i] < blo[i] || idx[i] >= bhi[i] {
					return false
				}
			}
			return true
		}
		if !ok1 {
			// Empty: no point of a may lie in b.
			_ = ForEachRect(alo, ahi, func(idx []int, k int) error {
				if inBoth(idx) {
					t.Fatalf("reported empty but %v in both", idx)
				}
				return nil
			})
			return
		}
		for i := range lo1 {
			if lo1[i] != lo2[i] || hi1[i] != hi2[i] {
				t.Fatalf("asymmetric result: [%v,%v) vs [%v,%v)", lo1, hi1, lo2, hi2)
			}
		}
		want := 0
		_ = ForEachRect(alo, ahi, func(idx []int, k int) error {
			if inBoth(idx) {
				want++
			}
			return nil
		})
		if got := RectSize(lo1, hi1); got != want {
			t.Fatalf("intersection [%v,%v) has %d points, brute force %d", lo1, hi1, got, want)
		}
	})
}

// FuzzStridedRectEnumeration: ForEachStridedRect visits exactly
// StridedRectSize lattice points, in packed row-major order, each in range
// and on the lattice.
func FuzzStridedRectEnumeration(f *testing.F) {
	f.Add(uint8(1), uint8(9), uint8(3), uint8(0), uint8(7), uint8(2))
	f.Add(uint8(0), uint8(1), uint8(1), uint8(5), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, l0, e0, s0, l1, e1, s1 uint8) {
		lo := []int{int(l0 % 12), int(l1 % 12)}
		hi := []int{lo[0] + 1 + int(e0%12), lo[1] + 1 + int(e1%12)}
		step := []int{int(s0%4) + 1, int(s1%4) + 1}
		dims := []int{24, 24}
		if err := CheckStridedRect(lo, hi, step, dims); err != nil {
			t.Fatalf("constructed invalid strided rect: %v", err)
		}
		sdims := StridedRectDims(lo, hi, step)
		count := 0
		if err := ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
			if k != count {
				t.Fatalf("position %d out of order (want %d)", k, count)
			}
			pos := 0
			for i := range idx {
				if idx[i] < lo[i] || idx[i] >= hi[i] {
					t.Fatalf("point %v outside [%v,%v)", idx, lo, hi)
				}
				if (idx[i]-lo[i])%step[i] != 0 {
					t.Fatalf("point %v off the %v lattice", idx, step)
				}
				pos = pos*sdims[i] + (idx[i]-lo[i])/step[i]
			}
			if pos != k {
				t.Fatalf("point %v packed at %d, row-major says %d", idx, k, pos)
			}
			count++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := StridedRectSize(lo, hi, step); count != want {
			t.Fatalf("enumerated %d points, StridedRectSize %d", count, want)
		}
	})
}
