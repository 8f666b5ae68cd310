package grid

import (
	"reflect"
	"testing"
)

func TestCheckStridedRect(t *testing.T) {
	dims := []int{4, 6}
	cases := []struct {
		lo, hi, step []int
		ok           bool
	}{
		{[]int{0, 0}, []int{4, 6}, []int{1, 1}, true},
		{[]int{0, 0}, []int{4, 6}, []int{2, 3}, true},
		{[]int{1, 2}, []int{2, 3}, []int{5, 5}, true}, // step larger than extent: one point
		{[]int{0, 0}, []int{4, 6}, []int{0, 1}, false},
		{[]int{0, 0}, []int{4, 6}, []int{1, -2}, false},
		{[]int{0, 0}, []int{4, 6}, []int{1}, false},    // rank mismatch
		{[]int{0, 0}, []int{5, 6}, []int{1, 1}, false}, // bounds out of range
		{[]int{2, 2}, []int{2, 3}, []int{1, 1}, false}, // empty
	}
	for _, c := range cases {
		err := CheckStridedRect(c.lo, c.hi, c.step, dims)
		if (err == nil) != c.ok {
			t.Errorf("CheckStridedRect(%v, %v, %v): err=%v, want ok=%v", c.lo, c.hi, c.step, err, c.ok)
		}
	}
}

func TestStridedRectDimsSize(t *testing.T) {
	lo, hi, step := []int{0, 1, 2}, []int{7, 2, 10}, []int{2, 1, 3}
	if got := StridedRectDims(lo, hi, step); !reflect.DeepEqual(got, []int{4, 1, 3}) {
		t.Fatalf("StridedRectDims = %v", got)
	}
	if got := StridedRectSize(lo, hi, step); got != 12 {
		t.Fatalf("StridedRectSize = %d", got)
	}
	// Step 1 recovers the dense size.
	if got, want := StridedRectSize(lo, hi, []int{1, 1, 1}), RectSize(lo, hi); got != want {
		t.Fatalf("unit-step StridedRectSize = %d, RectSize = %d", got, want)
	}
}

// TestForEachStridedRectOrder checks that enumeration order matches the
// row-major linearization of the lattice coordinates, that the count equals
// StridedRectSize, and that step 1 matches ForEachRect exactly.
func TestForEachStridedRectOrder(t *testing.T) {
	lo, hi, step := []int{1, 0, 2}, []int{8, 2, 9}, []int{3, 1, 2}
	sdims := StridedRectDims(lo, hi, step)
	count := 0
	if err := ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
		rel := make([]int, len(idx))
		for i := range idx {
			if (idx[i]-lo[i])%step[i] != 0 {
				t.Fatalf("point %v off the lattice", idx)
			}
			rel[i] = (idx[i] - lo[i]) / step[i]
		}
		lin, err := Flatten(rel, sdims, RowMajor)
		if err != nil {
			return err
		}
		if lin != k {
			t.Fatalf("point %v at position %d, want %d", idx, k, lin)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != StridedRectSize(lo, hi, step) {
		t.Fatalf("enumerated %d of %d", count, StridedRectSize(lo, hi, step))
	}

	// Unit step reduces to the dense enumeration.
	var dense, strided [][]int
	_ = ForEachRect(lo, hi, func(idx []int, k int) error {
		dense = append(dense, append([]int(nil), idx...))
		return nil
	})
	_ = ForEachStridedRect(lo, hi, []int{1, 1, 1}, func(idx []int, k int) error {
		strided = append(strided, append([]int(nil), idx...))
		return nil
	})
	if !reflect.DeepEqual(dense, strided) {
		t.Fatal("unit-step ForEachStridedRect disagrees with ForEachRect")
	}
}

func TestForEachStridedRectZeroDim(t *testing.T) {
	calls := 0
	if err := ForEachStridedRect(nil, nil, nil, func(idx []int, k int) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("zero-dimensional strided rect visited %d times", calls)
	}
}
