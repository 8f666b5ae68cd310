package core

import (
	"testing"

	"repro/internal/arraymgr"
	"repro/internal/darray"
	"repro/internal/grid"
)

// bulkCase is one point in the configuration space the bulk data plane
// must agree with the per-element path on.
type bulkCase struct {
	name  string
	p     int
	spec  ArraySpec
	subLo []int
	subHi []int
}

func bulkCases() []bulkCase {
	return []bulkCase{
		{
			name: "1d/block", p: 4,
			spec:  ArraySpec{Dims: []int{24}},
			subLo: []int{5}, subHi: []int{19},
		},
		{
			name: "1d/bordered", p: 3,
			spec:  ArraySpec{Dims: []int{12}, Borders: arraymgr.ExplicitBorders{2, 1}},
			subLo: []int{1}, subHi: []int{12},
		},
		{
			name: "1d/int", p: 4,
			spec:  ArraySpec{Dims: []int{16}, Type: darray.Int},
			subLo: []int{3}, subHi: []int{13},
		},
		{
			name: "2d/block-block", p: 4,
			spec:  ArraySpec{Dims: []int{8, 6}, Distrib: []grid.Decomp{grid.BlockOf(2), grid.BlockOf(2)}},
			subLo: []int{1, 1}, subHi: []int{7, 5},
		},
		{
			name: "2d/block-star", p: 4,
			spec:  ArraySpec{Dims: []int{8, 6}, Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()}},
			subLo: []int{2, 0}, subHi: []int{6, 6},
		},
		{
			name: "2d/colmajor", p: 4,
			spec:  ArraySpec{Dims: []int{8, 6}, Indexing: grid.ColMajor},
			subLo: []int{0, 2}, subHi: []int{8, 4},
		},
		{
			name: "2d/colmajor/bordered", p: 4,
			spec: ArraySpec{
				Dims: []int{8, 8}, Indexing: grid.ColMajor,
				Borders: arraymgr.ExplicitBorders{1, 1, 2, 0},
			},
			subLo: []int{3, 3}, subHi: []int{8, 8},
		},
		{
			name: "2d/subset-procs", p: 6,
			spec:  ArraySpec{Dims: []int{4, 4}, Procs: []int{5, 1, 3, 0}},
			subLo: []int{0, 1}, subHi: []int{4, 3},
		},
		{
			name: "3d/mixed", p: 8,
			spec: ArraySpec{
				Dims:    []int{4, 6, 2},
				Distrib: []grid.Decomp{grid.BlockOf(2), grid.BlockOf(3), grid.NoDecomp()},
				Borders: arraymgr.ExplicitBorders{1, 0, 0, 1, 1, 1},
			},
			subLo: []int{1, 2, 0}, subHi: []int{3, 6, 2},
		},
	}
}

// TestBulkPerElementEquivalence is the equivalence property of the bulk
// data plane: Fill+Snapshot through block transfers must be
// element-for-element identical to write_element/read_element loops,
// across decompositions, border widths, indexing orders and element types.
func TestBulkPerElementEquivalence(t *testing.T) {
	for _, c := range bulkCases() {
		t.Run(c.name, func(t *testing.T) {
			m := newMachine(t, c.p)
			value := func(idx []int) float64 {
				v := 7.0
				for _, x := range idx {
					v = 31*v + float64(x)
				}
				return v
			}

			// Bulk write (Fill), per-element read back.
			a, err := m.NewArray(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Fill(value); err != nil {
				t.Fatal(err)
			}
			meta, err := a.Meta()
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := wholeRect(meta)
			if err := grid.ForEachRect(lo, hi, func(idx []int, k int) error {
				got, err := a.Read(idx...)
				if err != nil {
					return err
				}
				want := value(idx)
				if c.spec.Type == darray.Int {
					want = float64(int64(want))
				}
				if got != want {
					t.Fatalf("after Fill, element %v = %v, want %v", idx, got, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Per-element write, bulk read back (Snapshot).
			if err := grid.ForEachRect(lo, hi, func(idx []int, k int) error {
				return a.Write(value(idx)+1, idx...)
			}); err != nil {
				t.Fatal(err)
			}
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := grid.ForEachRect(lo, hi, func(idx []int, k int) error {
				want := value(idx) + 1
				if c.spec.Type == darray.Int {
					want = float64(int64(want))
				}
				if snap[k] != want {
					t.Fatalf("Snapshot[%v] = %v, want %v", idx, snap[k], want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Sub-rectangle: WriteBlock then per-element and ReadBlock agree.
			sub := make([]float64, grid.RectSize(c.subLo, c.subHi))
			for i := range sub {
				sub[i] = float64(-1 - i)
			}
			if err := a.WriteBlock(c.subLo, c.subHi, sub); err != nil {
				t.Fatal(err)
			}
			got, err := a.ReadBlock(c.subLo, c.subHi)
			if err != nil {
				t.Fatal(err)
			}
			if err := grid.ForEachRect(c.subLo, c.subHi, func(idx []int, k int) error {
				want := sub[k]
				if c.spec.Type == darray.Int {
					want = float64(int64(want))
				}
				if got[k] != want {
					t.Fatalf("ReadBlock[%v] = %v, want %v", idx, got[k], want)
				}
				el, err := a.Read(idx...)
				if err != nil {
					return err
				}
				if el != want {
					t.Fatalf("element %v = %v after WriteBlock, want %v", idx, el, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBulkMessageBudget is the acceptance criterion of the bulk data
// plane: Fill and Snapshot issue at most one array-manager message per
// remote owning processor, not one per element. The metadata fetch and
// the coordinator run on the caller and send nothing.
func TestBulkMessageBudget(t *testing.T) {
	const p = 4
	m := newMachine(t, p)
	a, err := m.NewArray(ArraySpec{Dims: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	owners := p
	// One request per remote owner.
	budget := uint64(owners - 1)
	router := m.VM.Router()

	before := router.Sent()
	if err := a.Fill(func(idx []int) float64 { return float64(idx[0]) }); err != nil {
		t.Fatal(err)
	}
	if got := router.Sent() - before; got > budget {
		t.Fatalf("Fill of 256 elements sent %d messages, budget %d", got, budget)
	}

	before = router.Sent()
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := router.Sent() - before; got > budget {
		t.Fatalf("Snapshot of 256 elements sent %d messages, budget %d", got, budget)
	}
	for i, v := range snap {
		if v != float64(i) {
			t.Fatalf("snap[%d] = %v", i, v)
		}
	}
}

func TestBulkErrors(t *testing.T) {
	m := newMachine(t, 2)
	a, err := m.NewArray(ArraySpec{Dims: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadBlock([]int{0, 0}, []int{5, 4}); !IsStatus(err, arraymgr.StatusInvalid) {
		t.Fatalf("out-of-range ReadBlock: %v", err)
	}
	if _, err := a.ReadBlock([]int{1, 1}, []int{1, 4}); !IsStatus(err, arraymgr.StatusInvalid) {
		t.Fatalf("empty ReadBlock: %v", err)
	}
	if err := a.WriteBlock([]int{0, 0}, []int{2, 2}, []float64{1, 2}); !IsStatus(err, arraymgr.StatusInvalid) {
		t.Fatalf("short WriteBlock: %v", err)
	}
	if err := a.FillBlock([]int{0, 0}, []int{9, 9}, func(idx []int) float64 { return 0 }); !IsStatus(err, arraymgr.StatusInvalid) {
		t.Fatalf("out-of-range FillBlock: %v", err)
	}
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadBlock([]int{0, 0}, []int{4, 4}); !IsStatus(err, arraymgr.StatusNotFound) {
		t.Fatalf("freed ReadBlock: %v", err)
	}
	if err := a.WriteBlock([]int{0, 0}, []int{4, 4}, make([]float64, 16)); !IsStatus(err, arraymgr.StatusNotFound) {
		t.Fatalf("freed WriteBlock: %v", err)
	}
	if _, err := a.Snapshot(); !IsStatus(err, arraymgr.StatusNotFound) {
		t.Fatalf("freed Snapshot: %v", err)
	}
	if err := a.Fill(func(idx []int) float64 { return 0 }); !IsStatus(err, arraymgr.StatusNotFound) {
		t.Fatalf("freed Fill: %v", err)
	}
}

// TestReadBlockInto drives the buffer-reuse read across the bulk-case
// configuration space: one caller-owned buffer serves every rectangle and
// always agrees with ReadBlock.
func TestReadBlockInto(t *testing.T) {
	for _, c := range bulkCases() {
		t.Run(c.name, func(t *testing.T) {
			m := newMachine(t, c.p)
			a, err := m.NewArray(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Fill(func(idx []int) float64 {
				v := 3.0
				for _, x := range idx {
					v = 17*v + float64(x)
				}
				return v
			}); err != nil {
				t.Fatal(err)
			}
			want, err := a.ReadBlock(c.subLo, c.subHi)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, grid.RectSize(c.subLo, c.subHi))
			if err := a.ReadBlockInto(c.subLo, c.subHi, dst); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
				}
			}
		})
	}
}

// TestStridedBlockOps drives the strided plane at the public API across
// the bulk-case configuration space: ReadBlockStrided (both variants) must
// agree with per-element reads over the lattice, and WriteBlockStrided
// must change exactly the lattice.
func TestStridedBlockOps(t *testing.T) {
	for _, c := range bulkCases() {
		t.Run(c.name, func(t *testing.T) {
			m := newMachine(t, c.p)
			a, err := m.NewArray(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			value := func(idx []int) float64 {
				v := 5.0
				for _, x := range idx {
					v = 13*v + float64(x)
				}
				if c.spec.Type == darray.Int {
					v = float64(int64(v))
				}
				return v
			}
			if err := a.Fill(value); err != nil {
				t.Fatal(err)
			}
			step := make([]int, len(c.subLo))
			for i := range step {
				step[i] = 2 + i%2
			}

			want := make(map[int]float64) // lattice position -> value
			got, err := a.ReadBlockStrided(c.subLo, c.subHi, step)
			if err != nil {
				t.Fatal(err)
			}
			if n := grid.StridedRectSize(c.subLo, c.subHi, step); len(got) != n {
				t.Fatalf("strided read returned %d values, lattice has %d", len(got), n)
			}
			if err := grid.ForEachStridedRect(c.subLo, c.subHi, step, func(idx []int, k int) error {
				if got[k] != value(idx) {
					t.Fatalf("strided[%d] (%v) = %v, want %v", k, idx, got[k], value(idx))
				}
				want[k] = value(idx) - 100
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, len(got))
			if err := a.ReadBlockStridedInto(c.subLo, c.subHi, step, dst); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if dst[i] != got[i] {
					t.Fatalf("dst[%d] = %v, want %v", i, dst[i], got[i])
				}
			}

			// Strided write: lattice elements take the new values,
			// everything else keeps the fill pattern.
			vals := make([]float64, len(got))
			for k, v := range want {
				vals[k] = v
			}
			if err := a.WriteBlockStrided(c.subLo, c.subHi, step, vals); err != nil {
				t.Fatal(err)
			}
			meta, err := a.Meta()
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := wholeRect(meta)
			onLattice := func(idx []int) (int, bool) {
				pos := 0
				for i := range idx {
					if idx[i] < c.subLo[i] || idx[i] >= c.subHi[i] || (idx[i]-c.subLo[i])%step[i] != 0 {
						return 0, false
					}
					pos = pos*((c.subHi[i]-c.subLo[i]+step[i]-1)/step[i]) + (idx[i]-c.subLo[i])/step[i]
				}
				return pos, true
			}
			if err := grid.ForEachRect(lo, hi, func(idx []int, k int) error {
				el, err := a.Read(idx...)
				if err != nil {
					return err
				}
				expect := value(idx)
				if pos, ok := onLattice(idx); ok {
					expect = vals[pos]
					if c.spec.Type == darray.Int {
						expect = float64(int64(expect))
					}
				}
				if el != expect {
					t.Fatalf("element %v = %v after strided write, want %v", idx, el, expect)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGatherScatterElements drives the indexed gather/scatter plane at the
// public API across the bulk-case configuration space: ScatterElements
// followed by GatherElements and GatherElementsInto must agree with the
// per-element path on scattered (and repeated) indices.
func TestGatherScatterElements(t *testing.T) {
	for _, c := range bulkCases() {
		t.Run(c.name, func(t *testing.T) {
			m := newMachine(t, c.p)
			a, err := m.NewArray(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			// Scatter a value to every corner of the sub-rectangle plus its
			// lo corner again (a repeat: the second write must win).
			nd := len(c.subLo)
			corner := func(pick int) []int {
				idx := make([]int, nd)
				for d := 0; d < nd; d++ {
					if pick&(1<<d) != 0 {
						idx[d] = c.subHi[d] - 1
					} else {
						idx[d] = c.subLo[d]
					}
				}
				return idx
			}
			var indices [][]int
			for pick := 0; pick < 1<<nd; pick++ {
				indices = append(indices, corner(pick))
			}
			indices = append(indices, corner(0))
			vals := make([]float64, len(indices))
			for i := range vals {
				vals[i] = float64(10*i + 1)
			}
			if err := a.ScatterElements(indices, vals); err != nil {
				t.Fatal(err)
			}
			got, err := a.GatherElements(indices)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, len(indices))
			if err := a.GatherElementsInto(indices, dst); err != nil {
				t.Fatal(err)
			}
			for i, idx := range indices {
				want, err := a.Read(idx...)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want || dst[i] != want {
					t.Fatalf("gather[%d] (%v) = %v/%v, element read %v", i, idx, got[i], dst[i], want)
				}
			}
			// The repeated lo corner holds its last-written value.
			want := vals[len(vals)-1]
			if c.spec.Type == darray.Int {
				want = float64(int64(want))
			}
			if v, err := a.Read(corner(0)...); err != nil || v != want {
				t.Fatalf("repeated index = %v (%v), want last-written %v", v, err, want)
			}
		})
	}
}

// TestGatherMessageBudget bounds the indexed plane at the public API: a
// k-element gather or scatter costs at most one request per remote owner
// — never one per element.
func TestGatherMessageBudget(t *testing.T) {
	const p = 4
	m := newMachine(t, p)
	a, err := m.NewArray(ArraySpec{Dims: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	const k = 128
	indices := make([][]int, k)
	vals := make([]float64, k)
	for i := range indices {
		indices[i] = []int{(i * 11) % 256}
		vals[i] = float64(i)
	}
	budget := uint64(p - 1)
	router := m.VM.Router()

	before := router.Sent()
	if err := a.ScatterElements(indices, vals); err != nil {
		t.Fatal(err)
	}
	if got := router.Sent() - before; got > budget {
		t.Fatalf("%d-element scatter sent %d messages, budget %d", k, got, budget)
	}
	before = router.Sent()
	if _, err := a.GatherElements(indices); err != nil {
		t.Fatal(err)
	}
	if got := router.Sent() - before; got > budget {
		t.Fatalf("%d-element gather sent %d messages, budget %d", k, got, budget)
	}
}

// TestLocalBlockOpsAllocationFree pins the zero-copy local fast path at
// the public API: reading or writing a wholly-local rectangle through
// core.Array performs zero heap allocations and sends zero messages.
func TestLocalBlockOpsAllocationFree(t *testing.T) {
	m := newMachine(t, 4)
	a, err := m.NewArray(ArraySpec{
		Dims:    []int{32, 32},
		Distrib: []grid.Decomp{grid.BlockOf(2), grid.BlockOf(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{0, 0}, []int{16, 16} // processor 0's local section
	buf := make([]float64, 256)
	if err := a.WriteBlock(lo, hi, buf); err != nil {
		t.Fatal(err)
	}
	router := m.VM.Router()
	before := router.Sent()
	writeAllocs := testing.AllocsPerRun(200, func() {
		if err := a.WriteBlock(lo, hi, buf); err != nil {
			t.Error(err)
		}
	})
	readAllocs := testing.AllocsPerRun(200, func() {
		if err := a.ReadBlockInto(lo, hi, buf); err != nil {
			t.Error(err)
		}
	})
	if writeAllocs != 0 {
		t.Errorf("local WriteBlock: %v allocs/op, want 0", writeAllocs)
	}
	if readAllocs != 0 {
		t.Errorf("local ReadBlockInto: %v allocs/op, want 0", readAllocs)
	}
	if sent := router.Sent() - before; sent != 0 {
		t.Errorf("local block ops sent %d messages, want 0", sent)
	}
}

// TestArrayRedistribute drives the redistribution facade: a block
// array's rectangle lands on a cyclic twin directly, matching the
// read-then-write bounce it replaces, including the offset variant.
func TestArrayRedistribute(t *testing.T) {
	m := newMachine(t, 4)
	src, err := m.NewArray(ArraySpec{Dims: []int{18}})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := m.NewArray(ArraySpec{Dims: []int{18},
		Distrib: []grid.Decomp{grid.CyclicDefault()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Fill(func(idx []int) float64 { return float64(idx[0] * 2) }); err != nil {
		t.Fatal(err)
	}
	if err := dst.RedistributeFrom(src, []int{3}, []int{15}); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 15; i++ {
		v, err := dst.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != float64(i*2) {
			t.Fatalf("dst[%d] = %v, want %v", i, v, float64(i*2))
		}
	}
	if err := dst.RedistributeRectFrom(src, []int{0}, []int{16}, []int{2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		v, err := dst.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != float64((16+i)*2) {
			t.Fatalf("shifted dst[%d] = %v, want %v", i, v, float64((16+i)*2))
		}
	}
	if err := dst.RedistributeStridedFrom(src, []int{4}, []int{12}, []int{2}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 6, 8, 10} {
		v, err := dst.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != float64(i*2) {
			t.Fatalf("strided dst[%d] = %v, want %v", i, v, float64(i*2))
		}
	}
	if err := dst.RedistributeFrom(dst, []int{0}, []int{4}); err == nil {
		t.Fatal("aliasing redistribute accepted")
	}
}
