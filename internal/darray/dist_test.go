package darray

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// metaForDist builds the Meta the array manager produces for dims
// distributed over gridDims with the given per-dimension specifications —
// including uneven trailing blocks and cyclic layouts the legacy metaFor
// helper (exact-divisible block) cannot express.
func metaForDist(t testing.TB, dims, gridDims []int, specs []grid.Decomp, borders []int, ix grid.Indexing) *Meta {
	t.Helper()
	dists, err := grid.ResolveDists(dims, gridDims, specs)
	if err != nil {
		t.Fatal(err)
	}
	localDims, err := grid.StorageDims(dims, gridDims, dists)
	if err != nil {
		t.Fatal(err)
	}
	plus, err := DimsPlus(localDims, borders)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]int, grid.Size(gridDims))
	for i := range procs {
		procs[i] = 20 + 2*i // non-identity processor numbering
	}
	return &Meta{
		ID: ID{Proc: 0, Seq: 0}, Type: Double,
		Dims:      append([]int(nil), dims...),
		Procs:     procs,
		GridDims:  append([]int(nil), gridDims...),
		Dists:     dists,
		LocalDims: localDims, Borders: append([]int(nil), borders...),
		LocalDimsPlus: plus,
		Indexing:      ix, GridIndexing: ix,
	}
}

// distMetas is the sweep of distributed layouts the tests below share:
// cyclic, block-cyclic, mixtures, and the uneven block shapes the
// divide-evenly restriction used to reject.
func distMetas(t *testing.T, ix grid.Indexing) map[string]*Meta {
	return map[string]*Meta{
		"1d/cyclic": metaForDist(t, []int{23}, []int{4},
			[]grid.Decomp{grid.CyclicDefault()}, []int{0, 0}, ix),
		"1d/blockcyclic": metaForDist(t, []int{17}, []int{3},
			[]grid.Decomp{grid.BlockCyclicOf(3)}, []int{1, 2}, ix),
		"1d/uneven-block": metaForDist(t, []int{10}, []int{4},
			[]grid.Decomp{grid.BlockOf(4)}, []int{0, 0}, ix),
		"2d/cyclic-block": metaForDist(t, []int{12, 10}, []int{3, 2},
			[]grid.Decomp{grid.CyclicOf(3), grid.BlockOf(2)}, []int{0, 1, 1, 0}, ix),
		"2d/blockcyclic-star": metaForDist(t, []int{14, 5}, []int{4, 1},
			[]grid.Decomp{grid.BlockCyclicOfN(2, 4), grid.NoDecomp()}, []int{0, 0, 0, 0}, ix),
		"2d/uneven-both": metaForDist(t, []int{7, 5}, []int{3, 2},
			[]grid.Decomp{grid.BlockOf(3), grid.BlockOf(2)}, []int{1, 0, 0, 1}, ix),
		"3d/mixed": metaForDist(t, []int{6, 7, 4}, []int{2, 2, 1},
			[]grid.Decomp{grid.CyclicOf(2), grid.BlockCyclicOfN(2, 2), grid.CyclicOf(1)}, []int{0, 0, 1, 1, 0, 0}, ix),
	}
}

// TestOwnerDistBijection checks the generalized Owner resolution: every
// global index maps to a distinct (processor, storage offset) pair on a
// processor that holds a section, with the offset inside the bordered
// storage; and LocalDimsOf counts partition the index space.
func TestOwnerDistBijection(t *testing.T) {
	for _, ix := range []grid.Indexing{grid.RowMajor, grid.ColMajor} {
		for name, m := range distMetas(t, ix) {
			t.Run(name+"/"+ix.String(), func(t *testing.T) {
				type key struct{ proc, off int }
				seen := map[key]bool{}
				perProc := map[int]int{}
				lo := make([]int, m.NDims())
				if err := grid.ForEachRect(lo, m.Dims, func(gidx []int, _ int) error {
					proc, off, err := m.Owner(gidx)
					if err != nil {
						t.Fatalf("Owner(%v): %v", gidx, err)
					}
					if _, holds := m.HoldsSection(proc); !holds {
						t.Fatalf("Owner(%v) = proc %d, which holds no section", gidx, proc)
					}
					if off < 0 || off >= m.LocalStorageSize() {
						t.Fatalf("Owner(%v) offset %d outside storage %d", gidx, off, m.LocalStorageSize())
					}
					k := key{proc, off}
					if seen[k] {
						t.Fatalf("duplicate mapping at %v: %+v", gidx, k)
					}
					seen[k] = true
					perProc[proc]++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				// LocalDimsOf agrees with the enumeration.
				for slot, proc := range m.SectionProcs() {
					local, err := m.LocalDimsOf(slot)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := perProc[proc], grid.Size(local); got != want {
						t.Fatalf("slot %d (proc %d): %d elements resolved, LocalDimsOf says %d (%v)",
							slot, proc, got, want, local)
					}
					for i, l := range local {
						if l > m.LocalDims[i] {
							t.Fatalf("slot %d: interior %v exceeds storage %v", slot, local, m.LocalDims)
						}
					}
				}
			})
		}
	}
}

// TestOwnerLatticeMatchesOwner checks the lattice owner-split against the
// scalar resolution on random dense and strided rectangles: positions
// partition the packed lattice exactly once, and each offset is what Owner
// reports for the corresponding point.
func TestOwnerLatticeMatchesOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ix := range []grid.Indexing{grid.RowMajor, grid.ColMajor} {
		for name, m := range distMetas(t, ix) {
			t.Run(name+"/"+ix.String(), func(t *testing.T) {
				nd := m.NDims()
				for trial := 0; trial < 20; trial++ {
					lo := make([]int, nd)
					hi := make([]int, nd)
					var step []int
					for i, d := range m.Dims {
						lo[i] = rng.Intn(d)
						hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
					}
					size := grid.RectSize(lo, hi)
					if trial%2 == 1 {
						step = make([]int, nd)
						for i := range step {
							step[i] = 1 + rng.Intn(3)
						}
						size = grid.StridedRectSize(lo, hi, step)
					}
					sets, err := m.OwnerLattice(lo, hi, step)
					if err != nil {
						t.Fatal(err)
					}
					seenPos := make([]bool, size)
					total := 0
					for _, s := range sets {
						if len(s.Offs) != len(s.Pos) {
							t.Fatalf("set for proc %d: %d offs, %d pos", s.Proc, len(s.Offs), len(s.Pos))
						}
						total += len(s.Pos)
						for _, p := range s.Pos {
							if p < 0 || p >= size || seenPos[p] {
								t.Fatalf("position %d out of range or repeated", p)
							}
							seenPos[p] = true
						}
					}
					if total != size {
						t.Fatalf("sets cover %d of %d lattice points", total, size)
					}
					// Each point's (proc, off) matches Owner.
					wantOff := map[int][2]int{} // pos -> {proc, off}
					visit := func(idx []int, k int) error {
						proc, off, err := m.Owner(idx)
						if err != nil {
							return err
						}
						wantOff[k] = [2]int{proc, off}
						return nil
					}
					if step == nil {
						err = grid.ForEachRect(lo, hi, visit)
					} else {
						err = grid.ForEachStridedRect(lo, hi, step, visit)
					}
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range sets {
						for j, p := range s.Pos {
							want := wantOff[p]
							if s.Proc != want[0] || s.Offs[j] != want[1] {
								t.Fatalf("pos %d: set says (%d,%d), Owner says (%d,%d)",
									p, s.Proc, s.Offs[j], want[0], want[1])
							}
						}
					}
				}
			})
		}
	}
}

// TestLocalRectDist checks the allocation-free wholly-local test on
// distributed layouts: it must return true exactly when every point of the
// rectangle resolves to the processor, with bounds that translate each
// point by a constant (the unit-slope map the fast-path copies rely on).
func TestLocalRectDist(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, ix := range []grid.Indexing{grid.RowMajor, grid.ColMajor} {
		for name, m := range distMetas(t, ix) {
			t.Run(name+"/"+ix.String(), func(t *testing.T) {
				nd := m.NDims()
				strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
				rects := make([][2][]int, 0, 40)
				for trial := 0; trial < 30; trial++ {
					lo := make([]int, nd)
					hi := make([]int, nd)
					for i, d := range m.Dims {
						lo[i] = rng.Intn(d)
						// Bias toward small extents so single-owner rects occur.
						hi[i] = lo[i] + 1 + rng.Intn(1+min(d-lo[i]-1, 2))
					}
					rects = append(rects, [2][]int{lo, hi})
				}
				for _, r := range rects {
					lo, hi := r[0], r[1]
					// Brute force: the set of owning processors.
					owners := map[int]bool{}
					_ = grid.ForEachRect(lo, hi, func(gidx []int, _ int) error {
						proc, _, err := m.Owner(gidx)
						if err != nil {
							t.Fatal(err)
						}
						owners[proc] = true
						return nil
					})
					dstLo := make([]int, nd)
					dstHi := make([]int, nd)
					for _, proc := range m.SectionProcs() {
						got := m.LocalRect(proc, lo, hi, dstLo, dstHi)
						want := len(owners) == 1 && owners[proc]
						if got != want {
							t.Fatalf("rect [%v,%v) proc %d: LocalRect = %v, want %v", lo, hi, proc, got, want)
						}
						if !got {
							continue
						}
						// The translated bounds address exactly the owned
						// storage: corner offsets match Owner's.
						checkCorner := func(gidx []int) {
							lidx := make([]int, nd)
							for i := range gidx {
								lidx[i] = dstLo[i] + (gidx[i] - lo[i])
							}
							off := 0
							for i := range lidx {
								off += (lidx[i] + m.Borders[2*i]) * strides[i]
							}
							_, wantOff, err := m.Owner(gidx)
							if err != nil {
								t.Fatal(err)
							}
							if off != wantOff {
								t.Fatalf("rect [%v,%v) point %v: translated offset %d, Owner %d", lo, hi, gidx, off, wantOff)
							}
						}
						checkCorner(lo)
						last := make([]int, nd)
						for i := range last {
							last[i] = hi[i] - 1
						}
						checkCorner(last)
					}
				}
			})
		}
	}
}

// TestOwnerBlocksUneven re-runs the partition check on shapes the
// divide-evenly restriction used to reject: uneven trailing blocks still
// split into disjoint covering rectangles that agree with Owner.
func TestOwnerBlocksUneven(t *testing.T) {
	for _, ix := range []grid.Indexing{grid.RowMajor, grid.ColMajor} {
		m := metaForDist(t, []int{10, 7}, []int{4, 2},
			[]grid.Decomp{grid.BlockOf(4), grid.BlockOf(2)}, []int{1, 0, 0, 1}, ix)
		lo, hi := []int{0, 0}, []int{10, 7}
		blocks, err := m.OwnerBlocks(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, b := range blocks {
			if err := grid.ForEachRect(b.GlobalLo, b.GlobalHi, func(gidx []int, _ int) error {
				covered++
				wantProc, _, err := m.Owner(gidx)
				if err != nil {
					return err
				}
				if b.Proc != wantProc {
					t.Fatalf("%v: index %v in block of proc %d, Owner says %d", ix, gidx, b.Proc, wantProc)
				}
				for i := range gidx {
					lidx := b.LocalLo[i] + (gidx[i] - b.GlobalLo[i])
					if lidx < 0 || lidx >= m.LocalDims[i] {
						t.Fatalf("local index %d outside storage in dim %d", lidx, i)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if covered != grid.RectSize(lo, hi) {
			t.Fatalf("%v: blocks cover %d of %d elements", ix, covered, grid.RectSize(lo, hi))
		}
	}
}

// TestOwnerBlocksIrregular pins the contract: the block-only rectangle
// split OwnerBlocks reports ErrIrregular on a cyclic array, while the
// rectangle split Split serves a block-cyclic B > 1 one in closed form
// (one run per residue: two per cell for a dense lattice over
// block-cyclic(2), one for every 2nd point), and cyclic over a 1-cell
// grid dimension stays regular.
func TestOwnerBlocksIrregular(t *testing.T) {
	m := metaForDist(t, []int{12}, []int{3}, []grid.Decomp{grid.CyclicDefault()}, []int{0, 0}, grid.RowMajor)
	if _, err := m.OwnerBlocks([]int{0}, []int{12}); !errors.Is(err, ErrIrregular) {
		t.Fatalf("OwnerBlocks on cyclic array: %v, want ErrIrregular", err)
	}
	bc := metaForDist(t, []int{12}, []int{3}, []grid.Decomp{grid.BlockCyclicOf(2)}, []int{0, 0}, grid.RowMajor)
	for _, c := range []struct {
		step []int
		runs []int
	}{{nil, []int{2}}, {[]int{2}, nil}} {
		blocks, err := bc.Split([]int{0}, []int{12}, c.step)
		if err != nil || len(blocks) != 3 {
			t.Fatalf("Split on block-cyclic(2) array, step %v: %d blocks, %v; want 3", c.step, len(blocks), err)
		}
		for _, b := range blocks {
			if !EqualInts(b.Runs, c.runs) || (b.Runs == nil) != (c.runs == nil) {
				t.Fatalf("Split on block-cyclic(2) array, step %v: runs %v, want %v", c.step, b.Runs, c.runs)
			}
		}
	}
	if m.Regular() {
		t.Fatal("cyclic over 3 cells reported Regular")
	}
	one := metaForDist(t, []int{12}, []int{1}, []grid.Decomp{grid.CyclicDefault()}, []int{0, 0}, grid.RowMajor)
	if !one.Regular() {
		t.Fatal("cyclic over a 1-cell grid must be Regular")
	}
	if _, err := one.OwnerBlocks([]int{2}, []int{9}); err != nil {
		t.Fatalf("OwnerBlocks on 1-cell cyclic: %v", err)
	}
}
