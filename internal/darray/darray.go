// Package darray defines the representation of distributed arrays
// (§3.2.1, §5.1.3 of the paper): global metadata, local sections, and
// border (overlap-area) bookkeeping.
//
// A distributed N-dimensional array is partitioned into N-dimensional
// contiguous subarrays called local sections, one per cell of a processor
// grid. Each local section is a flat piece of contiguous storage; it may be
// surrounded by borders used internally by data-parallel notations (the
// paper supports Fortran D's overlap areas this way). Programs in the
// task-parallel notation can access only the interior (non-border)
// elements; border locations are accessible only to the called
// data-parallel program.
package darray

import (
	"errors"
	"fmt"

	"repro/internal/grid"
)

// ElemType is the element type of a distributed array. The prototype (and
// this reproduction) supports the paper's two types, int and double.
type ElemType uint8

const (
	// Double is the paper's "double" element type.
	Double ElemType = iota
	// Int is the paper's "int" element type.
	Int
)

func (t ElemType) String() string {
	if t == Int {
		return "int"
	}
	return "double"
}

// ParseElemType accepts the paper's spellings "int" and "double".
func ParseElemType(s string) (ElemType, error) {
	switch s {
	case "int":
		return Int, nil
	case "double":
		return Double, nil
	default:
		return Double, fmt.Errorf("darray: unknown element type %q (want \"int\" or \"double\")", s)
	}
}

// ID is the globally unique identifier of a distributed array: "a tuple of
// integers (the processor number on which the original array-creation
// request was made, plus an integer that distinguishes this array from
// others created on the same processor)" (§4.1.3). It is analogous to a
// file pointer in C.
type ID struct {
	Proc int
	Seq  int
}

func (id ID) String() string { return fmt.Sprintf("{%d,%d}", id.Proc, id.Seq) }

// Meta is the internal representation of a distributed array (§5.1.3's
// array-representation tuple). The representation deliberately stores
// derivable quantities (local dimensions etc.): "we choose to compute the
// information once and store it rather than computing it repeatedly".
//
// LocalDims is the uniform per-cell storage extent (grid.Dist.Storage per
// dimension): every section is allocated with that shape, and with uneven
// or cyclic distributions a cell may own fewer elements than its storage
// provides (LocalDimsOf reports the actual counts). For exactly divisible
// block arrays — everything the paper's prototype supports — storage and
// ownership coincide.
type Meta struct {
	ID            ID
	Type          ElemType
	Dims          []int       // global array dimensions
	Procs         []int       // processor numbers over which the array is distributed
	GridDims      []int       // processor-grid dimensions
	Dists         []grid.Dist // per-dimension distributions; nil means pure block
	LocalDims     []int       // local-section storage dimensions, excluding borders
	Borders       []int       // length 2*N: leading/trailing border per dimension
	LocalDimsPlus []int       // local-section dimensions including borders
	Indexing      grid.Indexing
	GridIndexing  grid.Indexing
	// Replicas is the number of buddy copies kept of every local section
	// (0: none). With Replicas = k, the section at grid slot s is mirrored
	// onto the owners of the k grid slots following s (BuddyOwner), so any
	// k fail-stop losses among distinct buddy groups leave a full copy.
	Replicas int
	// Epoch counts ownership promotions: it starts at 0 and is bumped each
	// time a dead primary's slot is re-pointed at a surviving buddy
	// (Procs[slot] rewritten). Requests carry the coordinator's epoch so a
	// holder with stale metadata can reject nothing — promotion only ever
	// moves slots toward live processors — but stale update_meta broadcasts
	// (an older epoch arriving after a newer one) are ignored.
	Epoch int
	// Origins is the creation-time processor assignment, preserved across
	// promotions so buddy placement stays stable however many slots have
	// been re-pointed. nil means Procs (no promotion has happened and the
	// array was created without replicas).
	Origins []int
}

// NDims returns the number of dimensions.
func (m *Meta) NDims() int { return len(m.Dims) }

// GridSize returns the number of local sections (grid cells).
func (m *Meta) GridSize() int { return grid.Size(m.GridDims) }

// LocalInteriorSize returns the element count of a local section's
// interior.
func (m *Meta) LocalInteriorSize() int { return grid.Size(m.LocalDims) }

// LocalStorageSize returns the element count of a local section including
// borders.
func (m *Meta) LocalStorageSize() int { return grid.Size(m.LocalDimsPlus) }

// SectionProcs returns the processor numbers that actually hold local
// sections: the first GridSize entries of Procs (a grid may use fewer
// processors than were supplied, since the product of grid dimensions need
// only be <= P).
func (m *Meta) SectionProcs() []int { return m.Procs[:m.GridSize()] }

// HoldsSection reports whether processor proc owns a local section of the
// array, and if so its slot in the processor array.
func (m *Meta) HoldsSection(proc int) (slot int, ok bool) {
	for i, p := range m.SectionProcs() {
		if p == proc {
			return i, true
		}
	}
	return 0, false
}

// Clone returns a deep copy of the metadata.
func (m *Meta) Clone() *Meta {
	c := *m
	c.Dims = append([]int(nil), m.Dims...)
	c.Procs = append([]int(nil), m.Procs...)
	c.GridDims = append([]int(nil), m.GridDims...)
	if m.Dists != nil {
		c.Dists = append([]grid.Dist(nil), m.Dists...)
	}
	c.LocalDims = append([]int(nil), m.LocalDims...)
	c.Borders = append([]int(nil), m.Borders...)
	c.LocalDimsPlus = append([]int(nil), m.LocalDimsPlus...)
	if m.Origins != nil {
		c.Origins = append([]int(nil), m.Origins...)
	}
	return &c
}

// OriginProcs returns the creation-time owner of every grid slot: Origins
// when promotions (or replica creation) have materialized it, Procs
// otherwise.
func (m *Meta) OriginProcs() []int {
	if m.Origins != nil {
		return m.Origins[:m.GridSize()]
	}
	return m.SectionProcs()
}

// BuddyOwner returns the processor holding the j-th buddy copy (1 <= j <=
// Replicas) of the section at the given grid slot: the creation-time owner
// of the j-th following slot, wrapping around the grid. Buddy placement is
// computed from OriginProcs, not the current Procs, so it is stable across
// promotions — a promoted slot keeps mirroring to the same surviving
// buddies.
func (m *Meta) BuddyOwner(slot, j int) int {
	origins := m.OriginProcs()
	return origins[(slot+j)%len(origins)]
}

// Dist returns dimension i's distribution. Metadata predating the
// distribution layer (nil Dists) is pure block with the storage width.
func (m *Meta) Dist(i int) grid.Dist {
	if m.Dists == nil {
		return grid.Dist{Kind: grid.DistBlock, B: m.LocalDims[i]}
	}
	return m.Dists[i]
}

// Regular reports whether every dimension leaves each cell one contiguous
// run of global indices — block in every dimension, or cyclic only over
// 1-cell grid dimensions — so that the rectangle-based owner split
// (OwnerBlocks, LocalRect's block case) applies.
func (m *Meta) Regular() bool {
	if m.Dists == nil {
		return true
	}
	return grid.Regular(m.GridDims, m.Dists)
}

// ResolvedDists returns the per-dimension distributions as a fresh slice,
// materializing the block defaults of pre-distribution metadata.
func (m *Meta) ResolvedDists() []grid.Dist {
	out := make([]grid.Dist, m.NDims())
	for i := range out {
		out[i] = m.Dist(i)
	}
	return out
}

// dimOwner resolves one dimension: the grid cell owning global index g and
// the index within that cell's local storage. It allocates nothing — this
// is the per-dimension kernel under ResolveIndex, Owner and LocalRect,
// deferring to grid.Dist.Owner (the fuzzed single source of the
// arithmetic) on cyclic dimensions.
func (m *Meta) dimOwner(i, g int) (cell, local int) {
	if m.Dists != nil && m.Dists[i].Kind != grid.DistBlock && m.GridDims[i] > 1 {
		return m.Dists[i].Owner(g, m.GridDims[i])
	}
	// Block (including uneven trailing blocks, where LocalDims[i] is the
	// ceil width) and any distribution over a 1-cell grid dimension, where
	// local storage order equals global order.
	b := m.LocalDims[i]
	return g / b, g % b
}

// LocalDimsOf returns the actual interior extent, per dimension, of the
// section at the given grid slot. With uneven or cyclic distributions this
// may be smaller than the uniform LocalDims storage shape (possibly zero
// in a dimension); data-parallel programs iterating their section should
// use it rather than LocalDims when the array may be unevenly distributed.
func (m *Meta) LocalDimsOf(slot int) ([]int, error) {
	coord, err := grid.Unflatten(slot, m.GridDims, m.GridIndexing)
	if err != nil {
		return nil, err
	}
	out := make([]int, m.NDims())
	for i := range out {
		out[i] = m.Dist(i).Count(m.Dims[i], m.GridDims[i], coord[i])
	}
	return out, nil
}

// ErrBadBorders reports malformed border specifications.
var ErrBadBorders = errors.New("darray: invalid borders")

// CheckBorders validates a border array for an ndims-dimensional array:
// length 2*ndims, entries >= 0. Elements 2i and 2i+1 specify the border on
// either side of dimension i (§4.2.1).
func CheckBorders(borders []int, ndims int) error {
	if len(borders) != 2*ndims {
		return fmt.Errorf("%w: %d entries for %d dimensions (want %d)", ErrBadBorders, len(borders), ndims, 2*ndims)
	}
	for i, b := range borders {
		if b < 0 {
			return fmt.Errorf("%w: negative border %d at position %d", ErrBadBorders, b, i)
		}
	}
	return nil
}

// DimsPlus returns localDims widened by the borders.
func DimsPlus(localDims, borders []int) ([]int, error) {
	if err := CheckBorders(borders, len(localDims)); err != nil {
		return nil, err
	}
	out := make([]int, len(localDims))
	for i := range localDims {
		out[i] = localDims[i] + borders[2*i] + borders[2*i+1]
	}
	return out, nil
}

// StorageOffset maps an interior local index tuple to its flat offset
// within the bordered local-section storage.
func StorageOffset(lidx, localDims, borders []int, ix grid.Indexing) (int, error) {
	if err := grid.CheckIndex(lidx, localDims); err != nil {
		return 0, err
	}
	plus, err := DimsPlus(localDims, borders)
	if err != nil {
		return 0, err
	}
	shifted := make([]int, len(lidx))
	for i := range lidx {
		shifted[i] = lidx[i] + borders[2*i]
	}
	return grid.Flatten(shifted, plus, ix)
}

// Owner resolves a global index tuple to the owning processor number and
// the flat storage offset of the element within that processor's (bordered)
// local section — the {processor-reference, local-indices} pair of
// §3.2.1.1, composed with border displacement and generalized from block
// to cyclic and block-cyclic distributions through the per-dimension
// distribution arithmetic (ResolveIndex).
func (m *Meta) Owner(gidx []int) (proc, storageOff int, err error) {
	strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
	slot, off, ok := m.ResolveIndex(gidx, strides)
	if !ok {
		if err := grid.CheckIndex(gidx, m.Dims); err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("darray: unresolvable index %v", gidx)
	}
	return m.Procs[slot], off, nil
}

// MaxFastDims bounds the dimensionality served allocation-free by the
// local fast path (LocalRect) and by the lattice walk under every section
// and buffer copy (MoveLattice, CopyRect, CopyInterior, and through
// MoveLattice the placement of every rectangle piece on its request
// buffer), whose scratch lives in fixed-size stack arrays. Beyond it the
// same walk takes its scratch from the heap.
const MaxFastDims = 8

// LocalRect reports whether the global rectangle [lo, hi) lies entirely
// within the local section held by proc. If so it writes the rectangle's
// interior-local bounds into dstLo and dstHi (each of length NDims) and
// returns true. It performs no heap allocation, which makes it the
// ownership test of the zero-copy local fast path: a wholly-local block
// transfer can be serviced straight from section storage without touching
// the router. The rectangle must already be validated against m.Dims.
func (m *Meta) LocalRect(proc int, lo, hi, dstLo, dstHi []int) bool {
	n := m.NDims()
	if len(lo) != n || len(hi) != n || len(dstLo) != n || len(dstHi) != n {
		return false
	}
	slot, ok := m.HoldsSection(proc)
	if !ok {
		return false
	}
	// Unflatten slot into the grid coordinate dimension by dimension
	// (fastest-varying first under the grid indexing), checking containment
	// and translating to interior-local bounds as we go.
	lin := slot
	if m.GridIndexing == grid.RowMajor {
		for i := n - 1; i >= 0; i-- {
			if !m.localRectDim(i, &lin, lo, hi, dstLo, dstHi) {
				return false
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if !m.localRectDim(i, &lin, lo, hi, dstLo, dstHi) {
				return false
			}
		}
	}
	return true
}

// localRectDim handles one dimension of LocalRect: it peels this
// dimension's grid coordinate off lin and checks/translates the bounds.
// Block dimensions translate by the cell origin; cyclic dimensions accept
// a range only when it lies within one owned cycle block (where the
// global→local map is a unit-slope translation, so dense and strided
// copies remain valid on the translated bounds).
func (m *Meta) localRectDim(i int, lin *int, lo, hi, dstLo, dstHi []int) bool {
	c := *lin % m.GridDims[i]
	*lin /= m.GridDims[i]
	if m.Dists != nil && m.Dists[i].Kind != grid.DistBlock && m.GridDims[i] > 1 {
		// The range lies in one owned cycle block iff both endpoints
		// resolve to this cell with their local distance equal to the
		// global distance (the map is a unit-slope translation there).
		cLo, lLo := m.Dists[i].Owner(lo[i], m.GridDims[i])
		cHi, lHi := m.Dists[i].Owner(hi[i]-1, m.GridDims[i])
		if cLo != c || cHi != c || lHi-lLo != hi[i]-1-lo[i] {
			return false
		}
		dstLo[i] = lLo
		dstHi[i] = lHi + 1
		return true
	}
	cellLo := c * m.LocalDims[i]
	cellHi := cellLo + m.LocalDims[i]
	if cellHi > m.Dims[i] {
		cellHi = m.Dims[i] // uneven trailing block
	}
	if lo[i] < cellLo || hi[i] > cellHi {
		return false
	}
	dstLo[i] = lo[i] - cellLo
	dstHi[i] = hi[i] - cellLo
	return true
}

// OwnerBlock describes the piece of a global rectangle held by one local
// section: the owning processor, the sub-rectangle in global indices, and
// the same sub-rectangle translated to interior-local indices. The data
// plane splits rectangles with Split; OwnerBlocks stays as the plain
// block-only split, which the repo's owner-split probe (bench/probes.go)
// prices.
type OwnerBlock struct {
	Proc               int
	Slot               int // grid slot of the owning section
	GlobalLo, GlobalHi []int
	LocalLo, LocalHi   []int
}

// ErrIrregular reports a rectangle owner-split requested on an array whose
// distribution leaves cells non-contiguous holdings (a cyclic or
// block-cyclic dimension over more than one cell); Split splits those.
var ErrIrregular = errors.New("darray: rectangle owner-split requires contiguous (block) cells")

// cellRect writes the global region [cLo, cHi) owned by the block-regular
// cell at grid coordinate coord: blocks of the per-dimension storage
// width, with the trailing cell clamped to the array extent (uneven last
// block). Valid only for Regular metadata.
func (m *Meta) cellRect(coord, cLo, cHi []int) {
	for i := range coord {
		cLo[i] = coord[i] * m.LocalDims[i]
		cHi[i] = cLo[i] + m.LocalDims[i]
		if cHi[i] > m.Dims[i] {
			cHi[i] = m.Dims[i]
		}
	}
}

// OwnerBlocks splits the global rectangle [lo, hi) into the sub-rectangles
// owned by each local section, in slot order. Every index tuple of the
// rectangle appears in exactly one returned block; sections the rectangle
// does not touch are omitted. It requires a Regular distribution (each
// cell one contiguous run per dimension) and reports ErrIrregular
// otherwise.
func (m *Meta) OwnerBlocks(lo, hi []int) ([]OwnerBlock, error) {
	if err := grid.CheckRect(lo, hi, m.Dims); err != nil {
		return nil, err
	}
	if !m.Regular() {
		return nil, ErrIrregular
	}
	// Cell c owns [c*local, min((c+1)*local, dims)) per dimension, so only
	// the cells in [lo/local, (hi-1)/local] can intersect the rectangle;
	// enumerate just that sub-grid rather than every cell.
	local := m.LocalDims
	cellLo := make([]int, len(lo))
	cellHi := make([]int, len(lo))
	for i := range lo {
		cellLo[i] = lo[i] / local[i]
		cellHi[i] = (hi[i]-1)/local[i] + 1
	}
	cLo := make([]int, len(lo))
	cHi := make([]int, len(lo))
	var out []OwnerBlock
	err := grid.ForEachRect(cellLo, cellHi, func(coord []int, _ int) error {
		slot, err := grid.ProcSlot(coord, m.GridDims, m.GridIndexing)
		if err != nil {
			return err
		}
		m.cellRect(coord, cLo, cHi)
		subLo, subHi, ok := grid.IntersectRect(lo, hi, cLo, cHi)
		if !ok {
			return fmt.Errorf("darray: cell %v in range but disjoint from [%v,%v)", coord, lo, hi)
		}
		localLo := make([]int, len(lo))
		localHi := make([]int, len(lo))
		for i := range lo {
			localLo[i] = subLo[i] - cLo[i]
			localHi[i] = subHi[i] - cLo[i]
		}
		out = append(out, OwnerBlock{
			Proc: m.Procs[slot], Slot: slot,
			GlobalLo: subLo, GlobalHi: subHi,
			LocalLo: localLo, LocalHi: localHi,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OwnerIndexSet describes the elements of a scattered-index vector held by
// one local section: the owning processor, the flat storage offsets of the
// elements within that processor's bordered section storage, and the
// positions of those elements within the request vector. It is the unit of
// the indexed gather/scatter plane — each OwnerIndexSet moves in one
// message, the way each OwnerBlock does on the bulk plane.
type OwnerIndexSet struct {
	Proc int
	Slot int   // grid slot of the owning section
	Offs []int // storage offsets, border-displaced, in the section's indexing
	Pos  []int // positions within the request vector, in request order
}

// ResolveIndex maps one global index tuple to its owning slot and the
// border-displaced flat storage offset within that slot's section — the
// single source of the per-index ownership arithmetic, composed from the
// per-dimension distribution kernel (dimOwner) so it covers block, cyclic
// and block-cyclic dimensions uniformly. strides must be the per-dimension
// storage strides of the bordered section
// (grid.Strides(m.LocalDimsPlus, m.Indexing)); the caller supplies them so
// resolving k indices costs no per-index allocation. ok is false when gidx
// has the wrong rank or is out of range.
func (m *Meta) ResolveIndex(gidx, strides []int) (slot, off int, ok bool) {
	n := m.NDims()
	if len(gidx) != n || len(strides) != n {
		return 0, 0, false
	}
	if m.GridIndexing == grid.RowMajor {
		for i := 0; i < n; i++ {
			if gidx[i] < 0 || gidx[i] >= m.Dims[i] {
				return 0, 0, false
			}
			cell, l := m.dimOwner(i, gidx[i])
			slot = slot*m.GridDims[i] + cell
			off += (l + m.Borders[2*i]) * strides[i]
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			if gidx[i] < 0 || gidx[i] >= m.Dims[i] {
				return 0, 0, false
			}
			cell, l := m.dimOwner(i, gidx[i])
			slot = slot*m.GridDims[i] + cell
			off += (l + m.Borders[2*i]) * strides[i]
		}
	}
	return slot, off, true
}

// OwnerIndices splits a vector of global index tuples by owning local
// section, sets ordered by first appearance in the request vector.
// Offsets within a set appear in request order, so
// applying a set's writes in order preserves the request's write order for
// repeated indices (last writer wins). Every element of indices appears in
// exactly one set; an empty vector yields no sets.
func (m *Meta) OwnerIndices(indices [][]int) ([]OwnerIndexSet, error) {
	if len(indices) == 0 {
		return nil, nil
	}
	strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
	bySlot := make(map[int]int) // slot -> index into sets
	var sets []OwnerIndexSet
	for pos, gidx := range indices {
		slot, off, ok := m.ResolveIndex(gidx, strides)
		if !ok {
			if err := grid.CheckIndex(gidx, m.Dims); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("darray: unresolvable index %v", gidx)
		}
		si, ok := bySlot[slot]
		if !ok {
			si = len(sets)
			bySlot[slot] = si
			sets = append(sets, OwnerIndexSet{Proc: m.Procs[slot], Slot: slot})
		}
		sets[si].Offs = append(sets[si].Offs, off)
		sets[si].Pos = append(sets[si].Pos, pos)
	}
	return sets, nil
}

// OwnerLattice splits the lattice points of the strided rectangle
// (lo, hi, step) — dense when step is nil — by owning local section, sets
// ordered by first appearance in packed row-major lattice order, each
// point resolved on its own: explicit storage offsets the way
// OwnerIndices gives them, with Pos holding each point's packed lattice
// position. The data plane splits rectangles in closed form with Split;
// this per-point split is the tests' oracle for it, and the repo's
// owner-split probe (bench/probes.go) prices it.
func (m *Meta) OwnerLattice(lo, hi, step []int) ([]OwnerIndexSet, error) {
	if err := grid.CheckStridedRect(lo, hi, step, m.Dims); err != nil {
		return nil, err
	}
	strides := grid.Strides(m.LocalDimsPlus, m.Indexing)
	bySlot := make(map[int]int) // slot -> index into sets
	var sets []OwnerIndexSet
	visit := func(idx []int, k int) error {
		slot, off, ok := m.ResolveIndex(idx, strides)
		if !ok {
			return fmt.Errorf("darray: unresolvable index %v", idx)
		}
		si, seen := bySlot[slot]
		if !seen {
			si = len(sets)
			bySlot[slot] = si
			sets = append(sets, OwnerIndexSet{Proc: m.Procs[slot], Slot: slot})
		}
		sets[si].Offs = append(sets[si].Offs, off)
		sets[si].Pos = append(sets[si].Pos, k)
		return nil
	}
	if err := grid.ForEachStridedRect(lo, hi, step, visit); err != nil {
		return nil, err
	}
	return sets, nil
}

// Section is the storage for one local section, including borders. Exactly
// one of F and I is non-nil, matching the element type. A Section plays the
// role of the paper's pseudo-definitional array: it is created by the array
// manager, handed to data-parallel programs as a mutable flat array, and
// invalidated when the distributed array is freed.
type Section struct {
	Type ElemType
	F    []float64
	I    []int64
}

// NewSection allocates zeroed storage for n elements of type t.
func NewSection(t ElemType, n int) *Section {
	s := &Section{Type: t}
	if t == Int {
		s.I = make([]int64, n)
	} else {
		s.F = make([]float64, n)
	}
	return s
}

// Len returns the number of elements, including borders.
func (s *Section) Len() int {
	if s.Type == Int {
		return len(s.I)
	}
	return len(s.F)
}

// GetFloat reads element off as a float64, converting for Int arrays.
func (s *Section) GetFloat(off int) float64 {
	if s.Type == Int {
		return float64(s.I[off])
	}
	return s.F[off]
}

// SetFloat writes element off from a float64, truncating for Int arrays.
func (s *Section) SetFloat(off int, v float64) {
	if s.Type == Int {
		s.I[off] = int64(v)
	} else {
		s.F[off] = v
	}
}

// ReadBlock copies the interior rectangle [lo, hi) (interior-local indices)
// of the section into a fresh dense buffer linearized row-major over the
// rectangle. localDims, borders and ix describe the section's interior
// shape, border widths and storage indexing; border locations themselves
// are never read.
func (s *Section) ReadBlock(lo, hi, localDims, borders []int, ix grid.Indexing) ([]float64, error) {
	if err := grid.CheckRect(lo, hi, localDims); err != nil {
		return nil, err
	}
	vals := make([]float64, grid.RectSize(lo, hi))
	if err := s.MoveLattice(true, vals, lo, hi, nil, nil, localDims, borders, ix); err != nil {
		return nil, err
	}
	return vals, nil
}

// ReadBlockInto copies the interior rectangle [lo, hi) into dst, which the
// caller supplies and owns; dst must hold exactly RectSize(lo, hi)
// elements and the section retains no reference to it. For rectangles of
// at most MaxFastDims dimensions the copy performs no heap allocation —
// this is the buffer-reuse read of the zero-copy local fast path.
func (s *Section) ReadBlockInto(dst []float64, lo, hi, localDims, borders []int, ix grid.Indexing) error {
	return s.MoveLattice(true, dst, lo, hi, nil, nil, localDims, borders, ix)
}

// WriteBlock copies vals — a dense buffer linearized row-major over the
// rectangle — into the interior rectangle [lo, hi) of the section.
func (s *Section) WriteBlock(vals []float64, lo, hi, localDims, borders []int, ix grid.Indexing) error {
	return s.MoveLattice(false, vals, lo, hi, nil, nil, localDims, borders, ix)
}

// GatherInto reads the elements at the given flat storage offsets into dst,
// which the caller supplies and owns; dst must hold exactly len(offs)
// elements. Offsets are bounds-checked against the section storage but are
// otherwise trusted — OwnerIndices computes them border-displaced from
// validated global indices. The copy performs no heap allocation, making it
// the owner-side service routine of the indexed gather plane.
func (s *Section) GatherInto(dst []float64, offs []int) error {
	if len(dst) != len(offs) {
		return fmt.Errorf("darray: buffer of %d elements for %d offsets", len(dst), len(offs))
	}
	n := s.Len()
	for _, off := range offs {
		if off < 0 || off >= n {
			return fmt.Errorf("darray: gather offset %d outside section of %d elements", off, n)
		}
	}
	if s.Type == Int {
		for i, off := range offs {
			dst[i] = float64(s.I[off])
		}
	} else {
		for i, off := range offs {
			dst[i] = s.F[off]
		}
	}
	return nil
}

// ScatterFrom writes vals[i] to storage offset offs[i], in order, so a
// repeated offset takes the value at its last occurrence (last writer
// wins). vals must hold exactly len(offs) elements; the copy performs no
// heap allocation.
func (s *Section) ScatterFrom(vals []float64, offs []int) error {
	if len(vals) != len(offs) {
		return fmt.Errorf("darray: %d values for %d offsets", len(vals), len(offs))
	}
	n := s.Len()
	for _, off := range offs {
		if off < 0 || off >= n {
			return fmt.Errorf("darray: scatter offset %d outside section of %d elements", off, n)
		}
	}
	if s.Type == Int {
		for i, off := range offs {
			s.I[off] = int64(vals[i])
		}
	} else {
		for i, off := range offs {
			s.F[off] = vals[i]
		}
	}
	return nil
}

// CopyInterior copies the interior (non-border) data of src into dst, where
// the two sections belong to local sections of the same interior dimensions
// but possibly different borders. It implements the data movement of the
// copy_local request used by verify_array (§5.1.1): reallocating local
// sections with new borders preserves interior data, while border contents
// are not preserved. Up to MaxFastDims dimensions it allocates nothing.
func CopyInterior(dst, src *Section, localDims, dstBorders, srcBorders []int, ix grid.Indexing) error {
	if dst.Type != src.Type {
		return fmt.Errorf("darray: copy between element types %v and %v", dst.Type, src.Type)
	}
	n := len(localDims)
	if err := CheckBorders(dstBorders, n); err != nil {
		return err
	}
	if err := CheckBorders(srcBorders, n); err != nil {
		return err
	}
	var stack [2 * MaxFastDims]int
	sc := scratch(stack[:], 2*n)
	dStr, sStr := sc[:n], sc[n:]
	walk(side{dst, layout(dStr, nil, nil, localDims, dstBorders, ix), dStr},
		side{src, layout(sStr, nil, nil, localDims, srcBorders, ix), sStr}, localDims)
	return nil
}

// NoBorders returns an all-zero border array for ndims dimensions,
// equivalent to the paper's Border_info = 0.
func NoBorders(ndims int) []int { return make([]int, 2*ndims) }

// EqualInts reports element-wise equality of two int slices.
func EqualInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
