// Package grid implements the block-decomposition and processor-grid
// arithmetic of §3.2.1 of the paper: computing processor-grid dimensions
// from decomposition specifications (block, block(N), *), local-section
// dimensions, row-major/column-major flattening, and the bijection between
// global indices and {processor-grid coordinate, local indices} pairs.
//
// All functions here are pure; they are the single source of truth for
// index mapping used by the array manager and by distributed calls.
package grid

import (
	"errors"
	"fmt"
)

// Indexing selects row-major (C-style) or column-major (Fortran-style)
// linearisation of multidimensional indices. The paper lets the user choose
// per array (§3.2.1.3); the choice applies to both the array and its
// processor grid.
type Indexing uint8

const (
	// RowMajor is C-style indexing: the last dimension varies fastest.
	RowMajor Indexing = iota
	// ColMajor is Fortran-style indexing: the first dimension varies
	// fastest.
	ColMajor
)

func (ix Indexing) String() string {
	if ix == RowMajor {
		return "row"
	}
	return "column"
}

// ParseIndexing accepts the paper's spellings: "row" or "C" for row-major,
// "column" or "Fortran" for column-major.
func ParseIndexing(s string) (Indexing, error) {
	switch s {
	case "row", "C", "c":
		return RowMajor, nil
	case "column", "col", "Fortran", "fortran":
		return ColMajor, nil
	default:
		return RowMajor, fmt.Errorf("grid: unknown indexing type %q", s)
	}
}

// DecompKind is the decomposition option for one array dimension.
type DecompKind uint8

const (
	// Block lets the corresponding processor-grid dimension assume its
	// default value (the paper's "block").
	Block DecompKind = iota
	// BlockN fixes the corresponding processor-grid dimension to N
	// (the paper's "block(N)").
	BlockN
	// Star specifies that the array is not decomposed along this dimension
	// (processor-grid dimension 1; the paper's "*").
	Star
	// Cyclic deals single elements round-robin over the grid dimension
	// ("cyclic"; "cyclic(N)" fixes the grid dimension to N). It goes
	// beyond the paper's prototype, which supports only block layouts.
	Cyclic
	// BlockCyclic deals blocks of a given width round-robin
	// ("block_cyclic(B)"; "block_cyclic(B,N)" fixes the grid dimension).
	BlockCyclic
)

// Decomp is a per-dimension decomposition specification.
type Decomp struct {
	Kind DecompKind
	N    int // grid-dimension constraint; 0 means unspecified (default)
	B    int // cycle block width, used only when Kind == BlockCyclic
}

// BlockDefault returns the "block" specification.
func BlockDefault() Decomp { return Decomp{Kind: Block} }

// BlockOf returns the "block(n)" specification.
func BlockOf(n int) Decomp { return Decomp{Kind: BlockN, N: n} }

// NoDecomp returns the "*" specification.
func NoDecomp() Decomp { return Decomp{Kind: Star} }

// CyclicDefault returns the "cyclic" specification (default grid
// dimension).
func CyclicDefault() Decomp { return Decomp{Kind: Cyclic} }

// CyclicOf returns the "cyclic(n)" specification (grid dimension fixed to
// n).
func CyclicOf(n int) Decomp { return Decomp{Kind: Cyclic, N: n} }

// BlockCyclicOf returns the "block_cyclic(b)" specification: width-b
// blocks dealt round-robin, default grid dimension.
func BlockCyclicOf(b int) Decomp { return Decomp{Kind: BlockCyclic, B: b} }

// BlockCyclicOfN returns the "block_cyclic(b, n)" specification with the
// grid dimension fixed to n.
func BlockCyclicOfN(b, n int) Decomp { return Decomp{Kind: BlockCyclic, B: b, N: n} }

func (d Decomp) String() string {
	switch d.Kind {
	case Block:
		return "block"
	case BlockN:
		return fmt.Sprintf("block(%d)", d.N)
	case Star:
		return "*"
	case Cyclic:
		if d.N > 0 {
			return fmt.Sprintf("cyclic(%d)", d.N)
		}
		return "cyclic"
	case BlockCyclic:
		if d.N > 0 {
			return fmt.Sprintf("block_cyclic(%d,%d)", d.B, d.N)
		}
		return fmt.Sprintf("block_cyclic(%d)", d.B)
	default:
		return "?"
	}
}

// ErrBadDecomp reports an invalid decomposition request.
var ErrBadDecomp = errors.New("grid: invalid decomposition")

// IntRoot returns the largest r >= 1 with r^n <= x, for x >= 1, n >= 1.
func IntRoot(x, n int) int {
	if x < 1 || n < 1 {
		return 0
	}
	if n == 1 {
		return x
	}
	r := 1
	for pow(r+1, n) <= x {
		r++
	}
	return r
}

func pow(b, e int) int {
	p := 1
	for i := 0; i < e; i++ {
		if b != 0 && p > (1<<62)/b {
			return 1 << 62 // saturate; only used for comparisons
		}
		p *= b
	}
	return p
}

// GridDims computes the processor-grid dimensions for an N-dimensional
// array distributed over p processors with the given per-dimension
// specifications, following §3.2.1.2 exactly:
//
//   - by default all dimensions are P^(1/N) (integer root);
//   - block(N) fixes a dimension to N; * fixes a dimension to 1;
//   - with M specified dimensions of product Q, each unspecified dimension
//     becomes floor((P/Q)^(1/(N-M)));
//   - the product of the grid dimensions must be >= 1 and <= p.
func GridDims(p int, specs []Decomp) ([]int, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: %d processors", ErrBadDecomp, p)
	}
	n := len(specs)
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional decomposition", ErrBadDecomp)
	}
	dims := make([]int, n)
	q := 1
	unspecified := 0
	for i, s := range specs {
		switch s.Kind {
		case Block:
			dims[i] = 0 // filled below
			unspecified++
		case BlockN:
			if s.N < 1 {
				return nil, fmt.Errorf("%w: block(%d)", ErrBadDecomp, s.N)
			}
			dims[i] = s.N
			q *= s.N
		case Star:
			dims[i] = 1
			q *= 1
		case Cyclic, BlockCyclic:
			// Cyclic layouts size their grid dimension exactly like block:
			// default (unspecified) or fixed to N. Block-cyclic additionally
			// needs a positive cycle width.
			if s.Kind == BlockCyclic && s.B < 1 {
				return nil, fmt.Errorf("%w: block_cyclic(%d)", ErrBadDecomp, s.B)
			}
			if s.N < 0 {
				return nil, fmt.Errorf("%w: %s", ErrBadDecomp, s)
			}
			if s.N == 0 {
				dims[i] = 0
				unspecified++
			} else {
				dims[i] = s.N
				q *= s.N
			}
		default:
			return nil, fmt.Errorf("%w: unknown kind %d", ErrBadDecomp, s.Kind)
		}
	}
	if q > p {
		return nil, fmt.Errorf("%w: specified grid dimensions use %d processors, only %d available", ErrBadDecomp, q, p)
	}
	if unspecified > 0 {
		r := IntRoot(p/q, unspecified)
		if r < 1 {
			return nil, fmt.Errorf("%w: no processors left for unspecified dimensions", ErrBadDecomp)
		}
		for i := range dims {
			if dims[i] == 0 {
				dims[i] = r
			}
		}
	}
	return dims, nil
}

// Size returns the product of dims (the number of elements, or of grid
// cells).
func Size(dims []int) int {
	s := 1
	for _, d := range dims {
		s *= d
	}
	return s
}

// LocalDims returns the dimensions of one local section of an exactly
// divisible block decomposition: dims[i]/grid[i] per dimension, with an
// error when a grid dimension does not divide its array dimension — the
// restriction of the paper's prototype (§3.2.1.1). The array manager no
// longer carries that restriction: it sizes sections with StorageDims,
// which handles uneven trailing blocks and cyclic layouts. LocalDims
// remains the helper for the block-exact arithmetic below (GlobalToLocal,
// CellRect, OwnerSlot).
func LocalDims(dims, gridDims []int) ([]int, error) {
	if len(dims) != len(gridDims) {
		return nil, fmt.Errorf("%w: %d array dims vs %d grid dims", ErrBadDecomp, len(dims), len(gridDims))
	}
	out := make([]int, len(dims))
	for i := range dims {
		if gridDims[i] < 1 || dims[i] < 1 {
			return nil, fmt.Errorf("%w: dim %d: array %d, grid %d", ErrBadDecomp, i, dims[i], gridDims[i])
		}
		if dims[i]%gridDims[i] != 0 {
			return nil, fmt.Errorf("%w: grid dimension %d (=%d) does not divide array dimension (=%d)", ErrBadDecomp, i, gridDims[i], dims[i])
		}
		out[i] = dims[i] / gridDims[i]
	}
	return out, nil
}

// ErrBadIndex reports an out-of-range or malformed index tuple.
var ErrBadIndex = errors.New("grid: index out of range")

// CheckIndex validates idx against dims.
func CheckIndex(idx, dims []int) error {
	if len(idx) != len(dims) {
		return fmt.Errorf("%w: %d indices for %d dimensions", ErrBadIndex, len(idx), len(dims))
	}
	for i := range idx {
		if idx[i] < 0 || idx[i] >= dims[i] {
			return fmt.Errorf("%w: index %d = %d, dimension size %d", ErrBadIndex, i, idx[i], dims[i])
		}
	}
	return nil
}

// Flatten maps a multidimensional index to a linear offset under the given
// indexing order.
func Flatten(idx, dims []int, ix Indexing) (int, error) {
	if err := CheckIndex(idx, dims); err != nil {
		return 0, err
	}
	lin := 0
	if ix == RowMajor {
		for i := 0; i < len(dims); i++ {
			lin = lin*dims[i] + idx[i]
		}
	} else {
		for i := len(dims) - 1; i >= 0; i-- {
			lin = lin*dims[i] + idx[i]
		}
	}
	return lin, nil
}

// Unflatten is the inverse of Flatten. lin must be in [0, Size(dims)).
func Unflatten(lin int, dims []int, ix Indexing) ([]int, error) {
	if lin < 0 || lin >= Size(dims) {
		return nil, fmt.Errorf("%w: linear index %d, size %d", ErrBadIndex, lin, Size(dims))
	}
	idx := make([]int, len(dims))
	if ix == RowMajor {
		for i := len(dims) - 1; i >= 0; i-- {
			idx[i] = lin % dims[i]
			lin /= dims[i]
		}
	} else {
		for i := 0; i < len(dims); i++ {
			idx[i] = lin % dims[i]
			lin /= dims[i]
		}
	}
	return idx, nil
}

// GlobalToLocal maps a global index tuple to the processor-grid coordinate
// owning it and the index tuple within that local section (§3.2.1.1: each
// N-tuple of global indices corresponds to exactly one
// {processor-reference-tuple, local-indices-tuple} pair).
func GlobalToLocal(gidx, dims, gridDims []int) (gridCoord, lidx []int, err error) {
	if err := CheckIndex(gidx, dims); err != nil {
		return nil, nil, err
	}
	local, err := LocalDims(dims, gridDims)
	if err != nil {
		return nil, nil, err
	}
	gridCoord = make([]int, len(dims))
	lidx = make([]int, len(dims))
	for i := range dims {
		gridCoord[i] = gidx[i] / local[i]
		lidx[i] = gidx[i] % local[i]
	}
	return gridCoord, lidx, nil
}

// LocalToGlobal is the inverse of GlobalToLocal.
func LocalToGlobal(gridCoord, lidx, dims, gridDims []int) ([]int, error) {
	local, err := LocalDims(dims, gridDims)
	if err != nil {
		return nil, err
	}
	if err := CheckIndex(gridCoord, gridDims); err != nil {
		return nil, fmt.Errorf("grid coordinate: %w", err)
	}
	if err := CheckIndex(lidx, local); err != nil {
		return nil, fmt.Errorf("local index: %w", err)
	}
	gidx := make([]int, len(dims))
	for i := range dims {
		gidx[i] = gridCoord[i]*local[i] + lidx[i]
	}
	return gidx, nil
}

// ProcSlot maps a processor-grid coordinate to its slot in the
// 1-dimensional processor array the user supplied, using the array's
// indexing order (§3.2.1.4: "the mapping from N-dimensional processor grid
// into 1-dimensional array [is] either row-major or column-major depending
// on the type of indexing the user selects").
func ProcSlot(gridCoord, gridDims []int, ix Indexing) (int, error) {
	return Flatten(gridCoord, gridDims, ix)
}

// --- rectangle arithmetic (the bulk data plane) ---
//
// A rectangle is a half-open box [lo, hi) of global or local indices: it
// contains every index tuple idx with lo[i] <= idx[i] < hi[i]. Rectangles
// are the transfer unit of the bulk data plane: the array manager splits a
// global rectangle into the sub-rectangles owned by each local section and
// moves each sub-rectangle in a single message.

// ErrBadRect reports a malformed or out-of-range rectangle.
var ErrBadRect = errors.New("grid: invalid rectangle")

// CheckRect validates the half-open rectangle [lo, hi) against dims: the
// three slices must have equal length and 0 <= lo[i] < hi[i] <= dims[i] in
// every dimension (empty rectangles are rejected).
func CheckRect(lo, hi, dims []int) error {
	if len(lo) != len(dims) || len(hi) != len(dims) {
		return fmt.Errorf("%w: bounds of length %d/%d for %d dimensions", ErrBadRect, len(lo), len(hi), len(dims))
	}
	for i := range dims {
		if lo[i] < 0 || lo[i] >= hi[i] || hi[i] > dims[i] {
			return fmt.Errorf("%w: dimension %d: [%d,%d) within size %d", ErrBadRect, i, lo[i], hi[i], dims[i])
		}
	}
	return nil
}

// RectDims returns the edge lengths hi[i]-lo[i] of the rectangle.
func RectDims(lo, hi []int) []int {
	out := make([]int, len(lo))
	for i := range lo {
		out[i] = hi[i] - lo[i]
	}
	return out
}

// RectSize returns the number of index tuples in [lo, hi).
func RectSize(lo, hi []int) int {
	s := 1
	for i := range lo {
		s *= hi[i] - lo[i]
	}
	return s
}

// IntersectRect intersects the rectangles [alo, ahi) and [blo, bhi); ok
// reports whether the intersection is non-empty.
func IntersectRect(alo, ahi, blo, bhi []int) (lo, hi []int, ok bool) {
	lo = make([]int, len(alo))
	hi = make([]int, len(alo))
	for i := range alo {
		lo[i] = max(alo[i], blo[i])
		hi[i] = min(ahi[i], bhi[i])
		if lo[i] >= hi[i] {
			return nil, nil, false
		}
	}
	return lo, hi, true
}

// CellRect returns the global region [lo, hi) owned by the local section at
// processor-grid coordinate coord: the blocks of the §3.2.1.1 block
// decomposition, expressed as rectangles.
func CellRect(coord, dims, gridDims []int) (lo, hi []int, err error) {
	local, err := LocalDims(dims, gridDims)
	if err != nil {
		return nil, nil, err
	}
	if err := CheckIndex(coord, gridDims); err != nil {
		return nil, nil, fmt.Errorf("grid coordinate: %w", err)
	}
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	for i := range dims {
		lo[i] = coord[i] * local[i]
		hi[i] = lo[i] + local[i]
	}
	return lo, hi, nil
}

// ForEachRect enumerates the index tuples of [lo, hi) in row-major order
// (last dimension fastest), calling f with each tuple and its position k in
// that order — the canonical linearization of dense block buffers. The
// tuple is reused between calls; f must not retain it. An empty rectangle
// (hi[i] <= lo[i] in some dimension) is visited zero times; a
// zero-dimensional rectangle contains exactly one (empty) tuple.
func ForEachRect(lo, hi []int, f func(idx []int, k int) error) error {
	n := len(lo)
	for i := range lo {
		if hi[i] <= lo[i] {
			return nil
		}
	}
	idx := append([]int(nil), lo...)
	for k := 0; ; k++ {
		if err := f(idx, k); err != nil {
			return err
		}
		i := n - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < hi[i] {
				break
			}
			idx[i] = lo[i]
		}
		if i < 0 {
			return nil
		}
	}
}

// --- strided rectangles (the sub-sampled bulk data plane) ---
//
// A strided rectangle is the lattice of index tuples {lo + k*step | k >= 0}
// within the half-open box [lo, hi): every index idx with
// lo[i] <= idx[i] < hi[i] and (idx[i]-lo[i]) divisible by step[i]. step = 1
// in every dimension recovers the dense rectangle. Strided rectangles are
// the transfer unit for regular sub-sampled access (every k-th row/column:
// animation down-sampling, multigrid restriction); like dense rectangles
// they split by owning section into one message per owner. A nil step is
// the dense rectangle: the functions below treat it as 1 in every
// dimension.

// StepAt returns step[i], or 1 when step is nil (dense).
func StepAt(step []int, i int) int {
	if step == nil {
		return 1
	}
	return step[i]
}

// CheckStridedRect validates the strided rectangle (lo, hi, step) against
// dims: the bounds must satisfy CheckRect and every step must be >= 1.
func CheckStridedRect(lo, hi, step, dims []int) error {
	if err := CheckRect(lo, hi, dims); err != nil || step == nil {
		return err
	}
	if len(step) != len(dims) {
		return fmt.Errorf("%w: %d steps for %d dimensions", ErrBadRect, len(step), len(dims))
	}
	for i, s := range step {
		if s < 1 {
			return fmt.Errorf("%w: dimension %d: step %d (want >= 1)", ErrBadRect, i, s)
		}
	}
	return nil
}

// StridedRectDims returns the per-dimension lattice counts
// ceil((hi[i]-lo[i]) / step[i]): the shape of the dense buffer a strided
// rectangle packs into.
func StridedRectDims(lo, hi, step []int) []int {
	out := make([]int, len(lo))
	for i := range lo {
		st := StepAt(step, i)
		out[i] = (hi[i] - lo[i] + st - 1) / st
	}
	return out
}

// StridedRectSize returns the number of lattice points of (lo, hi, step).
// It allocates nothing, so owner-side service routines may call it per
// request.
func StridedRectSize(lo, hi, step []int) int {
	s := 1
	for i := range lo {
		st := StepAt(step, i)
		s *= (hi[i] - lo[i] + st - 1) / st
	}
	return s
}

// ForEachStridedRect enumerates the lattice points of (lo, hi, step) in
// row-major order (last dimension fastest), calling f with each tuple and
// its position k in that order — the canonical linearization of packed
// strided buffers, matching Flatten(…, StridedRectDims, RowMajor) of the
// per-dimension lattice coordinates. The tuple is reused between calls; f
// must not retain it. An empty rectangle is visited zero times; a
// zero-dimensional one exactly once.
func ForEachStridedRect(lo, hi, step []int, f func(idx []int, k int) error) error {
	n := len(lo)
	for i := range lo {
		if hi[i] <= lo[i] {
			return nil
		}
	}
	idx := append([]int(nil), lo...)
	for k := 0; ; k++ {
		if err := f(idx, k); err != nil {
			return err
		}
		i := n - 1
		for ; i >= 0; i-- {
			idx[i] += StepAt(step, i)
			if idx[i] < hi[i] {
				break
			}
			idx[i] = lo[i]
		}
		if i < 0 {
			return nil
		}
	}
}

// Strides returns the per-dimension storage strides of a dims-shaped box
// under the given indexing order (stride 1 on the fastest-varying
// dimension).
func Strides(dims []int, ix Indexing) []int {
	out := make([]int, len(dims))
	if ix == RowMajor {
		s := 1
		for i := len(dims) - 1; i >= 0; i-- {
			out[i] = s
			s *= dims[i]
		}
	} else {
		s := 1
		for i := 0; i < len(dims); i++ {
			out[i] = s
			s *= dims[i]
		}
	}
	return out
}

// OwnerSlot composes GlobalToLocal and ProcSlot: it returns the slot (index
// into the processor array) owning gidx and the flattened offset of the
// element within the interior of the local section.
func OwnerSlot(gidx, dims, gridDims []int, ix Indexing) (slot, localOff int, err error) {
	coord, lidx, err := GlobalToLocal(gidx, dims, gridDims)
	if err != nil {
		return 0, 0, err
	}
	slot, err = ProcSlot(coord, gridDims, ix)
	if err != nil {
		return 0, 0, err
	}
	local, err := LocalDims(dims, gridDims)
	if err != nil {
		return 0, 0, err
	}
	localOff, err = Flatten(lidx, local, ix)
	if err != nil {
		return 0, 0, err
	}
	return slot, localOff, nil
}
