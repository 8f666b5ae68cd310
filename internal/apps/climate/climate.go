// Package climate reproduces the paper's coupled-simulation problem class
// (§2.3.1, Fig 2.1): a climate simulation consisting of an ocean
// simulation and an atmosphere simulation, each a data-parallel program
// performing a time-stepped computation, exchanging boundary data at each
// time step through a task-parallel top level.
//
// Each simulation evolves a rows x cols field with a damped Jacobi
// diffusion step. The two fields are coupled: the ocean's surface (its
// "above" boundary) is the atmosphere's bottom edge row, and the
// atmosphere's bottom boundary is the ocean's top edge row. Each
// simulation is one resident distributed call on its own processor group,
// stepped once per time step, and the two steps execute concurrently.
// The boundary rows move between the two distributed arrays only through
// the task level, exactly the discipline Fig 3.4 demands: out of one
// simulation's step as a reduction, into the other's next step as a
// global constant.
package climate

import (
	"fmt"
	"math"

	"repro/internal/arraymgr"
	"repro/internal/channel"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dcall"
	"repro/internal/grid"
	"repro/internal/spmd"
)

// ProgDiffuse is the registered name of the data-parallel time-step
// program shared by both simulations.
const ProgDiffuse = "climate:diffuse"

// ProgDiffuseChan is the channel-coupled variant implementing the §7.2.1
// extension: the two simulations exchange boundary rows directly over
// channels defined by the task-parallel caller, instead of through the
// task level.
const ProgDiffuseChan = "climate:diffuse_chan"

// EdgesCombine is the registered name of the combiner that merges the
// copies' edge rows (ProgDiffuse's edges reduction).
const EdgesCombine = "climate:edges"

// edges merges two edge-row reductions, each a top row then a bottom
// row: the left operand (lower ranks, higher rows) keeps its top row and
// the right operand its bottom one, so up the rank-ordered tree the
// group's global top and bottom rows survive. It copies and computes
// nothing, so the rows stay bit-identical.
func edges(a, b []float64) []float64 {
	out := make([]float64, len(a))
	h := len(a) / 2
	copy(out[:h], a[:h])
	copy(out[h:], b[h:])
	return out
}

// RegisterPrograms registers the diffusion steps and the edges combiner
// with the machine.
//
// ProgDiffuse parameters: (rows, cols, alpha, above, below, local(field),
// edges). above and below are the global boundary rows (the other
// simulation's edge row); interior block boundaries are exchanged between
// the copies directly. edges is a ReduceNamed(2*cols, EdgesCombine, ...)
// reduction: each copy returns its first and last interior rows after
// the update, and the merge leaves the field's global top and bottom
// rows.
//
// ProgDiffuseChan parameters: (rows, cols, alpha, coupleAtTop, fixed,
// send, recv, local(field)). coupleAtTop selects which global edge is the
// coupling edge; the copy owning it sends its pre-update edge row on
// `send` and receives the partner simulation's edge row on `recv`; the
// opposite global edge uses the constant row `fixed`.
func RegisterPrograms(m *core.Machine) error {
	if err := m.RegisterWithBorders(ProgDiffuse, func(w *spmd.World, a *dcall.Args) {
		rows := a.Int(0)
		cols := a.Int(1)
		alpha := a.Float(2)
		above := a.Const(3).([]float64)
		below := a.Const(4).([]float64)
		field := a.Section(5)
		if err := diffuseStep(w, field, rows, cols, alpha, above, below, a.Reduction(6)); err != nil {
			panic(err)
		}
	}, borderFn(5)); err != nil {
		return err
	}
	if err := m.RegisterCombine(EdgesCombine, edges); err != nil {
		return err
	}
	return m.RegisterWithBorders(ProgDiffuseChan, func(w *spmd.World, a *dcall.Args) {
		rows := a.Int(0)
		cols := a.Int(1)
		alpha := a.Float(2)
		coupleAtTop := a.Const(3).(bool)
		fixed := a.Const(4).([]float64)
		send := a.Const(5).(*channel.Channel)
		recv := a.Const(6).(*channel.Channel)
		field := a.Section(7)
		if err := diffuseStepChan(w, field, rows, cols, alpha, coupleAtTop, fixed, send, recv); err != nil {
			panic(err)
		}
	}, borderFn(7))
}

// FieldBorders is the overlap-area shape both diffusion programs require
// of their field parameter: one halo row above and below, no side borders.
func FieldBorders() arraymgr.BorderSpec { return arraymgr.ExplicitBorders{1, 1, 0, 0} }

// borderFn is the programs' border callback (the paper's Program_
// routine): the field parameter — number 5 for ProgDiffuse, 7 for
// ProgDiffuseChan — carries FieldBorders; other parameters carry none.
// Registering it makes ForeignBordersOf and verify_array work for fields
// created without explicit borders.
func borderFn(fieldParm int) dcall.BorderFn {
	return func(parmNum, ndims int) ([]int, error) {
		b := make([]int, 2*ndims)
		if parmNum == fieldParm && ndims == 2 {
			b[0], b[1] = 1, 1
		}
		return b, nil
	}
}

// fieldHalo builds the HaloExchange description of a block-row field of l
// interior rows: a p x 1 grid with one halo row on either side.
func fieldHalo(sec *darray.Section, p, l, cols int) spmd.Halo {
	return spmd.Halo{
		Section:      sec,
		LocalDims:    []int{l, cols},
		Borders:      []int{1, 1, 0, 0},
		GridDims:     []int{p, 1},
		Indexing:     grid.RowMajor,
		GridIndexing: grid.RowMajor,
	}
}

// checkField validates the group/field shape and returns the interior rows
// per copy. The section's storage is (l+2) x cols: rows 0 and l+1 are the
// halo rows, interior row i lives at storage row i+1.
func checkField(w *spmd.World, sec *darray.Section, rows, cols int) (l int, err error) {
	p := w.Size()
	if rows%p != 0 {
		return 0, fmt.Errorf("climate: %d rows not divisible by %d copies", rows, p)
	}
	l = rows / p
	if sec.Len() < (l+2)*cols {
		return 0, fmt.Errorf("climate: local section %d < %d (did you create the array with FieldBorders?)",
			sec.Len(), (l+2)*cols)
	}
	return l, nil
}

// diffuseStep performs one damped Jacobi sweep on this copy's block of
// rows: the interior neighbours' edge rows arrive in the section's halo
// rows through HaloExchange, the physical edges take the supplied global
// boundary rows, and the update then reads only this copy's storage.
// The updated first and last interior rows are copied into out.
func diffuseStep(w *spmd.World, sec *darray.Section, rows, cols int, alpha float64, above, below, out []float64) error {
	l, err := checkField(w, sec, rows, cols)
	if err != nil {
		return err
	}
	if len(above) != cols || len(below) != cols || len(out) != 2*cols {
		return fmt.Errorf("climate: boundary rows must have %d columns", cols)
	}
	p, me, f := w.Size(), w.Rank(), sec.F
	if err := w.HaloExchange(fieldHalo(sec, p, l, cols)); err != nil {
		return err
	}
	if me == 0 {
		copy(f[0:cols], above)
	}
	if me == p-1 {
		copy(f[(l+1)*cols:(l+2)*cols], below)
	}
	jacobiUpdate(f, l, cols, alpha)
	copy(out[:cols], f[cols:2*cols])
	copy(out[cols:], f[l*cols:(l+1)*cols])
	return nil
}

// jacobiUpdate performs the damped Jacobi sweep in place on the bordered
// storage of l interior rows (halo rows already filled; reflecting side
// columns). It rolls down the block: before a row is overwritten its old
// values are copied to one scratch row, and the scratch row holding the
// old row above is kept from the row before, so the sweep needs two
// cols-long rows of scratch, not a copy of the block. Every cell
// evaluates the reference expression in the reference order,
// (1-alpha)*x + alpha*(0.25*(((up+down)+left)+right)), so the fields stay
// bit-identical to RunSequential.
func jacobiUpdate(f []float64, l, cols int, alpha float64) {
	buf := make([]float64, 2*cols)
	cur, spare := buf[:cols], buf[cols:]
	up := f[:cols] // the top halo row is never written
	for r := 1; r <= l; r++ {
		row := f[r*cols : (r+1)*cols]
		copy(cur, row)
		jacobiRow(row, up, cur, f[(r+1)*cols:(r+2)*cols], alpha)
		up, cur, spare = cur, spare, cur
	}
}

// jacobiRow writes one updated row from x, the row's old values, and the
// rows above and below it. The side columns reflect without a clamp in the
// loop: the first cell is its own left neighbour, which seeds the rolling
// (left, centre) pair, and the last cell, its own right neighbour, is
// peeled off the loop.
func jacobiRow(row, up, x, down []float64, alpha float64) {
	row, up, down = row[:len(x)], up[:len(x)], down[:len(x)]
	keep := 1 - alpha
	left, c := x[0], x[0]
	for j, right := range x[1:] {
		row[j] = keep*c + alpha*(0.25*(((up[j]+down[j])+left)+right))
		left, c = c, right
	}
	n := len(x) - 1
	row[n] = keep*c + alpha*(0.25*(((up[n]+down[n])+left)+c))
}

// diffuseStepChan is the §7.2.1 variant: the coupling edge row is
// exchanged directly with the partner simulation over channels; the send
// precedes the receive, so the two concurrently executing distributed
// calls never deadlock. The partner's row is received straight into the
// coupling-edge halo row.
func diffuseStepChan(w *spmd.World, sec *darray.Section, rows, cols int, alpha float64,
	coupleAtTop bool, fixed []float64, send, recv *channel.Channel) error {
	l, err := checkField(w, sec, rows, cols)
	if err != nil {
		return err
	}
	if len(fixed) != cols {
		return fmt.Errorf("climate: fixed boundary must have %d columns", cols)
	}
	p, me, f := w.Size(), w.Rank(), sec.F

	// The copy owning the coupling edge ships its pre-update interior edge
	// row before anything blocks (channel sends copy their payload).
	if coupleAtTop && me == 0 {
		if err := send.Send(f[cols : 2*cols]); err != nil {
			return err
		}
	}
	if !coupleAtTop && me == p-1 {
		if err := send.Send(f[l*cols : (l+1)*cols]); err != nil {
			return err
		}
	}

	// Interior halo exchange, as in the base program.
	if err := w.HaloExchange(fieldHalo(sec, p, l, cols)); err != nil {
		return err
	}

	// Physical edges: the coupling edge comes from the partner simulation
	// over the channel, the opposite edge is the fixed boundary row.
	if me == 0 {
		if coupleAtTop {
			r, ok := recv.Recv()
			if !ok {
				return fmt.Errorf("climate: coupling channel closed")
			}
			copy(f[0:cols], r)
		} else {
			copy(f[0:cols], fixed)
		}
	}
	if me == p-1 {
		if !coupleAtTop {
			r, ok := recv.Recv()
			if !ok {
				return fmt.Errorf("climate: coupling channel closed")
			}
			copy(f[(l+1)*cols:(l+2)*cols], r)
		} else {
			copy(f[(l+1)*cols:(l+2)*cols], fixed)
		}
	}

	jacobiUpdate(f, l, cols, alpha)
	return nil
}

// Config describes a coupled run.
type Config struct {
	Rows, Cols int
	Steps      int
	Alpha      float64
}

// Result carries the final fields (dense row-major copies read back
// through the global view).
type Result struct {
	Ocean      []float64
	Atmosphere []float64
}

// Run executes the coupled simulation on the machine: the ocean group is
// the first half of the processors, the atmosphere group the second half.
func Run(m *core.Machine, cfg Config) (Result, error) {
	p := m.P()
	if p < 2 || p%2 != 0 {
		return Result{}, fmt.Errorf("climate: need an even machine size, got %d", p)
	}
	half := p / 2
	oceanProcs := m.Procs(0, 1, half)
	atmosProcs := m.Procs(half, 1, half)
	if cfg.Rows%half != 0 {
		return Result{}, fmt.Errorf("climate: %d rows not divisible by group size %d", cfg.Rows, half)
	}

	spec := func(procs []int) core.ArraySpec {
		return core.ArraySpec{
			Dims:    []int{cfg.Rows, cfg.Cols},
			Procs:   procs,
			Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()}, // block rows
			Borders: FieldBorders(),
		}
	}
	ocean, err := m.NewArray(spec(oceanProcs))
	if err != nil {
		return Result{}, err
	}
	defer ocean.Free()
	atmos, err := m.NewArray(spec(atmosProcs))
	if err != nil {
		return Result{}, err
	}
	defer atmos.Free()

	// Initial conditions: warm ocean band, cold atmosphere gradient.
	if err := ocean.Fill(func(idx []int) float64 {
		return InitialOcean(idx[0], idx[1])
	}); err != nil {
		return Result{}, err
	}
	if err := atmos.Fill(func(idx []int) float64 {
		return InitialAtmosphere(idx[0], idx[1])
	}); err != nil {
		return Result{}, err
	}

	// The coupling rows are read once, one bulk transfer each (one
	// message to the row's owner). Every step returns the next ones as its
	// edges reduction, so a step is one step order down and one merged
	// tuple up per group, with no array reads and no spawns.
	readRow := func(a *core.Array, row int) ([]float64, error) {
		return a.ReadBlock([]int{row, 0}, []int{row + 1, cfg.Cols})
	}
	oceanTop, err := readRow(ocean, 0)
	if err != nil {
		return Result{}, err
	}
	atmosBottom, err := readRow(atmos, cfg.Rows-1)
	if err != nil {
		return Result{}, err
	}

	// The fixed boundary rows travel once, when the sessions open; the
	// coupling edge is each step's value.
	deep, strato := oceanDeepRow(cfg), atmosTopRow(cfg)
	params := func(above, below dcall.Param, field *core.Array) []dcall.Param {
		return []dcall.Param{dcall.Const(cfg.Rows), dcall.Const(cfg.Cols), dcall.Const(cfg.Alpha),
			above, below, field.Param(), dcall.ReduceNamed(2*cfg.Cols, EdgesCombine, nil)}
	}
	oceanRun, err := m.Open(oceanProcs, ProgDiffuse, params(
		dcall.StepConst(), // above the ocean: the atmosphere's bottom edge
		dcall.Const(deep), // below the ocean: fixed deep water
		ocean)...)
	if err != nil {
		return Result{}, err
	}
	defer oceanRun.Close()
	atmosRun, err := m.OpenOn(half, atmosProcs, ProgDiffuse, params(
		dcall.Const(strato), // above the atmosphere: fixed stratosphere
		dcall.StepConst(),   // below the atmosphere: the ocean's surface
		atmos)...)
	if err != nil {
		return Result{}, err
	}
	defer atmosRun.Close()

	for step := 0; step < cfg.Steps; step++ {
		// Exchange of boundary data through the task-parallel top level:
		// both time steps run concurrently, each with the other's edge.
		var oceanEdges, atmosEdges [][]float64
		var errO, errA error
		compose.Par(
			func() { oceanEdges, errO = oceanRun.Step(atmosBottom) },
			func() { atmosEdges, errA = atmosRun.Step(oceanTop) },
		)
		if errO != nil {
			return Result{}, fmt.Errorf("ocean step %d: %w", step, errO)
		}
		if errA != nil {
			return Result{}, fmt.Errorf("atmosphere step %d: %w", step, errA)
		}
		oceanTop, atmosBottom = oceanEdges[0][:cfg.Cols], atmosEdges[0][cfg.Cols:]
	}

	oSnap, err := ocean.Snapshot()
	if err != nil {
		return Result{}, err
	}
	aSnap, err := atmos.Snapshot()
	if err != nil {
		return Result{}, err
	}
	return Result{Ocean: oSnap, Atmosphere: aSnap}, nil
}

// RunChanneled executes the coupled simulation using the §7.2.1 extension:
// per-step boundary exchange happens directly between the two
// data-parallel programs over a channel pair created here, removing the
// task level's forwarding of the rows from every step. The numerical evolution is identical
// to Run and RunSequential.
func RunChanneled(m *core.Machine, cfg Config) (Result, error) {
	p := m.P()
	if p < 2 || p%2 != 0 {
		return Result{}, fmt.Errorf("climate: need an even machine size, got %d", p)
	}
	half := p / 2
	oceanProcs := m.Procs(0, 1, half)
	atmosProcs := m.Procs(half, 1, half)
	if cfg.Rows%half != 0 {
		return Result{}, fmt.Errorf("climate: %d rows not divisible by group size %d", cfg.Rows, half)
	}

	spec := func(procs []int) core.ArraySpec {
		return core.ArraySpec{
			Dims:    []int{cfg.Rows, cfg.Cols},
			Procs:   procs,
			Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
			Borders: FieldBorders(),
		}
	}
	ocean, err := m.NewArray(spec(oceanProcs))
	if err != nil {
		return Result{}, err
	}
	defer ocean.Free()
	atmos, err := m.NewArray(spec(atmosProcs))
	if err != nil {
		return Result{}, err
	}
	defer atmos.Free()
	if err := ocean.Fill(func(idx []int) float64 { return InitialOcean(idx[0], idx[1]) }); err != nil {
		return Result{}, err
	}
	if err := atmos.Fill(func(idx []int) float64 { return InitialAtmosphere(idx[0], idx[1]) }); err != nil {
		return Result{}, err
	}

	link := channel.NewPair() // AtoB: ocean->atmosphere, BtoA: atmosphere->ocean
	defer link.Close()
	deep, strato := oceanDeepRow(cfg), atmosTopRow(cfg)

	for step := 0; step < cfg.Steps; step++ {
		var errO, errA error
		compose.Par(
			func() {
				errO = m.Call(oceanProcs, ProgDiffuseChan,
					dcall.Const(cfg.Rows), dcall.Const(cfg.Cols), dcall.Const(cfg.Alpha),
					dcall.Const(true), // coupling edge at the ocean's top
					dcall.Const(deep),
					dcall.Const(link.AtoB), dcall.Const(link.BtoA),
					ocean.Param())
			},
			func() {
				errA = m.CallOn(half, atmosProcs, ProgDiffuseChan,
					dcall.Const(cfg.Rows), dcall.Const(cfg.Cols), dcall.Const(cfg.Alpha),
					dcall.Const(false), // coupling edge at the atmosphere's bottom
					dcall.Const(strato),
					dcall.Const(link.BtoA), dcall.Const(link.AtoB),
					atmos.Param())
			},
		)
		if errO != nil {
			return Result{}, fmt.Errorf("ocean step %d: %w", step, errO)
		}
		if errA != nil {
			return Result{}, fmt.Errorf("atmosphere step %d: %w", step, errA)
		}
	}

	oSnap, err := ocean.Snapshot()
	if err != nil {
		return Result{}, err
	}
	aSnap, err := atmos.Snapshot()
	if err != nil {
		return Result{}, err
	}
	return Result{Ocean: oSnap, Atmosphere: aSnap}, nil
}

// InitialOcean and InitialAtmosphere define the deterministic initial
// fields (shared with the sequential reference).
func InitialOcean(i, j int) float64      { return 15 + 0.1*float64(i) + 0.05*float64(j) }
func InitialAtmosphere(i, j int) float64 { return 5 - 0.05*float64(i) + 0.02*float64(j) }

func oceanDeepRow(cfg Config) []float64 {
	row := make([]float64, cfg.Cols)
	for j := range row {
		row[j] = 4 // deep-water reference temperature
	}
	return row
}

func atmosTopRow(cfg Config) []float64 {
	row := make([]float64, cfg.Cols)
	for j := range row {
		row[j] = -30 // stratosphere reference temperature
	}
	return row
}

// RunSequential computes the identical coupled evolution on dense arrays
// with no parallel machinery: the reference for E1 and the baseline for
// the benchmark.
func RunSequential(cfg Config) Result {
	o := make([]float64, cfg.Rows*cfg.Cols)
	a := make([]float64, cfg.Rows*cfg.Cols)
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			o[i*cfg.Cols+j] = InitialOcean(i, j)
			a[i*cfg.Cols+j] = InitialAtmosphere(i, j)
		}
	}
	deep := oceanDeepRow(cfg)
	strato := atmosTopRow(cfg)
	step := func(f []float64, above, below []float64) []float64 {
		next := make([]float64, len(f))
		get := func(i, j int) float64 {
			if j < 0 {
				j = 0
			}
			if j >= cfg.Cols {
				j = cfg.Cols - 1
			}
			switch {
			case i < 0:
				return above[j]
			case i >= cfg.Rows:
				return below[j]
			default:
				return f[i*cfg.Cols+j]
			}
		}
		for i := 0; i < cfg.Rows; i++ {
			for j := 0; j < cfg.Cols; j++ {
				avg := 0.25 * (get(i-1, j) + get(i+1, j) + get(i, j-1) + get(i, j+1))
				next[i*cfg.Cols+j] = (1-cfg.Alpha)*f[i*cfg.Cols+j] + cfg.Alpha*avg
			}
		}
		return next
	}
	for s := 0; s < cfg.Steps; s++ {
		oceanTop := append([]float64(nil), o[:cfg.Cols]...)
		atmosBottom := append([]float64(nil), a[(cfg.Rows-1)*cfg.Cols:]...)
		o2 := step(o, atmosBottom, deep)
		a2 := step(a, strato, oceanTop)
		o, a = o2, a2
	}
	return Result{Ocean: o, Atmosphere: a}
}

// Diff compares two results cell by cell: cells counts the cells whose
// float64 bits differ (a length mismatch counts every missing cell) and
// worst is the largest absolute difference among them. A coupled run
// matches RunSequential only when cells is 0.
func Diff(got, want Result) (cells int, worst float64) {
	for _, f := range [][2][]float64{{got.Ocean, want.Ocean}, {got.Atmosphere, want.Atmosphere}} {
		x, y := f[0], f[1]
		n := min(len(x), len(y))
		cells += max(len(x), len(y)) - n
		for i := range n {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				cells++
				worst = math.Max(worst, math.Abs(x[i]-y[i]))
			}
		}
	}
	return cells, worst
}
