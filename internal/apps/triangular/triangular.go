// Package triangular implements the workload the cyclic distribution
// exists for: a right-looking triangular update — the k-loop of an LU
// factorization without pivoting. At step k the owner of row k broadcasts
// it and every copy updates its rows with global index greater than k, so
// the active region shrinks from the top as the factorization proceeds.
//
// Under a block row distribution the processors owning the leading rows
// fall idle early and the owner of the trailing block carries almost the
// whole critical path; under a cyclic distribution every processor keeps
// roughly (n-k)/P active rows at every step and the work stays balanced —
// the classic argument for cyclic layouts in LU-style factorizations
// (ROADMAP's "load-balanced workloads"). The per-row update cost can be
// inflated with a modeled delay (Config.WorkPerRow) so the load-balance
// effect is measurable as wall time on a machine whose copies timeshare
// cores: sleeps overlap across copies exactly like compute on dedicated
// processors, making the makespan the maximum per-copy work, not the sum.
//
// The numerical content is real and verified: Run's factors must match
// RunSequential's elimination exactly, and both the initial fill and the
// final snapshot travel through the bulk data plane of whatever
// distribution the matrix uses — on a cyclic or block-cyclic matrix this
// exercises the closed-form rectangle split (per-owner run lists) end to
// end.
package triangular

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/defval"
	"repro/internal/grid"
	"repro/internal/spmd"
)

// ProgramName is the registered name of the data-parallel program.
const ProgramName = "triangular:update"

// Config describes one factorization run.
type Config struct {
	N          int           // matrix order
	Dist       grid.Decomp   // row distribution (block, cyclic, block-cyclic)
	WorkPerRow time.Duration // modeled cost added per active row per step
}

// Result reports one run.
type Result struct {
	N         int
	P         int
	Elapsed   time.Duration // wall time of the distributed call
	WorkUnits float64       // modeled makespan: max over copies of active-row steps
	Factors   []float64     // dense row-major LU factors (L below, U on/above)
}

// Element returns the deterministic, diagonally dominant test matrix entry
// at (i, j): no pivoting is needed and the factors stay bounded.
func Element(n, i, j int) float64 {
	v := float64((i*7+j*13)%11) - 5
	if i == j {
		v += float64(3 * n)
	}
	return v
}

// RegisterPrograms registers the update program. Its parameter list is
// (N, RowDist, WorkPerRow, local(A), reduce(max, WorkUnits)): the row
// distribution travels as a constant so every copy can resolve row
// ownership with the same grid.Dist arithmetic the array manager uses.
func RegisterPrograms(m *core.Machine) error {
	return m.Register(ProgramName, func(w *spmd.World, a *dcall.Args) {
		n := a.Int(0)
		d := a.Const(1).(grid.Dist)
		work := a.Const(2).(time.Duration)
		sec := a.Section(3).F
		p := w.Size()
		me := w.Rank()
		cnt := d.Count(n, p, me) // rows this copy actually owns

		units := 0
		for k := 0; k < n-1; k++ {
			owner, lrow := d.Owner(k, p)
			var pivot []float64
			if me == owner {
				// A fresh snapshot per step: receivers hold the slice
				// beyond this iteration.
				pivot = append([]float64(nil), sec[lrow*n:(lrow+1)*n]...)
				for r := 0; r < p; r++ {
					if r != me {
						if err := w.Send(r, k, pivot); err != nil {
							panic(err)
						}
					}
				}
			} else {
				var err error
				pivot, err = w.RecvFloats(owner, k)
				if err != nil {
					panic(err)
				}
			}
			active := 0
			for l := 0; l < cnt; l++ {
				g := d.Global(me, l, p)
				if g <= k {
					continue
				}
				active++
				row := sec[l*n : (l+1)*n]
				f := row[k] / pivot[k]
				for j := k + 1; j < n; j++ {
					row[j] -= f * pivot[j]
				}
				row[k] = f // store the multiplier (the L entry)
			}
			units += active
			if work > 0 && active > 0 {
				// The modeled per-row cost: sleeps overlap across copies,
				// so wall time tracks the busiest copy.
				time.Sleep(time.Duration(active) * work)
			}
		}
		a.Reduction(4)[0] = float64(units)
	})
}

// Run creates the row-distributed matrix, fills it with the test pattern
// through the bulk data plane, factors it with one distributed call over
// all processors, and snapshots the factors back.
func Run(m *core.Machine, cfg Config) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("triangular: order %d too small", cfg.N)
	}
	procs := m.AllProcs()
	a, err := m.NewArray(core.ArraySpec{
		Dims:    []int{cfg.N, cfg.N},
		Procs:   procs,
		Distrib: []grid.Decomp{cfg.Dist, grid.NoDecomp()},
	})
	if err != nil {
		return nil, err
	}
	defer a.Free()
	if err := a.Fill(func(idx []int) float64 { return Element(cfg.N, idx[0], idx[1]) }); err != nil {
		return nil, err
	}
	meta, err := a.Meta()
	if err != nil {
		return nil, err
	}
	maxUnits := defval.New[[]float64]()
	maxCombine := func(x, y []float64) []float64 {
		if y[0] > x[0] {
			return y
		}
		return x
	}
	t0 := time.Now()
	if err := m.Call(procs, ProgramName,
		dcall.Const(cfg.N), dcall.Const(meta.Dist(0)), dcall.Const(cfg.WorkPerRow),
		a.Param(), dcall.Reduce(1, maxCombine, maxUnits)); err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	factors, err := a.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Result{
		N: cfg.N, P: m.P(), Elapsed: elapsed,
		WorkUnits: maxUnits.Value()[0], Factors: factors,
	}, nil
}

// --- block→cyclic panel handoff: the redistribution plane's workload ---

// PanelConfig describes one panel-handoff run. The matrix is born in
// column-panel form — A is (*, block), so panel k (columns [k·b, (k+1)·b))
// lives wholly on processor k, the layout a panel factorization produces —
// but the triangular update wants row-cyclic balance, so every panel is
// copied into W, a (cyclic, *) matrix, before the update runs. Bounce
// selects the gather-then-scatter baseline: read each panel back to the
// calling processor and write it out again, instead of the direct
// owner↔owner redistribution.
type PanelConfig struct {
	N          int           // matrix order; must be a multiple of P
	Bounce     bool          // use the read-then-write baseline
	WorkPerRow time.Duration // modeled cost forwarded to the update
}

// PanelResult reports one run. HandoffMsgs counts the router messages the
// P panel transfers actually sent; HandoffHops is the modeled
// critical-path hop count of the same transfers — what an interconnect
// charging per-hop latency (the E22/E26 20µs regime) makes the caller
// wait for, with concurrent messages of one phase overlapped into a
// single hop and request replies riding in-process channels for free.
type PanelResult struct {
	N, P        int
	HandoffMsgs uint64
	HandoffHops int
	HandoffTime time.Duration // wall time of the handoff loop
	WorkUnits   float64       // modeled makespan of the update on W
	Factors     []float64     // dense row-major LU factors from W
}

// RunPanelHandoff creates A as (*, block) column panels, fills it with the
// test pattern, moves each panel into the (cyclic, *) matrix W — directly
// via Redistribute or through the bounce baseline — and then factors W
// in place with the update program, returning the handoff cost and the
// verified factors.
func RunPanelHandoff(m *core.Machine, cfg PanelConfig) (*PanelResult, error) {
	p := m.P()
	if cfg.N < 2 || cfg.N%p != 0 {
		return nil, fmt.Errorf("triangular: order %d must be a positive multiple of P=%d", cfg.N, p)
	}
	n := cfg.N
	b := n / p
	procs := m.AllProcs()
	a, err := m.NewArray(core.ArraySpec{
		Dims:    []int{n, n},
		Procs:   procs,
		Distrib: []grid.Decomp{grid.NoDecomp(), grid.BlockDefault()},
	})
	if err != nil {
		return nil, err
	}
	defer a.Free()
	if err := a.Fill(func(idx []int) float64 { return Element(n, idx[0], idx[1]) }); err != nil {
		return nil, err
	}
	w, err := m.NewArray(core.ArraySpec{
		Dims:    []int{n, n},
		Procs:   procs,
		Distrib: []grid.Decomp{grid.CyclicDefault(), grid.NoDecomp()},
	})
	if err != nil {
		return nil, err
	}
	defer w.Free()

	router := m.VM.Router()
	var buf []float64
	if cfg.Bounce {
		buf = make([]float64, n*b)
	}
	before := router.Sent()
	hops := 0
	t0 := time.Now()
	for k := 0; k < p; k++ {
		lo, hi := []int{0, k * b}, []int{n, (k + 1) * b}
		srcLocal := k == 0 // panel 0 lives on the calling processor
		if cfg.Bounce {
			if err := a.ReadBlockInto(lo, hi, buf); err != nil {
				return nil, err
			}
			if err := w.WriteBlock(lo, hi, buf); err != nil {
				return nil, err
			}
			// Hops are charged as the wire charges them, replies and
			// acks included, though in one process those ride the
			// completion table rather than the router. Read: the
			// wholly-local fast path is free; a remote panel costs the
			// owner request and its reply.
			if !srcLocal {
				hops += 2
			}
			// Write: the per-owner writes overlap into one hop, and
			// their acks into another.
			hops += 2
		} else {
			if err := w.RedistributeFrom(a, lo, hi); err != nil {
				return nil, err
			}
			// For a remote panel the ship order to the source owner,
			// then the overlapped owner-to-owner ships, then their acks
			// back to the caller.
			hops += 2
			if !srcLocal {
				hops++
			}
		}
	}
	handoffTime := time.Since(t0)
	msgs := router.Sent() - before

	meta, err := w.Meta()
	if err != nil {
		return nil, err
	}
	maxUnits := defval.New[[]float64]()
	maxCombine := func(x, y []float64) []float64 {
		if y[0] > x[0] {
			return y
		}
		return x
	}
	if err := m.Call(procs, ProgramName,
		dcall.Const(n), dcall.Const(meta.Dist(0)), dcall.Const(cfg.WorkPerRow),
		w.Param(), dcall.Reduce(1, maxCombine, maxUnits)); err != nil {
		return nil, err
	}
	factors, err := w.Snapshot()
	if err != nil {
		return nil, err
	}
	return &PanelResult{
		N: n, P: p,
		HandoffMsgs: msgs, HandoffHops: hops, HandoffTime: handoffTime,
		WorkUnits: maxUnits.Value()[0], Factors: factors,
	}, nil
}

// RunSequential performs the same elimination on a dense matrix — the
// reference the distributed factors must match exactly (identical
// floating-point operation order per row).
func RunSequential(cfg Config) []float64 {
	n := cfg.N
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = Element(n, i, j)
		}
	}
	for k := 0; k < n-1; k++ {
		for i := k + 1; i < n; i++ {
			f := a[i*n+k] / a[k*n+k]
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= f * a[k*n+j]
			}
			a[i*n+k] = f
		}
	}
	return a
}

// MaxDeviation returns the largest absolute element difference between two
// dense matrices.
func MaxDeviation(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		worst = math.Max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}
