package stencil

import (
	"math"
	"testing"

	"repro/internal/arraymgr"
	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/grid"
)

func hotCorner(i, j int) float64 {
	if i == 0 && j == 0 {
		return 100
	}
	return float64(i + j)
}

func TestJacobiMatchesSequential(t *testing.T) {
	const rows, cols, steps = 8, 6, 7
	const boundary = 1.5
	want := RunSequential(rows, cols, steps, boundary, hotCorner)
	for _, p := range []int{1, 2, 4} {
		m := core.New(p)
		if err := RegisterPrograms(m); err != nil {
			t.Fatal(err)
		}
		got, err := Run(m, rows, cols, steps, boundary, hotCorner)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("P=%d: cell %d = %v, want %v", p, i, got[i], want[i])
			}
		}
		m.Close()
	}
}

// The foreign_borders protocol supplied the right overlap areas: the
// created array's borders are BorderWidth on every side of both dims.
func TestForeignBordersApplied(t *testing.T) {
	m := core.New(2)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	a, err := m.NewArray(core.ArraySpec{
		Dims:    []int{4, 4},
		Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
		Borders: core.ForeignBordersOf(ProgJacobi, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := a.Meta()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range meta.Borders {
		if b != BorderWidth {
			t.Fatalf("border %d = %d, want %d", i, b, BorderWidth)
		}
	}
	// Non-field parameter numbers get no borders.
	b, err := Borders(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b {
		if v != 0 {
			t.Fatalf("parm 1 borders = %v", b)
		}
	}
}

// An array created without the program's borders can be corrected with
// verify_array before the call (the §4.2.7 workflow).
func TestVerifyThenCall(t *testing.T) {
	const rows, cols, steps = 4, 4, 3
	const boundary = 0.0
	m := core.New(2)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	field, err := m.NewArray(core.ArraySpec{
		Dims:    []int{rows, cols},
		Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
		// No borders at creation time.
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := field.Fill(func(idx []int) float64 { return hotCorner(idx[0], idx[1]) }); err != nil {
		t.Fatal(err)
	}
	// Calling without borders fails inside the program (section too small).
	st := m.CallStatus(m.AllProcs(), ProgJacobi,
		dcall.Const(rows), dcall.Const(cols), dcall.Const(steps), dcall.Const(boundary),
		field.Param())
	if st != dcall.StatusError {
		t.Fatalf("call without borders: status %d, want STATUS_ERROR", st)
	}
	// verify_array against the program's expected borders reallocates...
	if err := field.Verify(2, core.ForeignBordersOf(ProgJacobi, 4), grid.RowMajor); err != nil {
		t.Fatal(err)
	}
	// ...after which the call succeeds and matches the reference.
	if err := m.Call(m.AllProcs(), ProgJacobi,
		dcall.Const(rows), dcall.Const(cols), dcall.Const(steps), dcall.Const(boundary),
		field.Param()); err != nil {
		t.Fatal(err)
	}
	got, err := field.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := RunSequential(rows, cols, steps, boundary, hotCorner)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Borders are invisible to the task level even while the program uses
// them: after a call, global reads see only interior data.
func TestBordersInvisibleAfterCall(t *testing.T) {
	m := core.New(2)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	got, err := Run(m, 4, 4, 1, 9.0, func(i, j int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	// One step from zero with boundary 9: corners see two boundary
	// neighbours (4.5), edges one (2.25), interior none (0).
	if got[0] != 4.5 || got[1] != 2.25 || got[5] != 0 {
		t.Fatalf("field after one step: %v", got)
	}
}

func TestIndivisibleRows(t *testing.T) {
	m := core.New(4)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, 6, 4, 1, 0, func(i, j int) float64 { return 0 }); err == nil {
		t.Fatal("rows not divisible by P must fail")
	}
	_ = arraymgr.StatusOK // keep import for clarity of intent
}

// TestHaloMessageBudget pins the stencil's halo traffic: one distributed
// call running S Jacobi steps on P copies exchanges exactly one message
// per neighbour per step — plus the fixed call overhead of the P-1
// combine-tree messages (each copy's find_local sends nothing) — however
// large the field.
func TestHaloMessageBudget(t *testing.T) {
	const rows, cols, steps, p = 16, 8, 5, 4
	m := core.New(p)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	procs := m.AllProcs()
	field, err := m.NewArray(core.ArraySpec{
		Dims:    []int{rows, cols},
		Procs:   procs,
		Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
		Borders: core.ForeignBordersOf(ProgJacobi, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := field.Fill(func(idx []int) float64 { return hotCorner(idx[0], idx[1]) }); err != nil {
		t.Fatal(err)
	}

	router := m.VM.Router()
	before := router.Sent()
	if err := m.Call(procs, ProgJacobi,
		dcall.Const(rows), dcall.Const(cols), dcall.Const(steps), dcall.Const(1.5),
		field.Param()); err != nil {
		t.Fatal(err)
	}
	// steps * 2*(p-1) halo slabs + p-1 combines.
	want := uint64(steps*2*(p-1) + (p - 1))
	if got := router.Sent() - before; got != want {
		t.Fatalf("stencil call sent %d messages, want %d (one halo message per neighbour per step)", got, want)
	}
}
