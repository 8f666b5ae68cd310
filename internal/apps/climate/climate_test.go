package climate

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/defval"
	"repro/internal/grid"
)

// oracleConfigs are the shapes the coupled runs must reproduce bit for bit
// on a machine of p processors: a general field, then one, two and three
// columns (the kernel's two reflecting edges meet or coincide) over several
// rows per copy and over exactly one interior row per copy.
func oracleConfigs(p int) []Config {
	cfgs := []Config{{Rows: 8, Cols: 6, Steps: 5, Alpha: 0.4}}
	for _, cols := range []int{1, 2, 3} {
		cfgs = append(cfgs,
			Config{Rows: 8, Cols: cols, Steps: 5, Alpha: 0.4},
			Config{Rows: p / 2, Cols: cols, Steps: 5, Alpha: 0.3})
	}
	return cfgs
}

// requireSameBits fails unless got and want hold the same float64 bit
// patterns, element for element.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-identical)", what, i, got[i], want[i])
		}
	}
}

// checkMatchesSequential runs a coupled variant on machines of 2, 4 and 8
// processors over every oracle shape and requires both final fields to be
// bit-identical to the sequential reference.
func checkMatchesSequential(t *testing.T, run func(*core.Machine, Config) (Result, error)) {
	t.Helper()
	for _, p := range []int{2, 4, 8} {
		m := core.New(p)
		if err := RegisterPrograms(m); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range oracleConfigs(p) {
			want := RunSequential(cfg)
			got, err := run(m, cfg)
			if err != nil {
				t.Fatalf("P=%d %dx%d: %v", p, cfg.Rows, cfg.Cols, err)
			}
			name := fmt.Sprintf("P=%d %dx%d", p, cfg.Rows, cfg.Cols)
			requireSameBits(t, name+" ocean", got.Ocean, want.Ocean)
			requireSameBits(t, name+" atmos", got.Atmosphere, want.Atmosphere)
		}
		m.Close()
	}
}

func TestCoupledMatchesSequential(t *testing.T) { checkMatchesSequential(t, Run) }

// The §7.2.1 extension: boundary exchange over channels produces exactly
// the same evolution as the base (task-level) coupling and the sequential
// reference.
func TestChanneledMatchesSequential(t *testing.T) { checkMatchesSequential(t, RunChanneled) }

func TestChanneledValidation(t *testing.T) {
	m := core.New(4)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	if _, err := RunChanneled(m, Config{Rows: 5, Cols: 4, Steps: 1, Alpha: 0.1}); err == nil {
		t.Fatal("indivisible rows must fail")
	}
}

// The coupling is real: the ocean warms the atmosphere's lower rows over
// time (heat flows from the 15-degree ocean into the 5-degree atmosphere).
func TestCouplingTransfersHeat(t *testing.T) {
	cfg := Config{Rows: 8, Cols: 4, Steps: 0, Alpha: 0.5}
	before := RunSequential(cfg)
	cfg.Steps = 20
	after := RunSequential(cfg)
	// Bottom atmosphere row: initially ~4.65-4.71; must have warmed.
	rowStart := (cfg.Rows - 1) * cfg.Cols
	for j := 0; j < cfg.Cols; j++ {
		if after.Atmosphere[rowStart+j] <= before.Atmosphere[rowStart+j] {
			t.Fatalf("atmosphere bottom cell %d did not warm: %v -> %v",
				j, before.Atmosphere[rowStart+j], after.Atmosphere[rowStart+j])
		}
	}
}

func TestRunValidation(t *testing.T) {
	m := core.New(3)
	defer m.Close()
	if err := RegisterPrograms(m); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, Config{Rows: 4, Cols: 4, Steps: 1, Alpha: 0.1}); err == nil {
		t.Fatal("odd machine size must fail")
	}
	m2 := core.New(4)
	defer m2.Close()
	if err := RegisterPrograms(m2); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m2, Config{Rows: 5, Cols: 4, Steps: 1, Alpha: 0.1}); err == nil {
		t.Fatal("indivisible rows must fail")
	}
}

// TestHaloMessageBudget pins the diffusion step's halo traffic: one
// ProgDiffuse call on P copies exchanges exactly one message per
// neighbour — plus the fixed call overhead of the P-1 combine-tree
// messages (each copy's find_local runs on its own goroutine and sends
// nothing) — however wide the field.
func TestHaloMessageBudget(t *testing.T) {
	const rows, cols, p = 16, 8, 4
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
		Borders: FieldBorders(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := field.Fill(func(idx []int) float64 { return InitialOcean(idx[0], idx[1]) }); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, cols)

	router := m.VM.Router()
	before := router.Sent()
	if err := m.Call(procs, ProgDiffuse,
		dcall.Const(rows), dcall.Const(cols), dcall.Const(0.4),
		dcall.Const(row), dcall.Const(row),
		field.Param(), dcall.ReduceNamed(2*cols, EdgesCombine, defval.New[[]float64]())); err != nil {
		t.Fatal(err)
	}
	// 2*(p-1) halo rows + p-1 combines.
	want := uint64(2*(p-1) + (p - 1))
	if got := router.Sent() - before; got != want {
		t.Fatalf("diffuse call sent %d messages, want %d (one halo message per neighbour per step)", got, want)
	}
}

// TestForeignBordersVerify covers the §4.2.7 workflow for the diffusion
// program: a field created without borders is corrected by verify_array
// against the program's registered border callback, after which the call
// succeeds.
func TestForeignBordersVerify(t *testing.T) {
	const rows, cols, p = 8, 4, 2
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
		// No borders at creation time.
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := field.Fill(func(idx []int) float64 { return InitialOcean(idx[0], idx[1]) }); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, cols)
	call := func() error {
		return m.Call(procs, ProgDiffuse,
			dcall.Const(rows), dcall.Const(cols), dcall.Const(0.4),
			dcall.Const(row), dcall.Const(row),
			field.Param(), dcall.ReduceNamed(2*cols, EdgesCombine, defval.New[[]float64]()))
	}
	if err := call(); err == nil {
		t.Fatal("call on a borderless field must fail")
	}
	if err := field.Verify(2, core.ForeignBordersOf(ProgDiffuse, 5), grid.RowMajor); err != nil {
		t.Fatal(err)
	}
	if err := call(); err != nil {
		t.Fatalf("call after verify: %v", err)
	}
}
