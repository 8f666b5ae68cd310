package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/apps/climate"
	"repro/internal/apps/polymult"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/grid"
	"repro/internal/spmd"
)

// The load shape every workload shares: a closed loop with one client (the
// task level on processor 0), P virtual processors, and — for the wire
// workloads — two OS processes over loopback TCP in the production
// transport mode.
const (
	machineP     = 4
	clusterParts = 2
	gatherK      = 64
	warmupCycles = 20
)

// family is one kind of operation a user of the machine issues; every
// end-to-end latency is reported per family.
type family int

const (
	famRead family = iota
	famWrite
	famGather
	famRedist
	famRun
	nFamilies
)

var familyNames = [nFamilies]string{"read", "write", "gather", "redist", "run"}

// opFamilies are the array-operation families (everything but whole
// program runs), the ones the blocking-path attribution covers.
var opFamilies = []family{famRead, famWrite, famGather, famRedist}

// progNoop is a registered data-parallel program that does nothing: the
// distributed call inside the array-lifecycle program, and the dcall probe.
const progNoop = "bench:noop"

// registerPart is the symmetric per-part setup, run on the driver and on
// every spawned worker before traffic starts.
func registerPart(m *core.Machine) error {
	if err := climate.RegisterPrograms(m); err != nil {
		return err
	}
	if err := polymult.RegisterPrograms(m); err != nil {
		return err
	}
	return m.Register(progNoop, func(*spmd.World, *dcall.Args) {})
}

// machine is one freshly booted machine: in-process, or the driver part of
// a two-process cluster.
type machine struct {
	m    *core.Machine
	node *cluster.Node
}

func bootMachine(wire bool) (*machine, error) {
	if !wire {
		m := core.New(machineP)
		if err := registerPart(m); err != nil {
			m.Close()
			return nil, err
		}
		return &machine{m: m}, nil
	}
	node, err := cluster.StartDriver(cluster.Config{P: machineP, NParts: clusterParts}, registerPart)
	if err != nil {
		return nil, fmt.Errorf("start driver: %w", err)
	}
	if err := node.SpawnWorkers(); err != nil {
		node.Close()
		return nil, fmt.Errorf("spawn workers: %w", err)
	}
	if err := node.WaitPeers(30 * time.Second); err != nil {
		node.Close()
		return nil, fmt.Errorf("wait for peers: %w", err)
	}
	return &machine{m: node.M, node: node}, nil
}

func (mc *machine) close() {
	if mc.node != nil {
		mc.node.Close() // byes the workers, reaps them, closes the machine
		return
	}
	mc.m.Close()
}

// op is one timed operation of a cycle.
type op struct {
	fam   family
	bytes int // payload bytes the operation moves (computed, for goodput)
	do    func() error
}

// instance is a workload set up on one machine: the operations of one
// cycle in issue order, the side operations (see sideOps), and the output
// check run after the timed windows. damage corrupts one element of a
// checked array behind the workload's back, so a test can see the output
// check trip.
type instance struct {
	ops    []op
	side   []op
	verify func() error
	damage func() error
	close  func()
}

// verifyAll runs the checks in order and returns the first complaint.
func verifyAll(checks ...func() error) func() error {
	return func() error {
		for _, check := range checks {
			if err := check(); err != nil {
				return err
			}
		}
		return nil
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	wire  bool
	shape shapeClass // which layer probes price this workload's array ops
	setup func(m *core.Machine, rng *rand.Rand) (*instance, error)
}

// shapeClass selects the blocking-path formulas of attribution.go.
type shapeClass int

const (
	shapeSmallInproc shapeClass = iota
	shapeSmallWire
	shapeLargeWire
	shapePanelWire
)

var workloads = []workload{
	{
		name:  "inproc-ops",
		why:   "8 KiB array ops in one process: coordinator, owner split and mailbox hop do all the work, the wire none; a wire change must show no change here",
		shape: shapeSmallInproc,
		setup: setupSmallOps,
	},
	{
		name:  "wire-small",
		why:   "the identical 8 KiB cycle on the 2-part cluster: per-message cost (codec, writer queue, syscalls, wake-ups, reply round trip) dominates, per-byte cost is negligible",
		wire:  true,
		shape: shapeSmallWire,
		setup: setupSmallOps,
	},
	{
		name:  "wire-large",
		why:   "8 MiB whole-array reads and writes on the 2-part cluster: per-byte cost (float codec, socket bytes, section copy) dominates, per-message cost vanishes: the mirror image of wire-small",
		wire:  true,
		shape: shapeLargeWire,
		setup: setupLargeOps,
	},
	{
		name:  "panel-handoff",
		why:   "512x128 column panels from (*,block) to (cyclic,*) on 2 parts, direct redistribution beside the read-then-write bounce: owner-to-owner traffic and the offset-set split",
		wire:  true,
		shape: shapePanelWire,
		setup: setupPanelHandoff,
	},
	{
		name:  "climate-wire",
		why:   "the paper's coupled SPMD program on 2 parts: dcall spawn/combine, halo slabs across the wire, the Jacobi kernel; spawn tuples ride the gob fallback",
		wire:  true,
		shape: shapeSmallWire,
		setup: setupClimate,
	},
	{
		name:  "polymult-inproc",
		why:   "the paper's task-parallel pipeline of data-parallel FFT stages in one process: streams, fft, concurrent dcalls; bypasses msg/net and msg/wire, so transport work predicts no change",
		shape: shapeSmallInproc,
		setup: setupPolymult,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	smallN = 1024    // 8 KiB of float64, 2 KiB per owner
	largeN = 1 << 20 // 8 MiB of float64, 2 MiB per owner
	panelN = 512     // matrix order; a column panel is 512x128 = 512 KiB
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randomValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randomIndices(rng *rand.Rand, k int, dims ...int) [][]int {
	idx := make([][]int, k)
	for i := range idx {
		idx[i] = make([]int, len(dims))
		for d, n := range dims {
			idx[i][d] = rng.Intn(n)
		}
	}
	return idx
}

func flatIndex(idx []int, dims []int) int {
	off := 0
	for d, i := range idx {
		off = off*dims[d] + i
	}
	return off
}

// fillFrom fills the array from a dense row-major image.
func fillFrom(a *core.Array, dims []int, vals []float64) error {
	return a.Fill(func(idx []int) float64 { return vals[flatIndex(idx, dims)] })
}

// lifecycle is the whole-program side operation of the array workloads:
// create an 8 KiB block array, fill it, make one distributed call of a
// no-op over its sections, snapshot it and free it. The snapshot is kept
// for the output check.
type lifecycle struct {
	m    *core.Machine
	vals []float64 // fill image
	last []float64 // latest snapshot
}

func newLifecycle(m *core.Machine, rng *rand.Rand) *lifecycle {
	return &lifecycle{m: m, vals: randomValues(rng, smallN)}
}

func (l *lifecycle) op() op { return op{famRun, 2 * 8 * smallN, l.run} }

func (l *lifecycle) run() error {
	dims := []int{smallN}
	a, err := l.m.NewArray(core.ArraySpec{Dims: dims})
	if err != nil {
		return err
	}
	if err := fillFrom(a, dims, l.vals); err != nil {
		a.Free()
		return err
	}
	if err := l.m.Call(l.m.AllProcs(), progNoop, a.Param()); err != nil {
		a.Free()
		return err
	}
	l.last, err = a.Snapshot()
	if err != nil {
		a.Free()
		return err
	}
	return a.Free()
}

func (l *lifecycle) verify() error {
	if l.last != nil && !sameBits(l.last, l.vals) {
		return fmt.Errorf("lifecycle snapshot differs from the values filled")
	}
	return nil
}

// vectorOps is the array-operation cycle on a 1-D block array A of n
// elements: whole-array read, whole-array write, gather of gatherK
// scattered elements and, when the cyclic twin T exists, redistribution of
// A onto T (every element changes owner; one offset set per owner pair).
type vectorOps struct {
	a, twin *core.Array
	n       int
	lo, hi  []int
	rbuf    []float64
	wbufs   [2][]float64 // written alternately, so a stale read shows
	writes  int
	cur     []float64 // what A holds now
	readExp []float64 // what A held when rbuf was read
	idx     [][]int
	gbuf    []float64
	// gathered and moved say whether the gather and the redistribution
	// ever ran: a workload may use only some of the operations.
	gathered, moved bool
}

func newVectorOps(m *core.Machine, rng *rand.Rand, n int, withTwin bool) (*vectorOps, error) {
	v := &vectorOps{n: n, lo: []int{0}, hi: []int{n}}
	dims := []int{n}
	var err error
	if v.a, err = m.NewArray(core.ArraySpec{Dims: dims}); err != nil {
		return nil, err
	}
	if withTwin {
		if v.twin, err = m.NewArray(core.ArraySpec{Dims: dims, Distrib: []grid.Decomp{grid.CyclicDefault()}}); err != nil {
			return nil, err
		}
	}
	v.cur = randomValues(rng, n)
	if err := fillFrom(v.a, dims, v.cur); err != nil {
		return nil, err
	}
	v.wbufs[0], v.wbufs[1] = randomValues(rng, n), randomValues(rng, n)
	v.rbuf = make([]float64, n)
	v.idx = randomIndices(rng, gatherK, n)
	v.gbuf = make([]float64, gatherK)
	return v, nil
}

func (v *vectorOps) read() op {
	return op{famRead, 8 * v.n, func() error {
		v.readExp = v.cur
		return v.a.ReadBlockInto(v.lo, v.hi, v.rbuf)
	}}
}

func (v *vectorOps) write() op {
	return op{famWrite, 8 * v.n, func() error {
		w := v.wbufs[v.writes%2]
		v.writes++
		v.cur = w
		return v.a.WriteBlock(v.lo, v.hi, w)
	}}
}

func (v *vectorOps) gather() op {
	return op{famGather, 8 * gatherK, func() error {
		v.gathered = true
		return v.a.GatherElementsInto(v.idx, v.gbuf)
	}}
}

func (v *vectorOps) redist() op {
	return op{famRedist, 8 * v.n, func() error {
		v.moved = true
		return v.twin.RedistributeFrom(v.a, v.lo, v.hi)
	}}
}

func (v *vectorOps) verify() error {
	if v.readExp != nil && !sameBits(v.rbuf, v.readExp) {
		return fmt.Errorf("last read differs from the values written before it")
	}
	snap, err := v.a.Snapshot()
	if err != nil {
		return err
	}
	if !sameBits(snap, v.cur) {
		return fmt.Errorf("array differs from the last values written")
	}
	for j, ix := range v.idx {
		if v.gathered && math.Float64bits(v.gbuf[j]) != math.Float64bits(v.cur[ix[0]]) {
			return fmt.Errorf("gathered element %d (index %d) = %v, source holds %v", j, ix[0], v.gbuf[j], v.cur[ix[0]])
		}
	}
	if !v.moved {
		return nil
	}
	tsnap, err := v.twin.Snapshot()
	if err != nil {
		return err
	}
	if !sameBits(tsnap, v.cur) {
		return fmt.Errorf("redistributed twin differs from its source")
	}
	return nil
}

func (v *vectorOps) free() {
	v.a.Free()
	if v.twin != nil {
		v.twin.Free()
	}
}

// sideOps are the operations of the families a workload's own cycle lacks,
// issued on the 8 KiB shape (array, cyclic twin, lifecycle program) in a
// short window of their own after the workload's timed window. The driver
// of the benchmark expects every end-to-end metric from every run; this is
// where a workload gets the ones its cycle does not have, without the
// cycle changing for it.
func sideOps(m *core.Machine, rng *rand.Rand, lacking ...family) (ops []op, verify func() error, free func(), err error) {
	v, err := newVectorOps(m, rng, smallN, true)
	if err != nil {
		return nil, nil, nil, err
	}
	life := newLifecycle(m, rng)
	byFamily := [nFamilies]op{famRead: v.read(), famWrite: v.write(), famGather: v.gather(), famRedist: v.redist(), famRun: life.op()}
	for _, f := range lacking {
		ops = append(ops, byFamily[f])
	}
	// Both checks pass over operations that never ran.
	return ops, verifyAll(v.verify, life.verify), v.free, nil
}

// setupSmallOps is the cycle of inproc-ops and wire-small: read, write,
// gather and block→cyclic redistribution on the 8 KiB array and its twin.
func setupSmallOps(m *core.Machine, rng *rand.Rand) (*instance, error) {
	v, err := newVectorOps(m, rng, smallN, true)
	if err != nil {
		return nil, err
	}
	side, verifySide, freeSide, err := sideOps(m, rng, famRun)
	if err != nil {
		return nil, err
	}
	return &instance{
		ops:    []op{v.read(), v.write(), v.gather(), v.redist()},
		side:   side,
		verify: verifyAll(v.verify, verifySide),
		damage: func() error { return v.twin.Write(v.cur[0]+1, 0) },
		close:  func() { v.free(); freeSide() },
	}, nil
}

// setupLargeOps is the cycle of wire-large: whole-array read and write of
// the 8 MiB array.
func setupLargeOps(m *core.Machine, rng *rand.Rand) (*instance, error) {
	big, err := newVectorOps(m, rng, largeN, false)
	if err != nil {
		return nil, err
	}
	side, verifySide, freeSide, err := sideOps(m, rng, famGather, famRedist, famRun)
	if err != nil {
		return nil, err
	}
	return &instance{
		ops:    []op{big.read(), big.write()},
		side:   side,
		verify: verifyAll(big.verify, verifySide),
		damage: func() error { return big.a.Write(big.cur[0]+1, 0) },
		close:  func() { big.free(); freeSide() },
	}, nil
}

// setupPanelHandoff writes the E26 loop from core calls: A is (*, block)
// column panels, W and W2 are (cyclic, *); each cycle moves every panel
// into W directly and into W2 through the caller (read, then write).
// triangular.RunPanelHandoff cannot serve: its update program takes a
// Reduce parameter, which a cluster rejects with StatusInvalid.
func setupPanelHandoff(m *core.Machine, rng *rand.Rand) (*instance, error) {
	const n, b = panelN, panelN / machineP
	dims := []int{n, n}
	colPanels := core.ArraySpec{Dims: dims, Distrib: []grid.Decomp{grid.NoDecomp(), grid.BlockDefault()}}
	rowCyclic := core.ArraySpec{Dims: dims, Distrib: []grid.Decomp{grid.CyclicDefault(), grid.NoDecomp()}}
	a, err := m.NewArray(colPanels)
	if err != nil {
		return nil, err
	}
	w, err := m.NewArray(rowCyclic)
	if err != nil {
		return nil, err
	}
	w2, err := m.NewArray(rowCyclic)
	if err != nil {
		return nil, err
	}
	src := randomValues(rng, n*n)
	if err := fillFrom(a, dims, src); err != nil {
		return nil, err
	}
	buf := make([]float64, n*b)
	side, verifySide, freeSide, err := sideOps(m, rng, famGather, famRun)
	if err != nil {
		return nil, err
	}

	var ops []op
	panelBytes := 8 * n * b
	for k := 0; k < machineP; k++ {
		lo, hi := []int{0, k * b}, []int{n, (k + 1) * b}
		ops = append(ops,
			op{famRedist, panelBytes, func() error { return w.RedistributeFrom(a, lo, hi) }},
			op{famRead, panelBytes, func() error { return a.ReadBlockInto(lo, hi, buf) }},
			op{famWrite, panelBytes, func() error { return w2.WriteBlock(lo, hi, buf) }},
		)
	}
	verifyPanels := func() error {
		for name, arr := range map[string]*core.Array{"A": a, "W (direct)": w, "W2 (bounced)": w2} {
			snap, err := arr.Snapshot()
			if err != nil {
				return err
			}
			if !sameBits(snap, src) {
				return fmt.Errorf("%s differs from the source matrix", name)
			}
		}
		return nil
	}
	return &instance{
		ops:    ops,
		side:   side,
		verify: verifyAll(verifyPanels, verifySide),
		damage: func() error { return w.Write(src[0]+1, 0, 0) },
		close:  func() { a.Free(); w.Free(); w2.Free(); freeSide() },
	}, nil
}

// programInstance is a program workload: one program run per cycle, the
// four array-operation families as side operations.
func programInstance(m *core.Machine, rng *rand.Rand, run op, verifyRun, damage func() error) (*instance, error) {
	side, verifySide, freeSide, err := sideOps(m, rng, opFamilies...)
	if err != nil {
		return nil, err
	}
	return &instance{
		ops:    []op{run},
		side:   side,
		verify: verifyAll(verifyRun, verifySide),
		damage: damage,
		close:  freeSide,
	}, nil
}

var climateConfig = climate.Config{Rows: 128, Cols: 128, Steps: 20, Alpha: 0.15}

func setupClimate(m *core.Machine, rng *rand.Rand) (*instance, error) {
	want := climate.RunSequential(climateConfig)
	var last climate.Result
	cells := climateConfig.Rows * climateConfig.Cols
	run := op{famRun, 2 * 8 * cells, func() error {
		var err error
		last, err = climate.Run(m, climateConfig)
		return err
	}}
	verify := func() error {
		if !sameBits(last.Ocean, want.Ocean) || !sameBits(last.Atmosphere, want.Atmosphere) {
			return fmt.Errorf("climate fields differ from the sequential reference")
		}
		return nil
	}
	return programInstance(m, rng, run, verify, func() error { last.Ocean[0]++; return nil })
}

const (
	polyN     = 256
	polyPairs = 8
)

func setupPolymult(m *core.Machine, rng *rand.Rand) (*instance, error) {
	pairs := make([][2][]float64, polyPairs)
	want := make([][]float64, polyPairs)
	for i := range pairs {
		pairs[i] = [2][]float64{randomValues(rng, polyN), randomValues(rng, polyN)}
		want[i] = polymult.Schoolbook(pairs[i][0], pairs[i][1])
	}
	var last [][]float64
	run := op{famRun, polyPairs * 2 * 8 * polyN, func() error {
		var err error
		last, err = polymult.Run(m, polyN, pairs)
		return err
	}}
	verify := func() error {
		if len(last) != polyPairs {
			return fmt.Errorf("polymult returned %d products, want %d", len(last), polyPairs)
		}
		for k, got := range last {
			if err := withinRelative(got, want[k], 1e-6); err != nil {
				return fmt.Errorf("polymult pair %d: %w", k, err)
			}
		}
		return nil
	}
	return programInstance(m, rng, run, verify, func() error { last[0][0]++; return nil })
}

// withinRelative checks got against want to a tolerance relative to the
// largest reference coefficient.
func withinRelative(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d coefficients, want %d", len(got), len(want))
	}
	scale := 0.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
			return fmt.Errorf("coefficient %d off by %g (scale %g)", i, d, scale)
		}
	}
	return nil
}
