// Command tdplab runs the reproduction's experiment suite: one experiment
// per figure of the paper (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for recorded results), and exposes the decomposition
// layer for inspection.
//
// Usage:
//
//	tdplab list                     # list experiments
//	tdplab all                      # run everything
//	tdplab E10 E12 ...              # run selected experiments
//	tdplab decomp 10x8 4 block,cyclic   # show a decomposition's layout
//	tdplab redist 16x16 4 "*,block" "cyclic,*"   # show a transfer schedule (run lists per pair)
//	tdplab chaos [seed]             # run a verified workload under a fault plan
//	tdplab heal [seed]              # kill processors mid-run and watch the machine heal
//	tdplab netrun                   # run climate across two OS processes over TCP
package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/climate"
	"repro/internal/arraymgr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/msg/wire"
)

// partRegister is the symmetric per-part setup for cluster runs: the
// driver and every spawned worker register the same programs and
// install the same call policy, so cross-process spawns find their
// program and recovery traffic behaves identically on both sides.
func partRegister(m *core.Machine) error {
	if err := climate.RegisterPrograms(m); err != nil {
		return err
	}
	m.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 2 * time.Second, Retries: 3})
	return nil
}

func main() {
	// Worker role first: when a cluster driver re-execs this binary, it
	// must boot a worker part and nothing else.
	if cfg, ok := cluster.WorkerConfig(); ok {
		if err := cluster.RunWorker(cfg, partRegister); err != nil {
			fmt.Fprintln(os.Stderr, "tdplab worker:", err)
			os.Exit(1)
		}
		return
	}
	cluster.EnableSelfSpawn()

	args := os.Args[1:]
	if len(args) == 0 || args[0] == "help" || args[0] == "-h" || args[0] == "--help" {
		usage()
		return
	}
	if args[0] == "list" {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-9s %s\n", e.ID, e.Figure, e.Title)
		}
		return
	}
	if args[0] == "decomp" {
		if len(args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: tdplab decomp <dims e.g. 10x8> <P> <distrib e.g. block,cyclic>")
			os.Exit(2)
		}
		if err := showDecomp(args[1], args[2], args[3]); err != nil {
			fmt.Fprintf(os.Stderr, "tdplab: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if args[0] == "redist" {
		if len(args) != 5 {
			fmt.Fprintln(os.Stderr, "usage: tdplab redist <dims e.g. 16x16> <P> <src distrib> <dst distrib>")
			os.Exit(2)
		}
		if err := showRedist(args[1], args[2], args[3], args[4]); err != nil {
			fmt.Fprintf(os.Stderr, "tdplab: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if args[0] == "netrun" {
		if len(args) > 1 {
			fmt.Fprintln(os.Stderr, "usage: tdplab netrun")
			os.Exit(2)
		}
		if err := runNet(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "tdplab: netrun: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if args[0] == "chaos" || args[0] == "heal" {
		name := args[0]
		run := experiments.RunChaosSample
		if name == "heal" {
			run = experiments.RunHealSample
		}
		seed := int64(1)
		if len(args) > 2 {
			fmt.Fprintf(os.Stderr, "usage: tdplab %s [seed]\n", name)
			os.Exit(2)
		}
		if len(args) == 2 {
			s, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tdplab: bad seed %q\n", args[1])
				os.Exit(2)
			}
			seed = s
		}
		if err := run(os.Stdout, seed); err != nil {
			fmt.Fprintf(os.Stderr, "tdplab: %s: %v\n", name, err)
			os.Exit(1)
		}
		return
	}
	var toRun []experiments.Experiment
	if strings.EqualFold(args[0], "all") {
		toRun = experiments.All()
	} else {
		for _, id := range args {
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "tdplab: unknown experiment %q (try `tdplab list`)\n", id)
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}
	failed := 0
	for i, e := range toRun {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s (%s) %s ===\n", e.ID, e.Figure, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println(`tdplab — experiment harness for the task/data-parallel integration reproduction

usage:
  tdplab list                        list experiments (one per figure of the paper)
  tdplab all                         run the full suite
  tdplab E10 E12 ...                 run selected experiments
  tdplab decomp <dims> <P> <spec>    show a decomposition's grid, storage and
                                     ownership (e.g. tdplab decomp 10x8 4 block,cyclic;
                                     specs: block, block(N), *, cyclic, cyclic(N),
                                     block_cyclic(B), block_cyclic(B,N))
  tdplab redist <dims> <P> <src> <dst>
                                     show the owner-pair transfer schedule for
                                     redistributing the whole array between two
                                     distributions (pairs, runs, bytes, messages) without
                                     running it (e.g. tdplab redist 512x512 4 "block_cyclic(8),*" "*,block")
  tdplab chaos [seed]                run a mixed block/element/redistribute workload
                                     under a seeded drop+dup+jitter+reorder fault plan,
                                     verify it against a sequential reference, and print
                                     the observed fault and retransmit/timeout counters
  tdplab heal [seed]                 kill processors mid-run under a seeded schedule:
                                     a replicated array heals by buddy promotion, an
                                     unreplicated one by checkpoint/restore; prints the
                                     membership transitions, promotion counters, and a
                                     verified checksum
  tdplab netrun                      run the climate example three ways — sequential
                                     reference, one process, and two real OS processes
                                     over loopback TCP — and verify the fields are
                                     bit-identical`)
}

// runNet executes the coupled climate example on a single-process
// machine and on a machine partitioned across two real OS processes
// over loopback TCP, checking both against the sequential reference and
// against each other bit for bit.
func runNet(w *os.File) error {
	cfg := climate.Config{Rows: 16, Cols: 16, Steps: 8, Alpha: 0.15}
	fmt.Fprintf(w, "climate %dx%d, %d steps, alpha=%g\n", cfg.Rows, cfg.Cols, cfg.Steps, cfg.Alpha)

	want := climate.RunSequential(cfg)

	m := core.New(4)
	if err := partRegister(m); err != nil {
		m.Close()
		return err
	}
	resIn, err := climate.Run(m, cfg)
	m.Close()
	if err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}

	node, err := cluster.StartDriver(cluster.Config{P: 4, NParts: 2}, partRegister)
	if err != nil {
		return err
	}
	defer node.Close()
	if err := node.SpawnWorkers(); err != nil {
		return err
	}
	if err := node.WaitPeers(30 * time.Second); err != nil {
		return err
	}
	resNet, err := climate.Run(node.M, cfg)
	if err != nil {
		return fmt.Errorf("cluster run: %w", err)
	}

	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	same := func(a, b []float64) bool {
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
	fmt.Fprintf(w, "  %-22s ocean %.9f  atmosphere %.9f\n", "sequential", sum(want.Ocean), sum(want.Atmosphere))
	fmt.Fprintf(w, "  %-22s ocean %.9f  atmosphere %.9f\n", "1 process", sum(resIn.Ocean), sum(resIn.Atmosphere))
	fmt.Fprintf(w, "  %-22s ocean %.9f  atmosphere %.9f\n", "2 processes (TCP)", sum(resNet.Ocean), sum(resNet.Atmosphere))
	if !same(resIn.Ocean, want.Ocean) || !same(resIn.Atmosphere, want.Atmosphere) {
		return fmt.Errorf("in-process run differs from sequential reference")
	}
	if !same(resNet.Ocean, resIn.Ocean) || !same(resNet.Atmosphere, resIn.Atmosphere) {
		return fmt.Errorf("cross-process run differs from in-process run")
	}
	fmt.Fprintln(w, "  fields bit-identical across all three runs")
	return nil
}

// parseDims parses a "10x8"-style dimension list.
func parseDims(dimsArg string) ([]int, error) {
	var dims []int
	for _, part := range strings.Split(dimsArg, "x") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad dimensions %q", dimsArg)
		}
		dims = append(dims, d)
	}
	return dims, nil
}

// offlineMeta builds the array representation the manager would hold for
// one specification, without starting a machine — enough for the
// schedule arithmetic, which never touches storage.
func offlineMeta(seq int, dims []int, p int, distribArg string) (*darray.Meta, []grid.Decomp, error) {
	specs, err := grid.ParseDistrib(distribArg)
	if err != nil {
		return nil, nil, err
	}
	if len(specs) != len(dims) {
		return nil, nil, fmt.Errorf("%d specifications for %d dimensions", len(specs), len(dims))
	}
	gridDims, err := grid.GridDims(p, specs)
	if err != nil {
		return nil, nil, err
	}
	dists, err := grid.ResolveDists(dims, gridDims, specs)
	if err != nil {
		return nil, nil, err
	}
	storage, err := grid.StorageDims(dims, gridDims, dists)
	if err != nil {
		return nil, nil, err
	}
	procs := make([]int, grid.Size(gridDims))
	for i := range procs {
		procs[i] = i
	}
	return &darray.Meta{
		ID: darray.ID{Proc: 0, Seq: seq}, Type: darray.Double,
		Dims: dims, Procs: procs, GridDims: gridDims, Dists: dists,
		LocalDims: storage, Borders: darray.NoBorders(len(dims)), LocalDimsPlus: storage,
		Indexing: grid.RowMajor, GridIndexing: grid.RowMajor,
	}, specs, nil
}

// showRedist computes and prints the owner-pair transfer schedule for
// redistributing a whole array from one distribution to another: which
// processor ships how much to which, each pair's runs per dimension
// (one on block and cyclic sides, several where a side is block-cyclic
// of width > 1) and per-side steps, the bytes it puts on the wire
// (values plus encoded index ints) and the resulting message budget of
// the direct plane against the gather-then-scatter bounce, for a caller
// on processor 0 — all static arithmetic, no machine and no data
// movement.
func showRedist(dimsArg, pArg, srcArg, dstArg string) error {
	dims, err := parseDims(dimsArg)
	if err != nil {
		return err
	}
	p, err := strconv.Atoi(pArg)
	if err != nil || p < 1 {
		return fmt.Errorf("bad processor count %q", pArg)
	}
	src, srcSpecs, err := offlineMeta(1, dims, p, srcArg)
	if err != nil {
		return fmt.Errorf("src: %w", err)
	}
	dst, dstSpecs, err := offlineMeta(2, dims, p, dstArg)
	if err != nil {
		return fmt.Errorf("dst: %w", err)
	}
	zero := make([]int, len(dims))
	sched, err := dst.TransferSchedule(src, zero, zero, dims, nil)
	if err != nil {
		return err
	}
	const elemBytes = 8
	fmt.Printf("redistribute %v: (%s) -> (%s) over %d processors\n",
		dims, grid.DistribString(srcSpecs), grid.DistribString(dstSpecs), p)
	fmt.Println("  src -> dst  runs        src step  dst step   elements wire bytes  transport")
	// encoded is the wire size of index ints (varints with a length).
	encoded := func(xss ...[]int) int {
		var b []byte
		for _, xs := range xss {
			b = wire.AppendInts(b, xs)
		}
		return len(b)
	}
	// stepString prints a side's steps, a stretch of k equal ones as s×k.
	stepString := func(st []int) string {
		if st == nil {
			return "dense"
		}
		var parts []string
		for i, k := 0, 1; i < len(st); i, k = i+k, 1 {
			for i+k < len(st) && st[i+k] == st[i] {
				k++
			}
			if parts = append(parts, strconv.Itoa(st[i])); k > 1 {
				parts[len(parts)-1] += "×" + strconv.Itoa(k)
			}
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	totalElems, totalBytes, crossPairs, multi := 0, 0, 0, 0
	srcOwners, dstOwners := map[int]bool{}, map[int]bool{}
	for _, e := range sched.Blocks {
		// The ship order to a remote source owner carries both sides'
		// bounds and steps and the run counts; a cross-process ship
		// carries the values and the destination side again.
		elems, _ := darray.LatticeSize(e.SrcLo, e.SrcHi, e.SrcStep, e.Runs, src.LocalDims)
		bytes := 0
		if e.SrcProc != 0 {
			bytes += encoded(e.SrcLo, e.SrcHi, e.SrcStep, e.DstLo, e.DstHi, e.DstStep, e.Runs)
		}
		transport := "local copy (0 messages)"
		if e.SrcProc != e.DstProc {
			transport = "1 message"
			crossPairs++
			bytes += elems*elemBytes + encoded(e.DstLo, e.DstHi, e.DstStep)
		}
		runs := "1 each"
		if e.Runs != nil {
			runs, multi = fmt.Sprint(e.Runs), multi+1
		}
		srcOwners[e.SrcProc] = true
		dstOwners[e.DstProc] = true
		totalElems += elems
		totalBytes += bytes
		fmt.Printf("  %3d -> %-3d %-11s %-9s %-9s %9d %10d  %s\n",
			e.SrcProc, e.DstProc, runs, stepString(e.SrcStep), stepString(e.DstStep), elems, bytes, transport)
	}
	// The direct plane's budget for a caller on processor 0, whose
	// coordinator runs on the caller and sends nothing itself: one ship
	// order per remote source owner, one ship per cross-processor pair
	// (the pinned formula of arraymgr.TestRedistributeMessageBudget).
	remoteSrc, remoteDst := 0, 0
	for o := range srcOwners {
		if o != 0 {
			remoteSrc++
		}
	}
	for o := range dstOwners {
		if o != 0 {
			remoteDst++
		}
	}
	direct := remoteSrc + crossPairs
	// The bounce pays a read (one request per remote source owner) plus
	// a write (one per remote destination owner).
	bounce := remoteSrc + remoteDst
	fmt.Printf("  total: %d owner pairs (%d with several runs in a dimension), %d elements, %d wire bytes, %d source owner(s), %d destination owner(s)\n",
		len(sched.Blocks), multi, totalElems, totalBytes, len(srcOwners), len(dstOwners))
	fmt.Printf("  messages (caller on processor 0): direct %d, gather-then-scatter bounce %d\n", direct, bounce)
	return nil
}

// showDecomp resolves one decomposition specification and prints the
// processor grid, per-dimension distributions, uniform storage shape,
// per-cell element counts, and (for 1-D and 2-D arrays) the ownership map
// — the paper's Fig 3.5/3.6 tables, generalized to cyclic layouts.
func showDecomp(dimsArg, pArg, distribArg string) error {
	dims, err := parseDims(dimsArg)
	if err != nil {
		return err
	}
	p, err := strconv.Atoi(pArg)
	if err != nil || p < 1 {
		return fmt.Errorf("bad processor count %q", pArg)
	}
	specs, err := grid.ParseDistrib(distribArg)
	if err != nil {
		return err
	}
	if len(specs) != len(dims) {
		return fmt.Errorf("%d specifications for %d dimensions", len(specs), len(dims))
	}
	gridDims, err := grid.GridDims(p, specs)
	if err != nil {
		return err
	}
	dists, err := grid.ResolveDists(dims, gridDims, specs)
	if err != nil {
		return err
	}
	storage, err := grid.StorageDims(dims, gridDims, dists)
	if err != nil {
		return err
	}
	fmt.Printf("array %v over %d processors, distribution (%s)\n", dims, p, grid.DistribString(specs))
	fmt.Printf("  processor grid   %v (%d of %d processors hold sections)\n", gridDims, grid.Size(gridDims), p)
	for i := range dims {
		fmt.Printf("  dimension %d      %v: cycle width %d, storage extent %d\n", i, dists[i], dists[i].B, storage[i])
	}
	// Per-cell element counts, dimension by dimension.
	for i := range dims {
		counts := make([]string, gridDims[i])
		for c := range counts {
			counts[c] = strconv.Itoa(dists[i].Count(dims[i], gridDims[i], c))
		}
		fmt.Printf("  dim %d cell counts %s\n", i, strings.Join(counts, " "))
	}
	if len(dims) > 2 || grid.Size(dims) > 4096 {
		return nil
	}
	fmt.Println("  ownership map (slot per element, row-major grid):")
	cell := func(i, d int) int {
		c, _ := dists[d].Owner(i, gridDims[d])
		return c
	}
	if len(dims) == 1 {
		row := make([]string, dims[0])
		for i := range row {
			row[i] = strconv.Itoa(cell(i, 0))
		}
		fmt.Printf("    %s\n", strings.Join(row, " "))
		return nil
	}
	for i := 0; i < dims[0]; i++ {
		row := make([]string, dims[1])
		for j := range row {
			slot := cell(i, 0)*gridDims[1] + cell(j, 1)
			row[j] = strconv.Itoa(slot)
		}
		fmt.Printf("    %s\n", strings.Join(row, " "))
	}
	return nil
}
