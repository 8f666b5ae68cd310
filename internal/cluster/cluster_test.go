package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps/climate"
	"repro/internal/arraymgr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcall"
	"repro/internal/grid"
	"repro/internal/spmd"
)

// registerPart is the symmetric per-part setup: every part — driver and
// spawned worker alike — registers the same programs and installs the
// same call policy, which is what makes cross-process spawns and
// owner-originated recovery traffic work by construction.
func registerPart(m *core.Machine) error {
	if err := climate.RegisterPrograms(m); err != nil {
		return err
	}
	m.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 2 * time.Second, Retries: 3})
	return nil
}

// TestMain is the worker hook: when the driver re-execs this test
// binary with the cluster role variable set, boot a worker part instead
// of running the test list.
func TestMain(m *testing.M) {
	if cfg, ok := cluster.WorkerConfig(); ok {
		if err := cluster.RunWorker(cfg, registerPart); err != nil {
			fmt.Fprintln(os.Stderr, "cluster worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	cluster.EnableSelfSpawn()
	os.Exit(m.Run())
}

func startCluster(t *testing.T, p, nparts int, opt ...cluster.SpawnOption) *cluster.Node {
	t.Helper()
	node, err := cluster.StartDriver(cluster.Config{P: p, NParts: nparts}, registerPart)
	if err != nil {
		t.Fatalf("StartDriver: %v", err)
	}
	t.Cleanup(node.Close)
	if err := node.SpawnWorkers(opt...); err != nil {
		t.Fatalf("SpawnWorkers: %v", err)
	}
	if err := node.WaitPeers(30 * time.Second); err != nil {
		t.Fatalf("WaitPeers: %v", err)
	}
	return node
}

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

// TestClimateIdenticalAcrossProcesses runs the paper's coupled climate
// model three ways — sequential reference, one-process machine, and a
// machine partitioned across two real OS processes over loopback TCP —
// and requires bit-identical fields from all three.
func TestClimateIdenticalAcrossProcesses(t *testing.T) {
	cfg := climate.Config{Rows: 8, Cols: 8, Steps: 4, Alpha: 0.15}
	want := climate.RunSequential(cfg)

	inproc := core.New(4)
	if err := registerPart(inproc); err != nil {
		t.Fatalf("register: %v", err)
	}
	resIn, err := climate.Run(inproc, cfg)
	inproc.Close()
	if err != nil {
		t.Fatalf("in-process Run: %v", err)
	}

	node := startCluster(t, 4, 2)
	resNet, err := climate.Run(node.M, cfg)
	if err != nil {
		t.Fatalf("cluster Run: %v", err)
	}

	if !sameBits(resIn.Ocean, want.Ocean) || !sameBits(resIn.Atmosphere, want.Atmosphere) {
		t.Fatal("in-process run differs from sequential reference")
	}
	if !sameBits(resNet.Ocean, resIn.Ocean) {
		t.Fatal("cluster ocean field differs from in-process run")
	}
	if !sameBits(resNet.Atmosphere, resIn.Atmosphere) {
		t.Fatal("cluster atmosphere field differs from in-process run")
	}
}

// TestUnencodableConstAcrossWire calls a group hosted entirely on the
// worker part with a constant the wire cannot encode (a type nobody
// gob.Register'd). The spawn order's codec cannot return an error, so
// the call must be refused before anything is sent: STATUS_ERROR, no
// panic in the encoder, no hung caller, and a cluster that still runs.
func TestUnencodableConstAcrossWire(t *testing.T) {
	type unregistered struct{ Rows int }
	node := startCluster(t, 4, 2)
	done := make(chan int, 1)
	go func() {
		done <- node.M.CallStatus([]int{2, 3}, climate.ProgDiffuse, dcall.Const(unregistered{8}))
	}()
	select {
	case st := <-done:
		if st != dcall.StatusError {
			t.Fatalf("call with an unencodable constant: status %d, want STATUS_ERROR", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call with an unencodable constant hung")
	}

	cfg := climate.Config{Rows: 8, Cols: 8, Steps: 2, Alpha: 0.15}
	want := climate.RunSequential(cfg)
	res, err := climate.Run(node.M, cfg)
	if err != nil {
		t.Fatalf("cluster Run after the refused call: %v", err)
	}
	if !sameBits(res.Ocean, want.Ocean) || !sameBits(res.Atmosphere, want.Atmosphere) {
		t.Fatal("cluster run after the refused call differs from sequential reference")
	}
}

// oracleOps drives one machine through a seeded randomized workload
// covering every data-plane path — dense and strided block transfers,
// gather/scatter, element ops, and redistribution between differently
// distributed arrays, a block-cyclic one among them so that run-list
// pieces and ships cross the codec — and returns every byte the machine
// produced. Two machines given the same seed must return identical logs.
func oracleOps(m *core.Machine, seed int64, iters int) ([]float64, error) {
	const rows, cols = 12, 8
	rng := rand.New(rand.NewSource(seed))

	blockSpec := core.ArraySpec{
		Dims:    []int{rows, cols},
		Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
	}
	cyclicSpec := core.ArraySpec{
		Dims:    []int{rows, cols},
		Distrib: []grid.Decomp{grid.CyclicDefault(), grid.NoDecomp()},
	}
	a, err := m.NewArray(blockSpec)
	if err != nil {
		return nil, fmt.Errorf("create block array: %w", err)
	}
	defer a.Free()
	b, err := m.NewArray(cyclicSpec)
	if err != nil {
		return nil, fmt.Errorf("create cyclic array: %w", err)
	}
	defer b.Free()
	c, err := m.NewArray(core.ArraySpec{
		Dims:    []int{rows, cols},
		Distrib: []grid.Decomp{grid.BlockCyclicOf(2), grid.BlockCyclicOf(3)},
	})
	if err != nil {
		return nil, fmt.Errorf("create block-cyclic array: %w", err)
	}
	defer c.Free()
	arrs := []*core.Array{a, b, c}
	for _, arr := range arrs {
		if err := arr.Fill(func(idx []int) float64 {
			return float64(idx[0]*cols+idx[1]) / 7
		}); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
	}

	rect := func() (lo, hi []int) {
		l0 := rng.Intn(rows - 1)
		l1 := rng.Intn(cols - 1)
		return []int{l0, l1}, []int{l0 + 1 + rng.Intn(rows-l0-1), l1 + 1 + rng.Intn(cols-l1-1)}
	}
	indices := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{rng.Intn(rows), rng.Intn(cols)}
		}
		return out
	}
	var log []float64
	for i := 0; i < iters; i++ {
		xi := rng.Intn(len(arrs))
		x := arrs[xi]
		switch rng.Intn(8) {
		case 0:
			lo, hi := rect()
			vals := make([]float64, grid.RectSize(lo, hi))
			for j := range vals {
				vals[j] = rng.Float64()
			}
			if err := x.WriteBlock(lo, hi, vals); err != nil {
				return nil, fmt.Errorf("op %d write_block: %w", i, err)
			}
		case 1:
			lo, hi := rect()
			got, err := x.ReadBlock(lo, hi)
			if err != nil {
				return nil, fmt.Errorf("op %d read_block: %w", i, err)
			}
			log = append(log, got...)
		case 2:
			lo, hi := rect()
			got, err := x.ReadBlockStrided(lo, hi, []int{2, 2})
			if err != nil {
				return nil, fmt.Errorf("op %d read_block_strided: %w", i, err)
			}
			log = append(log, got...)
		case 3:
			idxs := indices(1 + rng.Intn(6))
			got, err := x.GatherElements(idxs)
			if err != nil {
				return nil, fmt.Errorf("op %d gather: %w", i, err)
			}
			log = append(log, got...)
		case 4:
			idxs := indices(1 + rng.Intn(6))
			vals := make([]float64, len(idxs))
			for j := range vals {
				vals[j] = rng.Float64()
			}
			if err := x.ScatterElements(idxs, vals); err != nil {
				return nil, fmt.Errorf("op %d scatter: %w", i, err)
			}
		case 5:
			if err := x.Write(rng.Float64(), rng.Intn(rows), rng.Intn(cols)); err != nil {
				return nil, fmt.Errorf("op %d write_element: %w", i, err)
			}
		case 6:
			v, err := x.Read(rng.Intn(rows), rng.Intn(cols))
			if err != nil {
				return nil, fmt.Errorf("op %d read_element: %w", i, err)
			}
			log = append(log, v)
		case 7:
			lo, hi := rect()
			src := arrs[(xi+1+rng.Intn(len(arrs)-1))%len(arrs)]
			if err := x.RedistributeFrom(src, lo, hi); err != nil {
				return nil, fmt.Errorf("op %d redistribute: %w", i, err)
			}
		}
	}
	for _, arr := range arrs {
		snap, err := arr.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		log = append(log, snap...)
	}
	return log, nil
}

// TestOracleAllPathsAcrossWire replays the same seeded all-paths
// workload on an in-process machine and on a machine split across two
// OS processes, and requires every produced byte — intermediate reads
// and final snapshots — to be bit-identical. The wire seam must be
// semantically invisible.
func TestOracleAllPathsAcrossWire(t *testing.T) {
	const seed, iters = 42, 60

	inproc := core.New(4)
	if err := registerPart(inproc); err != nil {
		t.Fatalf("register: %v", err)
	}
	wantLog, err := oracleOps(inproc, seed, iters)
	inproc.Close()
	if err != nil {
		t.Fatalf("in-process oracle: %v", err)
	}

	node := startCluster(t, 4, 2)
	gotLog, err := oracleOps(node.M, seed, iters)
	if err != nil {
		t.Fatalf("cluster oracle: %v", err)
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("log lengths differ: cluster %d, in-process %d", len(gotLog), len(wantLog))
	}
	if !sameBits(gotLog, wantLog) {
		t.Fatal("cluster oracle log differs from in-process log")
	}
}

// TestLargePayloadsAcrossWire moves payload-sized buffers through every
// recycling hop at once: a 1 Mi-element block array on 4 processors
// split over two parts, so each owner's piece is 2 MiB, above the
// frame and float-buffer sizes small transfers use. Two goroutines own
// disjoint halves, one served in the driver process and one across the
// wire, and each round writes fresh values and reads them back into a
// poisoned buffer. A buffer recycled while a frame, a reply or a
// retransmit still referenced it would show as a mismatch here or as a
// race under -race.
func TestLargePayloadsAcrossWire(t *testing.T) {
	const n, rounds = 1 << 20, 6
	node := startCluster(t, 4, 2)
	a, err := node.M.NewArray(core.ArraySpec{Dims: []int{n}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			lo, hi := []int{g * n / 2}, []int{(g + 1) * n / 2}
			rng := rand.New(rand.NewSource(int64(g)))
			want := make([]float64, n/2)
			got := make([]float64, n/2)
			for r := 0; r < rounds; r++ {
				for i := range want {
					want[i] = rng.NormFloat64()
					got[i] = math.NaN()
				}
				if err := a.WriteBlock(lo, hi, want); err != nil {
					errs <- fmt.Errorf("half %d round %d: WriteBlock: %w", g, r, err)
					return
				}
				if err := a.ReadBlockInto(lo, hi, got); err != nil {
					errs <- fmt.Errorf("half %d round %d: ReadBlockInto: %w", g, r, err)
					return
				}
				if !sameBits(got, want) {
					errs <- fmt.Errorf("half %d round %d: read back differs from the values written", g, r)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestKillRecoverAcrossWire creates a replicated array spanning both
// parts, fail-stops a worker-hosted processor, promotes the buddy
// copies, and requires the full contents back — the recovery plane
// running over a real transport.
func TestKillRecoverAcrossWire(t *testing.T) {
	node := startCluster(t, 4, 2)
	m := node.M

	a, err := m.NewArray(core.ArraySpec{Dims: []int{16}, Replicas: 1})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	want := make([]float64, 16)
	for i := range want {
		want[i] = float64(i) * 1.5
	}
	if err := a.WriteBlock([]int{0}, []int{16}, want); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}

	// Processor 3 lives in the worker process; kill it machine-wide.
	if err := node.Kill(3); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if !m.VM.Router().Down(3) {
		t.Fatal("driver does not report processor 3 down")
	}
	if err := m.RecoverArray(a); err != nil {
		t.Fatalf("RecoverArray: %v", err)
	}
	got, err := a.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after recovery: %v", err)
	}
	if !sameBits(got, want) {
		t.Fatalf("recovered contents differ: got %v, want %v", got, want)
	}
}

// TestOracleThreeParts splits the machine across three OS processes —
// the first cluster shape with genuine worker↔worker traffic over the
// mesh links — and requires the all-paths oracle log bit-identical to
// in-process.
func TestOracleThreeParts(t *testing.T) {
	const seed, iters = 1234, 60

	inproc := core.New(6)
	if err := registerPart(inproc); err != nil {
		t.Fatalf("register: %v", err)
	}
	wantLog, err := oracleOps(inproc, seed, iters)
	inproc.Close()
	if err != nil {
		t.Fatalf("in-process oracle: %v", err)
	}

	t.Run("mesh+batch", func(t *testing.T) {
		node := startCluster(t, 6, 3)
		gotLog, err := oracleOps(node.M, seed, iters)
		if err != nil {
			t.Fatalf("cluster oracle: %v", err)
		}
		if len(gotLog) != len(wantLog) || !sameBits(gotLog, wantLog) {
			t.Fatal("three-part cluster oracle log differs from in-process log")
		}
	})
}

// TestWorkerAddrs pins the explicit-address plumbing end to end: the
// spawned workers bind their mesh listeners on distinct loopback
// aliases (the stand-in for real remote hosts) and the machine still
// produces bit-identical results.
func TestWorkerAddrs(t *testing.T) {
	cfg := climate.Config{Rows: 8, Cols: 8, Steps: 4, Alpha: 0.15}
	want := climate.RunSequential(cfg)

	node := startCluster(t, 4, 3,
		cluster.WithWorkerAddrs([]string{"127.0.0.2:0", "127.0.0.3:0"}))
	got, err := climate.Run(node.M, cfg)
	if err != nil {
		t.Fatalf("cluster Run: %v", err)
	}
	if !sameBits(got.Ocean, want.Ocean) || !sameBits(got.Atmosphere, want.Atmosphere) {
		t.Fatal("cluster run with explicit worker addresses differs from sequential reference")
	}
}

// TestWorkerAddrsFromEnv is the same pin through the TDP_CLUSTER_ADDRS
// environment variable — the path external launchers use.
func TestWorkerAddrsFromEnv(t *testing.T) {
	t.Setenv(cluster.AddrsEnv, "127.0.0.2:0,127.0.0.3:0")

	cfg := climate.Config{Rows: 8, Cols: 8, Steps: 4, Alpha: 0.15}
	want := climate.RunSequential(cfg)

	node := startCluster(t, 4, 3)
	if len(node.Cfg.WorkerAddrs) != 2 {
		t.Fatalf("driver did not pick up %s: %v", cluster.AddrsEnv, node.Cfg.WorkerAddrs)
	}
	got, err := climate.Run(node.M, cfg)
	if err != nil {
		t.Fatalf("cluster Run: %v", err)
	}
	if !sameBits(got.Ocean, want.Ocean) || !sameBits(got.Atmosphere, want.Atmosphere) {
		t.Fatal("cluster run with env-provided worker addresses differs from sequential reference")
	}
}

// TestParseWorkerEnv pins the worker-env wire format: every field,
// the mesh address included, survives the round trip.
func TestParseWorkerEnv(t *testing.T) {
	cfg, err := cluster.ParseWorkerEnv("P=6;NPARTS=3;RANK=2;ADDR=127.0.0.1:9999;MADDR=127.0.0.3:0")
	if err != nil {
		t.Fatalf("ParseWorkerEnv: %v", err)
	}
	want := cluster.Config{P: 6, NParts: 3, Rank: 2, Addr: "127.0.0.1:9999", MeshAddr: "127.0.0.3:0"}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parsed config %+v, want %+v", cfg, want)
	}
	if _, err := cluster.ParseWorkerEnv("P=2;NPARTS=3;RANK=1;ADDR=x"); err == nil {
		t.Fatal("ParseWorkerEnv accepted nparts > p")
	}
}

// TestWaitPeersAwaitsWorkerRegister pins the start-up order: the driver's
// WaitPeers must not return before every worker's register callback has
// finished, so a program the driver calls right away is already known on
// every part. The worker runs in-process and registers its program only
// after a delay; a worker that answered the mesh handshake before
// registering would fail the call with STATUS_INVALID.
func TestWaitPeersAwaitsWorkerRegister(t *testing.T) {
	const prog = "late_program"
	body := func(*spmd.World, *dcall.Args) {}
	register := func(m *core.Machine) error { return m.Register(prog, body) }

	node, err := cluster.StartDriver(cluster.Config{P: 2, NParts: 2}, register)
	if err != nil {
		t.Fatalf("StartDriver: %v", err)
	}
	worker := make(chan error, 1)
	go func() {
		worker <- cluster.RunWorker(cluster.Config{P: 2, NParts: 2, Rank: 1, Addr: node.Addr()},
			func(m *core.Machine) error {
				time.Sleep(200 * time.Millisecond)
				return register(m)
			})
	}()
	if err := node.WaitPeers(30 * time.Second); err != nil {
		t.Fatalf("WaitPeers: %v", err)
	}
	callErr := node.M.Call([]int{0, 1}, prog)
	node.Close()
	if err := <-worker; err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if callErr != nil {
		t.Fatalf("call right after WaitPeers: %v", callErr)
	}
}
