// Package cluster boots one logical P-processor machine across several
// real OS processes ("parts") joined by the TCP transport. Part 0
// (the driver) listens and runs the task-parallel program; worker parts
// dial in, boot the same core.Machine partitioned onto their processor
// slice, and park in their serve loops until the driver says bye.
//
// Every part runs the same binary. The driver re-execs itself to spawn
// workers (SpawnWorkers), passing the rendezvous in one environment
// variable; process entry points call WorkerConfig early and, when it
// reports a worker role, hand control to RunWorker and exit. The
// register callback — run on every part before traffic starts — is
// where programs are registered and call policies installed, keeping
// the two sides symmetric by construction.
//
// Worker mesh listen addresses default to loopback ephemeral ports; explicit per-worker addresses (real remote
// hosts, or loopback aliases in tests) come from Config.WorkerAddrs,
// the TDP_CLUSTER_ADDRS environment variable, or a SpawnWorkers option.
package cluster

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	msgnet "repro/internal/msg/net"
)

// WorkerEnv is the environment variable carrying a worker's role:
// "P=<procs>;NPARTS=<parts>;RANK=<rank>;ADDR=<host:port>" plus the
// optional mesh listen address ";MADDR=<host:port>".
const WorkerEnv = "TDP_CLUSTER_WORKER"

// AddrsEnv optionally lists explicit worker mesh listen addresses,
// comma-separated in worker-rank order (first entry = rank 1). Empty
// entries keep the loopback-ephemeral default. Read by StartDriver when
// Config.WorkerAddrs is unset.
const AddrsEnv = "TDP_CLUSTER_ADDRS"

// Config describes one part's view of the cluster.
type Config struct {
	P      int    // virtual processors, machine-wide
	NParts int    // OS processes
	Rank   int    // this part (0 = driver)
	Addr   string // driver listen address; "" = 127.0.0.1:0 (driver only)

	// MeshAddr is this worker's mesh listen address (workers only;
	// "" = 127.0.0.1:0). Set from MADDR by WorkerConfig.
	MeshAddr string
	// WorkerAddrs lists per-worker mesh listen addresses in rank order
	// (entry 0 = rank 1), driver only; nil falls back to AddrsEnv.
	WorkerAddrs []string
}

func (c Config) check() error {
	if c.P < 1 || c.NParts < 2 || c.NParts > c.P {
		return fmt.Errorf("cluster: need 1 <= nparts <= p with nparts >= 2, got p=%d nparts=%d", c.P, c.NParts)
	}
	if c.Rank < 0 || c.Rank >= c.NParts {
		return fmt.Errorf("cluster: rank %d out of range (nparts=%d)", c.Rank, c.NParts)
	}
	return nil
}

// callBase gives each part a disjoint call-id space (see
// dcall.SetCallBase); 1<<40 calls per part is beyond any workload here.
func callBase(rank int) uint64 { return uint64(rank) << 40 }

// Node is one booted part: the machine, its transport, and the config.
type Node struct {
	Cfg Config
	M   *core.Machine
	Tr  *msgnet.Transport

	workers []*exec.Cmd
}

// StartDriver boots part 0: listen, build the partitioned machine, run
// register. Spawn or connect the workers (SpawnWorkers, or processes
// started by hand against node.Addr()), then WaitPeers before traffic.
func StartDriver(cfg Config, register func(*core.Machine) error) (*Node, error) {
	cfg.Rank = 0
	if err := cfg.check(); err != nil {
		return nil, err
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if cfg.WorkerAddrs == nil {
		if v := os.Getenv(AddrsEnv); v != "" {
			cfg.WorkerAddrs = strings.Split(v, ",")
		}
	}
	tr, err := msgnet.Listen(addr, cfg.P, cfg.NParts)
	if err != nil {
		return nil, err
	}
	cfg.Addr = tr.Addr()
	n := &Node{Cfg: cfg, Tr: tr}
	n.M = core.New(cfg.P, core.WithRouterSetup(func(r *msg.Router) {
		r.SetTransport(tr, msgnet.HostedMap(cfg.P, cfg.NParts, 0))
		tr.Attach(r)
	}))
	n.M.RT.SetCallBase(callBase(0))
	if register != nil {
		if err := register(n.M); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// Addr returns the rendezvous address workers dial.
func (n *Node) Addr() string { return n.Cfg.Addr }

// WaitPeers blocks until every worker part is connected and every
// worker has registered its programs and resolved its mesh dials
// (driver only).
func (n *Node) WaitPeers(timeout time.Duration) error { return n.Tr.WaitPeers(timeout) }

// Kill fail-stops processor proc machine-wide: applied locally and
// flooded to every part.
func (n *Node) Kill(proc int) error { return n.Tr.Kill(proc) }

// Close shuts the part down. On the driver it first sends every worker
// a bye frame (orderly machine-wide stop) and reaps spawned workers.
func (n *Node) Close() {
	n.Tr.Shutdown()
	n.M.Close()
	for _, cmd := range n.workers {
		cmd.Wait()
	}
	n.workers = nil
}

// selfSpawn gates SpawnWorkers: re-execing os.Executable is only
// meaningful from an entry point whose main (or TestMain) checks
// WorkerConfig, so such entry points opt in explicitly. Without the
// opt-in a worker re-exec would rerun the caller's whole main.
var selfSpawn atomic.Bool

// EnableSelfSpawn declares that this process's entry point handles the
// worker role (checks WorkerConfig before doing anything else), making
// SpawnWorkers safe to call.
func EnableSelfSpawn() { selfSpawn.Store(true) }

// SelfSpawnEnabled reports whether EnableSelfSpawn has been called.
func SelfSpawnEnabled() bool { return selfSpawn.Load() }

// SpawnOption tunes SpawnWorkers.
type SpawnOption func(*spawnOptions)

type spawnOptions struct {
	addrs []string
}

// WithWorkerAddrs sets explicit mesh listen addresses for the spawned
// workers, in rank order (entry 0 = rank 1); empty entries keep the
// default. Overrides Config.WorkerAddrs and TDP_CLUSTER_ADDRS.
func WithWorkerAddrs(addrs []string) SpawnOption {
	return func(o *spawnOptions) { o.addrs = addrs }
}

// workerEnvValue builds the WorkerEnv payload for one worker rank.
func (n *Node) workerEnvValue(rank int, meshAddr string) string {
	v := fmt.Sprintf("P=%d;NPARTS=%d;RANK=%d;ADDR=%s", n.Cfg.P, n.Cfg.NParts, rank, n.Cfg.Addr)
	if meshAddr != "" {
		v += ";MADDR=" + meshAddr
	}
	return v
}

// SpawnWorkers re-execs this binary once per worker rank, each with
// WorkerEnv set to dial this driver (carrying any explicit mesh
// address). Workers inherit stderr for diagnostics;
// stdout is discarded so driver output stays clean.
func (n *Node) SpawnWorkers(opt ...SpawnOption) error {
	if !SelfSpawnEnabled() {
		return fmt.Errorf("cluster: SpawnWorkers without EnableSelfSpawn — this entry point does not handle the worker role")
	}
	var so spawnOptions
	for _, f := range opt {
		f(&so)
	}
	addrs := so.addrs
	if addrs == nil {
		addrs = n.Cfg.WorkerAddrs
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for rank := 1; rank < n.Cfg.NParts; rank++ {
		meshAddr := ""
		if i := rank - 1; i < len(addrs) {
			meshAddr = addrs[i]
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), WorkerEnv+"="+n.workerEnvValue(rank, meshAddr))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("cluster: spawn worker %d: %w", rank, err)
		}
		n.workers = append(n.workers, cmd)
	}
	return nil
}

// WorkerConfig inspects the environment for a worker role. Entry points
// that support self-spawned clusters call it first thing in main (or
// TestMain) and, when ok, run RunWorker and exit.
func WorkerConfig() (Config, bool) {
	v := os.Getenv(WorkerEnv)
	if v == "" {
		return Config{}, false
	}
	cfg, _ := ParseWorkerEnv(v)
	return cfg, true
}

// ParseWorkerEnv decodes one WorkerEnv payload. Exported for tests and
// external launchers that assemble worker environments by hand.
func ParseWorkerEnv(v string) (Config, error) {
	var cfg Config
	for _, kv := range strings.Split(v, ";") {
		k, val, found := strings.Cut(kv, "=")
		if !found {
			continue
		}
		switch k {
		case "P":
			cfg.P, _ = strconv.Atoi(val)
		case "NPARTS":
			cfg.NParts, _ = strconv.Atoi(val)
		case "RANK":
			cfg.Rank, _ = strconv.Atoi(val)
		case "ADDR":
			cfg.Addr = val
		case "MADDR":
			cfg.MeshAddr = val
		}
	}
	return cfg, cfg.check()
}

// RunWorker boots a worker part and blocks until the driver shuts the
// machine down (bye frame or lost connection): dial, build the
// partitioned machine, run register, attach, park. The worker's task
// level runs nothing — its processors serve array-manager and spawn
// traffic.
//
// The transport is attached only after register returns: until then no
// frame is read, so the mesh directory, this worker's mesh dials and its
// mesh-ready report — and with them the driver's WaitPeers — all wait
// until every program is registered.
func RunWorker(cfg Config, register func(*core.Machine) error) error {
	if err := cfg.check(); err != nil {
		return err
	}
	if cfg.Rank == 0 {
		return fmt.Errorf("cluster: RunWorker with rank 0 — use StartDriver")
	}
	var opts []msgnet.Option
	if cfg.MeshAddr != "" {
		opts = append(opts, msgnet.WithMeshAddr(cfg.MeshAddr))
	}
	tr, err := msgnet.Dial(cfg.Addr, cfg.P, cfg.NParts, cfg.Rank, opts...)
	if err != nil {
		return err
	}
	m := core.New(cfg.P, core.WithRouterSetup(func(r *msg.Router) {
		r.SetTransport(tr, msgnet.HostedMap(cfg.P, cfg.NParts, cfg.Rank))
	}))
	m.RT.SetCallBase(callBase(cfg.Rank))
	if register != nil {
		if err := register(m); err != nil {
			tr.Close()
			m.Close()
			return err
		}
	}
	tr.Attach(m.VM.Router())
	tr.Wait()
	m.Close()
	return nil
}
