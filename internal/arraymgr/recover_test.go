package arraymgr

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
)

// The recovery plane's pins: buddy replication keeps a replicated array's
// contents bit-identical through a fail-stop kill (promotion + replay),
// checkpoint/restart recovers unreplicated arrays, the replication write
// overhead is exactly one mirror message per write-side owner, and the
// jittered backoff and dedup window behave as specified.

// replicatedKillSpec is killSpec (1d block over four processors) with one
// buddy copy per section.
func replicatedKillSpec() CreateSpec {
	spec := killSpec()
	spec.Replicas = 1
	return spec
}

// TestRecoverKillAndPromote pins the basic failover story: seed a
// replicated array, kill one owner, and require every read and write —
// including the dead owner's piece — to complete with the exact
// pre-kill contents via transparent promotion and replay.
func TestRecoverKillAndPromote(t *testing.T) {
	machine, m := newTestManager(t, 4)
	m.SetCallPolicy(&CallPolicy{Timeout: 5 * time.Millisecond, Retries: 3, Backoff: 100 * time.Microsecond})
	id := mustCreate(t, m, 0, replicatedKillSpec())
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if st := m.WriteBlock(0, id, []int{0}, []int{24}, vals); st != StatusOK {
		t.Fatalf("seed WriteBlock: %v", st)
	}
	if err := machine.Router().KillProcessor(2); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	// The dead owner's piece must come back bit-identical from its buddy,
	// without an explicit RecoverArray call.
	got, st := m.ReadBlock(0, id, []int{0}, []int{24})
	if st != StatusOK {
		t.Fatalf("post-kill ReadBlock: %v", st)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("post-kill contents diverge at %d: %v vs %v", i, got[i], vals[i])
		}
	}
	rs := m.RecoveryStats()
	if rs.Promotions == 0 {
		t.Error("kill recovered with zero promotions")
	}
	if rs.Replays == 0 {
		t.Error("kill recovered with zero replayed calls")
	}
	if rs.Mirrors == 0 {
		t.Error("replicated writes recorded zero mirrors")
	}

	// The promoted layout keeps serving writes (including writes into the
	// promoted section) and reads them back.
	for i := range vals {
		vals[i] = float64(100 + i)
	}
	if st := m.WriteBlock(0, id, []int{0}, []int{24}, vals); st != StatusOK {
		t.Fatalf("post-promotion WriteBlock: %v", st)
	}
	got, st = m.ReadBlock(3, id, []int{0}, []int{24})
	if st != StatusOK {
		t.Fatalf("post-promotion ReadBlock: %v", st)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("post-promotion contents diverge at %d: %v vs %v", i, got[i], vals[i])
		}
	}

	// Losing the promoted primary too (its buddy ring is exhausted at
	// k=1) must surface StatusDown, not hang or lie.
	if err := machine.Router().KillProcessor(3); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	if _, st := m.ReadBlock(0, id, []int{0}, []int{24}); st != StatusDown && st != StatusTimeout {
		t.Fatalf("read past an exhausted buddy ring: %v, want STATUS_DOWN or STATUS_TIMEOUT", st)
	}
}

// TestChaosOracleKillReplicated runs the full randomized all-paths mix —
// dense, strided, gather/scatter, per-element, redistribution — over a
// replicated array with the chaos fault plan active, kills an owner
// mid-run, and requires every operation (before and after the kill) to
// complete bit-identically to the sequential oracle. It runs on a block
// layout, a cyclic one and a block-cyclic one, so buddies mirror
// rectangle shares of both kinds and offset-set pieces.
func TestChaosOracleKillReplicated(t *testing.T) {
	layouts := map[string]bool{"1d/block": true, "1d/cyclic": true, "2d/blockcyclic-block": true}
	for _, c := range oracleCases() {
		base := strings.TrimSuffix(c.name, "/"+c.spec.Indexing.String())
		if c.spec.Indexing == grid.RowMajor && layouts[base] {
			t.Run(c.name, func(t *testing.T) { chaosOracleKillReplicated(t, c) })
		}
	}
}

// chaosOracleKillReplicated is one layout's run of
// TestChaosOracleKillReplicated; every layout kills processor 2.
func chaosOracleKillReplicated(t *testing.T, c oracleCase) {
	const ops = 40
	const killAt = ops / 2
	const victim = 2
	rng := rand.New(rand.NewSource(41))
	machine, m := newTestManager(t, c.p)
	machine.Router().SetFaultPlan(chaosFaultPlan(29))
	m.SetCallPolicy(chaosPolicy())
	spec := c.spec
	spec.Replicas = 1
	id := mustCreate(t, m, 0, spec)
	sh := shadowSpec(spec)
	sh.Replicas = 1
	shadow := mustCreate(t, m, 0, sh)
	ref := newOracle(spec.Dims, spec.Type)
	dims := spec.Dims

	meta, st := m.Meta(0, id)
	if st != StatusOK {
		t.Fatalf("Meta: %v", st)
	}
	origins := append([]int{0}, meta.SectionProcs()...)
	killed := false
	origin := func() int {
		for {
			p := origins[rng.Intn(len(origins))]
			if !killed || p != victim {
				return p
			}
		}
	}

	nextVal := 1.0
	value := func() float64 {
		nextVal++
		return nextVal
	}

	for op := 0; op < ops; op++ {
		if op == killAt {
			if err := machine.Router().KillProcessor(victim); err != nil {
				t.Fatalf("KillProcessor: %v", err)
			}
			killed = true
		}
		switch rng.Intn(8) {
		case 0:
			lo, hi, _ := randomRect(rng, dims)
			vals := make([]float64, grid.RectSize(lo, hi))
			for i := range vals {
				vals[i] = value()
			}
			if st := m.WriteBlock(origin(), id, lo, hi, vals); st != StatusOK {
				t.Fatalf("op %d: WriteBlock: %v", op, st)
			}
			_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error {
				ref.set(idx, vals[k])
				return nil
			})
		case 1:
			lo, hi, _ := randomRect(rng, dims)
			got, st := m.ReadBlock(origin(), id, lo, hi)
			if st != StatusOK {
				t.Fatalf("op %d: ReadBlock: %v", op, st)
			}
			_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error {
				if got[k] != ref.get(idx) {
					t.Fatalf("op %d: ReadBlock[%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
				}
				return nil
			})
		case 2:
			lo, hi, step := randomRect(rng, dims)
			vals := make([]float64, grid.StridedRectSize(lo, hi, step))
			for i := range vals {
				vals[i] = value()
			}
			if st := m.WriteBlockStrided(origin(), id, lo, hi, step, vals); st != StatusOK {
				t.Fatalf("op %d: WriteBlockStrided: %v", op, st)
			}
			_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
				ref.set(idx, vals[k])
				return nil
			})
		case 3:
			lo, hi, step := randomRect(rng, dims)
			got, st := m.ReadBlockStrided(origin(), id, lo, hi, step)
			if st != StatusOK {
				t.Fatalf("op %d: ReadBlockStrided: %v", op, st)
			}
			_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
				if got[k] != ref.get(idx) {
					t.Fatalf("op %d: strided read [%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
				}
				return nil
			})
		case 4:
			indices := randomIndices(rng, dims, 1+rng.Intn(20))
			vals := make([]float64, len(indices))
			for i := range vals {
				vals[i] = value()
			}
			if st := m.ScatterElements(origin(), id, indices, vals); st != StatusOK {
				t.Fatalf("op %d: ScatterElements: %v", op, st)
			}
			for i, idx := range indices {
				ref.set(idx, vals[i])
			}
		case 5:
			indices := randomIndices(rng, dims, 1+rng.Intn(20))
			got, st := m.GatherElements(origin(), id, indices)
			if st != StatusOK {
				t.Fatalf("op %d: GatherElements: %v", op, st)
			}
			for i, idx := range indices {
				if got[i] != ref.get(idx) {
					t.Fatalf("op %d: gather[%d] (%v) = %v, oracle %v", op, i, idx, got[i], ref.get(idx))
				}
			}
		case 6:
			idx := randomIndices(rng, dims, 1)[0]
			if rng.Intn(2) == 0 {
				v := value()
				if st := m.WriteElement(origin(), id, idx, v); st != StatusOK {
					t.Fatalf("op %d: WriteElement: %v", op, st)
				}
				ref.set(idx, v)
			} else {
				got, st := m.ReadElement(origin(), id, idx)
				if st != StatusOK {
					t.Fatalf("op %d: ReadElement: %v", op, st)
				}
				if got != ref.get(idx) {
					t.Fatalf("op %d: ReadElement(%v) = %v, oracle %v", op, idx, got, ref.get(idx))
				}
			}
		case 7:
			lo, hi, step := randomRect(rng, dims)
			strided := false
			for _, s := range step {
				if s != 1 {
					strided = true
				}
			}
			if strided {
				if st := m.RedistributeStrided(origin(), shadow, id, lo, hi, step); st != StatusOK {
					t.Fatalf("op %d: RedistributeStrided: %v", op, st)
				}
				got, st := m.ReadBlockStrided(origin(), shadow, lo, hi, step)
				if st != StatusOK {
					t.Fatalf("op %d: shadow strided readback: %v", op, st)
				}
				_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
					if got[k] != ref.get(idx) {
						t.Fatalf("op %d: redistribute [%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
					}
					return nil
				})
			} else {
				if st := m.Redistribute(origin(), shadow, id, lo, hi); st != StatusOK {
					t.Fatalf("op %d: Redistribute: %v", op, st)
				}
				got, st := m.ReadBlock(origin(), shadow, lo, hi)
				if st != StatusOK {
					t.Fatalf("op %d: shadow readback: %v", op, st)
				}
				_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error {
					if got[k] != ref.get(idx) {
						t.Fatalf("op %d: redistribute [%v] = %v, oracle %v", op, idx, got[k], ref.get(idx))
					}
					return nil
				})
			}
		}
	}

	// Final full dense readback against the oracle, from a survivor.
	lo := make([]int, len(dims))
	snap, st := m.ReadBlock(0, id, lo, dims)
	if st != StatusOK {
		t.Fatalf("final ReadBlock: %v", st)
	}
	_ = grid.ForEachRect(lo, dims, func(idx []int, k int) error {
		if snap[k] != ref.get(idx) {
			t.Fatalf("final state diverges at %v: %v vs oracle %v", idx, snap[k], ref.get(idx))
		}
		return nil
	})
	rs := m.RecoveryStats()
	if rs.Promotions == 0 {
		t.Error("mid-run kill produced zero promotions")
	}
	if rs.Mirrors == 0 {
		t.Error("replicated chaos run recorded zero mirrors")
	}
}

// TestCheckpointRestore pins the k=0 fallback: an unreplicated array's
// checkpoint image restores its exact contents on the surviving
// processors after its owner set is damaged.
func TestCheckpointRestore(t *testing.T) {
	machine, m := newTestManager(t, 4)
	m.SetCallPolicy(&CallPolicy{Timeout: 5 * time.Millisecond, Retries: 3, Backoff: 100 * time.Microsecond})
	id := mustCreate(t, m, 0, killSpec())
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	if st := m.WriteBlock(0, id, []int{0}, []int{24}, vals); st != StatusOK {
		t.Fatalf("seed WriteBlock: %v", st)
	}
	img, st := m.Checkpoint(0, id)
	if st != StatusOK {
		t.Fatalf("Checkpoint: %v", st)
	}
	if got := m.RecoveryStats().CheckpointBytes; got != 24*8 {
		t.Errorf("CheckpointBytes = %d, want %d", got, 24*8)
	}

	if err := machine.Router().KillProcessor(1); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	// The unreplicated array is unrecoverable in place...
	if _, st := m.ReadBlock(0, id, []int{0}, []int{24}); st != StatusDown && st != StatusTimeout {
		t.Fatalf("unreplicated read past a kill: %v, want STATUS_DOWN or STATUS_TIMEOUT", st)
	}
	// ...but the image restores it on the three survivors.
	rid, st := m.Restore(0, img, nil)
	if st != StatusOK {
		t.Fatalf("Restore: %v", st)
	}
	got, st := m.ReadBlock(0, rid, []int{0}, []int{24})
	if st != StatusOK {
		t.Fatalf("restored ReadBlock: %v", st)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("restored contents diverge at %d: %v vs %v", i, got[i], vals[i])
		}
	}
	// The restored array's sections all live on survivors.
	rmeta, st := m.Meta(0, rid)
	if st != StatusOK {
		t.Fatalf("restored Meta: %v", st)
	}
	for _, p := range rmeta.SectionProcs() {
		if p == 1 {
			t.Fatalf("restored array placed a section on the dead processor: %v", rmeta.SectionProcs())
		}
	}
}

// TestReplicatedWriteBudget pins the replication overhead on the healthy
// path: a whole-array write over P owners costs exactly one mirror
// message per write-side owner per replica — and nothing else changes.
func TestReplicatedWriteBudget(t *testing.T) {
	const p = 4
	vals := make([]float64, 24)

	machine, m := newTestManager(t, p)
	plain := mustCreate(t, m, 0, killSpec())
	before := machine.Router().Sent()
	if st := m.WriteBlock(0, plain, []int{0}, []int{24}, vals); st != StatusOK {
		t.Fatalf("plain WriteBlock: %v", st)
	}
	plainMsgs := machine.Router().Sent() - before

	machine2, m2 := newTestManager(t, p)
	repl := mustCreate(t, m2, 0, replicatedKillSpec())
	before = machine2.Router().Sent()
	if st := m2.WriteBlock(0, repl, []int{0}, []int{24}, vals); st != StatusOK {
		t.Fatalf("replicated WriteBlock: %v", st)
	}
	replMsgs := machine2.Router().Sent() - before

	// Plain: P-1 remote owner requests. k=1 replication adds exactly one
	// mirror per each of the P owners.
	if want := uint64(p - 1); plainMsgs != want {
		t.Errorf("plain whole-array write sent %d messages, want %d", plainMsgs, want)
	}
	if want := plainMsgs + p; replMsgs != want {
		t.Errorf("replicated whole-array write sent %d messages, want %d (plain %d + %d mirrors)",
			replMsgs, want, plainMsgs, p)
	}
	if got := m2.RecoveryStats().Mirrors; got != p {
		t.Errorf("Mirrors = %d, want %d", got, p)
	}

	// The healthy replicated READ path is untouched: same budget as plain.
	before = machine.Router().Sent()
	if _, st := m.ReadBlock(0, plain, []int{0}, []int{24}); st != StatusOK {
		t.Fatalf("plain ReadBlock: %v", st)
	}
	plainRead := machine.Router().Sent() - before
	before = machine2.Router().Sent()
	if _, st := m2.ReadBlock(0, repl, []int{0}, []int{24}); st != StatusOK {
		t.Fatalf("replicated ReadBlock: %v", st)
	}
	if replRead := machine2.Router().Sent() - before; replRead != plainRead {
		t.Errorf("replicated read sent %d messages, plain read %d — healthy read path changed", replRead, plainRead)
	}
}

// TestBackoffJitterDeterministic pins the seeded ±20% retry jitter: the
// same seed yields the same sleep sequence, every draw stays within
// [0.8d, 1.2d), and the draws are not all identical (jitter actually
// jitters).
func TestBackoffJitterDeterministic(t *testing.T) {
	const d = time.Millisecond
	draw := func(seed int64) []time.Duration {
		_, m := newTestManager(t, 2)
		m.SetCallPolicy(&CallPolicy{Timeout: time.Millisecond, Retries: 1, Seed: seed})
		out := make([]time.Duration, 20)
		for i := range out {
			out[i] = m.jitterBackoff(d)
		}
		return out
	}
	a, b := draw(42), draw(42)
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 8*d/10 || a[i] >= 12*d/10 {
			t.Fatalf("draw %d = %v outside [0.8d, 1.2d)", i, a[i])
		}
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("20 jitter draws were all identical")
	}
	c := draw(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter sequences")
	}
}

// TestDeduperWindowOverflow pins the dedup window's behavior past its
// 4096-entry capacity: recent ids keep filtering duplicates, the oldest
// ids are forgotten in FIFO order (a retransmit that stale re-executes,
// by design), and the tracked state never exceeds the window.
func TestDeduperWindowOverflow(t *testing.T) {
	var d deduper
	key := func(i int) dedupKey { return dedupKey{origin: 0, id: uint64(i + 1)} }
	const extra = 100
	for i := 0; i < dedupWindow+extra; i++ {
		if d.dup(key(i)) {
			t.Fatalf("fresh key %d reported as duplicate", i)
		}
	}
	if len(d.ring) != dedupWindow || len(d.seen) != dedupWindow {
		t.Fatalf("window state grew past capacity: ring %d, seen %d", len(d.ring), len(d.seen))
	}
	// The newest window of keys is still filtered...
	for i := extra; i < dedupWindow+extra; i++ {
		if !d.dup(key(i)) {
			t.Fatalf("in-window key %d not filtered", i)
		}
	}
	// ...which, being lookups-turned-reinserts of present keys, must not
	// have evicted anything; the oldest pre-overflow keys are forgotten.
	if d.dup(key(0)) {
		t.Fatal("evicted key 0 still reported as duplicate")
	}
}
