package arraymgr

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/vp"
)

// The chaos oracle: the same randomized all-paths property harness as
// oracle_test.go, but run over a router that drops, duplicates, delays
// and reorders messages under a seeded fault plan, with the manager's
// timeout/retry policy installed. Correctness must be bit-identical to
// the sequential reference — the fault plane may cost retransmits, never
// wrong answers — and the retransmit counters must stay within a budget
// proportional to the injected drops (no retransmit storms).

// chaosFaultPlan is the standard chaos mix: drop and duplicate a little
// under one in ten messages each, jitter deliveries by up to 100µs, and
// swap queue neighbours now and then.
func chaosFaultPlan(seed int64) *msg.FaultPlan {
	return &msg.FaultPlan{
		Seed: seed,
		Rule: msg.FaultRule{
			Drop:    0.08,
			Dup:     0.08,
			Jitter:  100 * time.Microsecond,
			Reorder: 0.1,
		},
	}
}

// chaosPolicy keeps the per-attempt timeout far above the plan's jitter
// (so a delayed message is never mistaken for a lost one) while staying
// small enough that the drops the plan does inject cost milliseconds,
// not seconds. Retries is generous: eleven consecutive drops of the
// same request at p=0.08 has probability ~1e-12.
func chaosPolicy() *CallPolicy {
	return &CallPolicy{
		Timeout: 3 * time.Millisecond,
		Retries: 10,
		Backoff: 200 * time.Microsecond,
	}
}

// calmPolicy is for tests that pin zero retransmits. Its timeout sits
// far above any scheduling stall of a loaded -race run (at chaosPolicy's
// 3 ms a slow scheduler alone counts as a loss), and its one retry turns
// a request that is never answered into a counted retransmit, and then
// a failed call, within seconds.
func calmPolicy() *CallPolicy {
	return &CallPolicy{Timeout: time.Second, Retries: 1, Backoff: 200 * time.Microsecond}
}

// shadowSpec derives a second array specification with the same shape
// and element type but a deliberately different distribution (cyclic in
// the leading dimension), so redistribute ops cross decomposition
// boundaries.
func shadowSpec(spec CreateSpec) CreateSpec {
	out := spec
	out.Borders = NoBorderSpec{}
	distrib := make([]grid.Decomp, len(spec.Dims))
	distrib[0] = grid.CyclicDefault()
	for i := 1; i < len(distrib); i++ {
		distrib[i] = grid.NoDecomp()
	}
	out.Distrib = distrib
	return out
}

// TestChaosOracleAllPaths re-runs the randomized operation mix of
// TestOracleAllPaths — dense, strided, gather/scatter, per-element, plus
// owner-to-owner redistribution into a differently-distributed shadow
// array — under the chaos fault plan, checking every result against the
// sequential oracle and pinning the retransmit budget.
func TestChaosOracleAllPaths(t *testing.T) {
	const ops = 40
	rng := rand.New(rand.NewSource(9))
	var totalDropped, totalDuplicated, totalRetransmits uint64
	for ci, c := range oracleCases() {
		ci, c := ci, c
		t.Run(c.name, func(t *testing.T) {
			machine, m := newTestManager(t, c.p)
			machine.Router().SetFaultPlan(chaosFaultPlan(int64(ci)*7919 + 11))
			m.SetCallPolicy(chaosPolicy())
			id := mustCreate(t, m, 0, c.spec)
			shadow := mustCreate(t, m, 0, shadowSpec(c.spec))
			ref := newOracle(c.spec.Dims, c.spec.Type)
			dims := c.spec.Dims
			nd := len(dims)

			meta, st := m.Meta(0, id)
			if st != StatusOK {
				t.Fatalf("Meta: %v", st)
			}
			origins := append([]int{0}, meta.SectionProcs()...)
			origin := func() int { return origins[rng.Intn(len(origins))] }

			nextVal := 1.0
			value := func() float64 {
				nextVal++
				return nextVal
			}

			for op := 0; op < ops; op++ {
				switch rng.Intn(8) {
				case 0: // dense write
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
				case 1: // dense read
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
				case 2: // strided write
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
				case 3: // strided read
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
				case 4: // scatter
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
				case 5: // gather
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
				case 6: // per-element probe
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
				case 7: // redistribute into the shadow array, then read it back
					lo, hi, step := randomRect(rng, dims)
					strided := false
					for _, s := range step {
						if s != 1 {
							strided = true
						}
					}
					var got []float64
					if strided {
						if st := m.RedistributeStrided(origin(), shadow, id, lo, hi, step); st != StatusOK {
							t.Fatalf("op %d: RedistributeStrided: %v", op, st)
						}
						got, st = m.ReadBlockStrided(origin(), shadow, lo, hi, step)
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
						got, st = m.ReadBlock(origin(), shadow, lo, hi)
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

			// Final full dense readback against the oracle.
			lo := make([]int, nd)
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

			// Budget pins: retransmits must scale with injected drops (one
			// dropped redistribute fan-out request can force up to
			// owner×owner pair resends, hence the wide multiplier), and a
			// retransmit without timeouts is impossible.
			fs := machine.Router().FaultStats()
			rs := m.RetryStats()
			if rs.Retransmits > 64*(fs.Dropped+1) {
				t.Fatalf("retransmit storm: %d retransmits for %d drops", rs.Retransmits, fs.Dropped)
			}
			if rs.Retransmits > 0 && rs.Timeouts == 0 {
				t.Fatalf("%d retransmits with no recorded timeout", rs.Retransmits)
			}
			totalDropped += fs.Dropped
			totalDuplicated += fs.Duplicated
			totalRetransmits += rs.Retransmits
		})
	}
	// Across the sweep the plan must actually have bitten — a chaos run
	// that never dropped, never duplicated, or never retransmitted is not
	// exercising the recovery machinery.
	if totalDropped == 0 {
		t.Error("fault plan dropped no messages across the whole sweep")
	}
	if totalDuplicated == 0 {
		t.Error("fault plan duplicated no messages across the whole sweep")
	}
	if totalRetransmits == 0 {
		t.Error("no retransmits across the whole sweep: recovery machinery untested")
	}
}

// TestNoFaultNoRetransmits pins the quiescent case: with a policy
// installed but no fault plan, a workload identical in shape to the
// chaos mix completes with zero retransmits and zero timeouts — the
// deadline machinery is pure overhead-free bookkeeping on a healthy
// router. The policy's timeout sits far above scheduling noise, so a
// slow scheduler is not mistaken for a lost message.
func TestNoFaultNoRetransmits(t *testing.T) {
	c := oracleCases()[1] // 2d/block-block
	_, m := newTestManager(t, c.p)
	m.SetCallPolicy(calmPolicy())
	id := mustCreate(t, m, 0, c.spec)
	dims := c.spec.Dims
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 30; op++ {
		lo, hi, _ := randomRect(rng, dims)
		vals := make([]float64, grid.RectSize(lo, hi))
		for i := range vals {
			vals[i] = float64(op)
		}
		if st := m.WriteBlock(0, id, lo, hi, vals); st != StatusOK {
			t.Fatalf("WriteBlock: %v", st)
		}
		if _, st := m.ReadBlock(1, id, lo, hi); st != StatusOK {
			t.Fatalf("ReadBlock: %v", st)
		}
	}
	rs := m.RetryStats()
	if rs.Retransmits != 0 || rs.Timeouts != 0 {
		t.Fatalf("healthy router cost retransmits=%d timeouts=%d", rs.Retransmits, rs.Timeouts)
	}
}

// TestChaosDupEveryOp duplicates every message and runs each operation
// family once: create, dense and strided read and write, gather and
// scatter, per-element access, block→cyclic and block_cyclic(2)→
// block_cyclic(3) redistribution, find, verify and free. A duplicate is
// a codec copy: it answers the same completion-table ids as its original
// but shares none of its pooled buffers, so the write shares, ship
// requests and ship payloads stay pooled, and results must match the
// oracle. The owner's dedup filter drops each copy, and zero
// retransmits proves every call was answered on its first attempt.
func TestChaosDupEveryOp(t *testing.T) {
	const p = 4
	machine, m := newTestManager(t, p)
	machine.Router().SetFaultPlan(&msg.FaultPlan{Seed: 5, Rule: msg.FaultRule{Dup: 1}})
	m.SetCallPolicy(calmPolicy())
	procs := []int{0, 1, 2, 3}
	dims := []int{12, 8}
	spec := func(d0, d1 grid.Decomp) CreateSpec {
		return CreateSpec{Type: darray.Double, Dims: dims, Procs: procs,
			Distrib: []grid.Decomp{d0, d1}, Borders: NoBorderSpec{}, Indexing: grid.RowMajor}
	}
	id := mustCreate(t, m, 1, spec(grid.BlockDefault(), grid.BlockDefault()))
	cyc := mustCreate(t, m, 2, spec(grid.CyclicDefault(), grid.NoDecomp()))
	bc2 := mustCreate(t, m, 3, spec(grid.BlockCyclicOf(2), grid.NoDecomp()))
	bc3 := mustCreate(t, m, 0, spec(grid.BlockCyclicOf(3), grid.NoDecomp()))
	ref := newOracle(dims, darray.Double)
	origin, full := []int{0, 0}, dims
	// check reads all of arr back from onProc and compares it with ref.
	check := func(what string, onProc int, arr darray.ID) {
		t.Helper()
		got, st := m.ReadBlock(onProc, arr, origin, full)
		if st != StatusOK {
			t.Fatalf("%s: ReadBlock: %v", what, st)
		}
		_ = grid.ForEachRect(origin, full, func(idx []int, k int) error {
			if got[k] != ref.get(idx) {
				t.Fatalf("%s: [%v] = %v, oracle %v", what, idx, got[k], ref.get(idx))
			}
			return nil
		})
	}
	next := 0.0
	fill := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			next++
			vals[i] = next
		}
		return vals
	}

	vals := fill(grid.RectSize(origin, full))
	if st := m.WriteBlock(0, id, origin, full, vals); st != StatusOK {
		t.Fatalf("WriteBlock: %v", st)
	}
	_ = grid.ForEachRect(origin, full, func(idx []int, k int) error { ref.set(idx, vals[k]); return nil })
	check("dense write", 1, id)

	lo, hi := []int{2, 1}, []int{9, 7}
	vals = fill(grid.RectSize(lo, hi))
	if st := m.WriteBlock(2, id, lo, hi, vals); st != StatusOK {
		t.Fatalf("WriteBlock: %v", st)
	}
	_ = grid.ForEachRect(lo, hi, func(idx []int, k int) error { ref.set(idx, vals[k]); return nil })
	check("sub-rectangle write", 3, id)

	lo, hi, step := []int{1, 0}, []int{12, 8}, []int{3, 2}
	vals = fill(grid.StridedRectSize(lo, hi, step))
	if st := m.WriteBlockStrided(3, id, lo, hi, step, vals); st != StatusOK {
		t.Fatalf("WriteBlockStrided: %v", st)
	}
	_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error { ref.set(idx, vals[k]); return nil })
	lo, hi, step = []int{0, 1}, []int{11, 8}, []int{2, 3}
	got, st := m.ReadBlockStrided(1, id, lo, hi, step)
	if st != StatusOK {
		t.Fatalf("ReadBlockStrided: %v", st)
	}
	_ = grid.ForEachStridedRect(lo, hi, step, func(idx []int, k int) error {
		if got[k] != ref.get(idx) {
			t.Fatalf("strided read [%v] = %v, oracle %v", idx, got[k], ref.get(idx))
		}
		return nil
	})

	// The repeated index takes the value at its last occurrence.
	indices := [][]int{{0, 0}, {11, 7}, {5, 3}, {6, 4}, {0, 0}, {11, 0}}
	vals = fill(len(indices))
	if st := m.ScatterElements(1, id, indices, vals); st != StatusOK {
		t.Fatalf("ScatterElements: %v", st)
	}
	for i, idx := range indices {
		ref.set(idx, vals[i])
	}
	got, st = m.GatherElements(2, id, indices)
	if st != StatusOK {
		t.Fatalf("GatherElements: %v", st)
	}
	for i, idx := range indices {
		if got[i] != ref.get(idx) {
			t.Fatalf("gather[%d] (%v) = %v, oracle %v", i, idx, got[i], ref.get(idx))
		}
	}

	next++
	if st := m.WriteElement(0, id, []int{7, 6}, next); st != StatusOK {
		t.Fatalf("WriteElement: %v", st)
	}
	ref.set([]int{7, 6}, next)
	if v, st := m.ReadElement(3, id, []int{7, 6}); st != StatusOK || v != next {
		t.Fatalf("ReadElement = %v, %v; want %v", v, st, next)
	}
	check("element access", 0, id)

	if st := m.Redistribute(1, cyc, id, origin, full); st != StatusOK {
		t.Fatalf("Redistribute block→cyclic: %v", st)
	}
	check("block→cyclic", 2, cyc)
	if st := m.Redistribute(2, bc2, cyc, origin, full); st != StatusOK {
		t.Fatalf("Redistribute cyclic→block_cyclic(2): %v", st)
	}
	if st := m.Redistribute(3, bc3, bc2, origin, full); st != StatusOK {
		t.Fatalf("Redistribute block_cyclic(2)→block_cyclic(3): %v", st)
	}
	check("block_cyclic(2)→block_cyclic(3)", 0, bc3)

	if sec, st := m.FindLocal(2, id); st != StatusOK || sec == nil {
		t.Fatalf("FindLocal: %v, %v", sec, st)
	}
	if st := m.VerifyArray(1, id, 2, NoBorderSpec{}, grid.RowMajor); st != StatusOK {
		t.Fatalf("VerifyArray: %v", st)
	}
	for _, a := range []darray.ID{id, cyc, bc2, bc3} {
		if st := m.FreeArray(0, a); st != StatusOK {
			t.Fatalf("FreeArray: %v", st)
		}
	}
	if _, st := m.ReadBlock(1, id, origin, full); st != StatusNotFound {
		t.Fatalf("ReadBlock after free: %v, want STATUS_NOT_FOUND", st)
	}

	if fs := machine.Router().FaultStats(); fs.Duplicated == 0 {
		t.Fatal("the plan duplicated no messages")
	}
	if rs := m.RetryStats(); rs.Retransmits != 0 {
		t.Fatalf("%d retransmits: a duplicate beat its original to an owner", rs.Retransmits)
	}
}

// TestChaosDupNoPolicyRedistribute duplicates every message with no
// call policy installed and runs 200 block→cyclic redistributions of 64
// elements over four processors. Without a policy nothing is deduped,
// so duplicated redist_src orders and ships answer their pairs twice;
// the completion table takes one answer per pair index and refuses the
// rest, so every call returns, within 2 s, with the right values. (A
// shared ack channel sized one per pair filled up with the extra
// answers and dropped a real one, and the gather waited forever.)
func TestChaosDupNoPolicyRedistribute(t *testing.T) {
	const p, n = 4, 64
	machine, m := newTestManager(t, p)
	src := mustCreate(t, m, 0, distSpec(n, p, grid.BlockDefault(), darray.Double))
	dst := mustCreate(t, m, 0, distSpec(n, p, grid.CyclicDefault(), darray.Double))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if st := m.WriteBlock(0, src, []int{0}, []int{n}, vals); st != StatusOK {
		t.Fatalf("fill: %v", st)
	}
	machine.Router().SetFaultPlan(&msg.FaultPlan{Seed: 9, Rule: msg.FaultRule{Dup: 1}})
	for it := 0; it < 200; it++ {
		done := make(chan Status, 1)
		go func() { done <- m.Redistribute(it%p, dst, src, []int{0}, []int{n}) }()
		select {
		case st := <-done:
			if st != StatusOK {
				t.Fatalf("iteration %d: Redistribute: %v", it, st)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: Redistribute still blocked after 2 s", it)
		}
	}
	if fs := machine.Router().FaultStats(); fs.Duplicated == 0 {
		t.Fatal("the plan duplicated no messages")
	}
	got, st := m.ReadBlock(1, dst, []int{0}, []int{n})
	if st != StatusOK {
		t.Fatalf("readback: %v", st)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

// killSpec builds a 1d block array over all four processors whose piece
// boundaries are known, so a full-range gather necessarily touches the
// processor the test kills.
func killSpec() CreateSpec {
	c := oracleCases()[0] // 1d/block, P=4, dims 24
	return c.spec
}

// TestKillMidGather kills an owner while a full-range dense gather is in
// flight (router latency keeps the requests airborne at kill time) and
// requires the coordinator to surface a down/timeout status within the
// policy's bounded budget instead of hanging.
func TestKillMidGather(t *testing.T) {
	machine, m := newTestManager(t, 4)
	machine.Router().SetLatency(2 * time.Millisecond)
	m.SetCallPolicy(&CallPolicy{Timeout: 3 * time.Millisecond, Retries: 2, Backoff: 200 * time.Microsecond})
	id := mustCreate(t, m, 0, killSpec())

	done := make(chan Status, 1)
	go func() {
		_, st := m.ReadBlock(0, id, []int{0}, []int{24})
		done <- st
	}()
	time.Sleep(500 * time.Microsecond)
	if err := machine.Router().KillProcessor(2); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	select {
	case st := <-done:
		if st != StatusDown && st != StatusTimeout {
			t.Fatalf("gather over a dead owner: status %v, want STATUS_DOWN or STATUS_TIMEOUT", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBlock hung after KillProcessor")
	}

	// Survivors keep serving: a rectangle owned entirely by live
	// processors still completes.
	if _, st := m.ReadBlock(0, id, []int{18}, []int{24}); st != StatusOK {
		t.Fatalf("read from surviving owner: %v", st)
	}
}

// TestKillMidRedistribute kills a source owner while an owner-to-owner
// redistribution is in flight; the coordinator's ack gather must convert
// the lost pairs into a surfaced down/timeout status, not a hang.
func TestKillMidRedistribute(t *testing.T) {
	machine, m := newTestManager(t, 4)
	m.SetCallPolicy(&CallPolicy{Timeout: 3 * time.Millisecond, Retries: 2, Backoff: 200 * time.Microsecond})
	src := mustCreate(t, m, 0, killSpec())
	dst := mustCreate(t, m, 0, shadowSpec(killSpec()))
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if st := m.WriteBlock(0, src, []int{0}, []int{24}, vals); st != StatusOK {
		t.Fatalf("seed WriteBlock: %v", st)
	}
	machine.Router().SetLatency(2 * time.Millisecond)

	done := make(chan Status, 1)
	go func() {
		done <- m.Redistribute(0, dst, src, []int{0}, []int{24})
	}()
	time.Sleep(500 * time.Microsecond)
	if err := machine.Router().KillProcessor(1); err != nil {
		t.Fatalf("KillProcessor: %v", err)
	}
	select {
	case st := <-done:
		if st != StatusDown && st != StatusTimeout {
			t.Fatalf("redistribute through a dead owner: status %v, want STATUS_DOWN or STATUS_TIMEOUT", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Redistribute hung after KillProcessor")
	}
}

// TestCloseMidCallSurfacesError closes the whole machine while a
// coordinator is waiting on remote replies or acks — even with no retry
// policy installed, the wait must observe the router's shutdown and
// return an error status rather than deadlock. The read and the
// redistribution wait in the same gather loop, on the calling
// goroutine. (The msg-level Close semantics are pinned in the
// msg package; this is the coordinator half.)
func TestCloseMidCallSurfacesError(t *testing.T) {
	cases := []struct {
		name string
		call func(m *Manager, src, dst darray.ID) Status
	}{
		{"ReadBlock", func(m *Manager, src, _ darray.ID) Status {
			_, st := m.ReadBlock(0, src, []int{0}, []int{24})
			return st
		}},
		{"Redistribute", func(m *Manager, src, dst darray.ID) Status {
			return m.Redistribute(0, dst, src, []int{0}, []int{24})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			machine := vp.NewMachine(4)
			defer machine.Shutdown()
			m := New(machine)
			src := mustCreate(t, m, 0, killSpec())
			dst := mustCreate(t, m, 0, distSpec(24, 4, grid.CyclicDefault(), darray.Double))
			machine.Router().SetLatency(5 * time.Millisecond)

			done := make(chan Status, 1)
			go func() { done <- c.call(m, src, dst) }()
			time.Sleep(time.Millisecond)
			machine.Shutdown()
			select {
			case st := <-done:
				if st == StatusOK {
					t.Fatalf("%s returned STATUS_OK across a router close", c.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s hung across Close", c.name)
			}
		})
	}
}

// TestCallOnKilledProcessorDown invokes operations on a killed processor
// with no call policy installed. Each returns STATUS_DOWN at once: the
// caller's goroutine runs the coordinator, and the guard refuses a dead
// processor before any coordinator work. (A coordinator reached by a
// message to the dead processor's own mailbox would never be served.)
func TestCallOnKilledProcessorDown(t *testing.T) {
	machine, m := newTestManager(t, 4)
	id := mustCreate(t, m, 0, killSpec())
	if err := machine.Router().KillProcessor(1); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() Status
	}{
		{"ReadBlock", func() Status { _, st := m.ReadBlock(1, id, []int{0}, []int{24}); return st }},
		{"FindLocal", func() Status { _, st := m.FindLocal(1, id); return st }},
		{"CreateArray", func() Status { _, st := m.CreateArray(1, killSpec()); return st }},
	}
	for _, c := range calls {
		done := make(chan Status, 1)
		go func() { done <- c.call() }()
		select {
		case st := <-done:
			if st != StatusDown {
				t.Fatalf("%s on a killed processor: %v, want %v", c.name, st, StatusDown)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s on a killed processor still blocked after 1 s", c.name)
		}
	}
}
