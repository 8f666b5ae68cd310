package arraymgr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
)

// distSpec builds a 1-D CreateSpec of n elements over p processors.
func distSpec(n, p int, d grid.Decomp, typ darray.ElemType) CreateSpec {
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	return CreateSpec{
		Type: typ, Dims: []int{n}, Procs: procs,
		Distrib: []grid.Decomp{d},
		Borders: NoBorderSpec{}, Indexing: grid.RowMajor,
	}
}

// TestRedistributeOracle drives the redistribution plane against the
// gather-then-scatter reference it replaces: for all nine ordered pairs
// of {block, cyclic, block_cyclic(3)} over an uneven extent, plus 2-D
// mixed-dimension and Int↔Double cases, Redistribute must leave the
// destination exactly as a ReadBlock+WriteBlock bounce leaves its twin.
func TestRedistributeOracle(t *testing.T) {
	const p, n = 4, 29
	kinds := map[string]grid.Decomp{
		"block":       grid.BlockDefault(),
		"cyclic":      grid.CyclicDefault(),
		"blockcyclic": grid.BlockCyclicOf(3),
	}
	for sname, sd := range kinds {
		for dname, dd := range kinds {
			t.Run(fmt.Sprintf("%s->%s", sname, dname), func(t *testing.T) {
				_, m := newTestManager(t, p)
				src := mustCreate(t, m, 0, distSpec(n, p, sd, darray.Double))
				direct := mustCreate(t, m, 0, distSpec(n, p, dd, darray.Double))
				bounce := mustCreate(t, m, 0, distSpec(n, p, dd, darray.Double))
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = float64(3*i + 1)
				}
				sentinel := make([]float64, n)
				for i := range sentinel {
					sentinel[i] = -5
				}
				if st := m.WriteBlock(0, src, []int{0}, []int{n}, vals); st != StatusOK {
					t.Fatalf("fill src: %v", st)
				}
				rng := rand.New(rand.NewSource(41))
				for trial := 0; trial < 8; trial++ {
					for _, id := range []darray.ID{direct, bounce} {
						if st := m.WriteBlock(0, id, []int{0}, []int{n}, sentinel); st != StatusOK {
							t.Fatalf("reset: %v", st)
						}
					}
					lo, hi, step := randomRect(rng, []int{n})
					onProc := rng.Intn(p)
					if unitStep(step) {
						if st := m.Redistribute(onProc, direct, src, lo, hi); st != StatusOK {
							t.Fatalf("Redistribute[%v,%v) on %d: %v", lo, hi, onProc, st)
						}
						buf, st := m.ReadBlock(onProc, src, lo, hi)
						if st != StatusOK {
							t.Fatalf("reference read: %v", st)
						}
						if st := m.WriteBlock(onProc, bounce, lo, hi, buf); st != StatusOK {
							t.Fatalf("reference write: %v", st)
						}
					} else {
						if st := m.RedistributeStrided(onProc, direct, src, lo, hi, step); st != StatusOK {
							t.Fatalf("RedistributeStrided[%v,%v,%v) on %d: %v", lo, hi, step, onProc, st)
						}
						buf, st := m.ReadBlockStrided(onProc, src, lo, hi, step)
						if st != StatusOK {
							t.Fatalf("reference read: %v", st)
						}
						if st := m.WriteBlockStrided(onProc, bounce, lo, hi, step, buf); st != StatusOK {
							t.Fatalf("reference write: %v", st)
						}
					}
					got, st := m.ReadBlock(0, direct, []int{0}, []int{n})
					if st != StatusOK {
						t.Fatalf("read direct: %v", st)
					}
					want, st := m.ReadBlock(0, bounce, []int{0}, []int{n})
					if st != StatusOK {
						t.Fatalf("read bounce: %v", st)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d rect [%v,%v) step %v: element %d = %v, want %v",
								trial, lo, hi, step, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestRedistributeOracle2D covers rank-2 mixed-dimension pairs (the
// distributed dimension changing sides) and element-type conversion.
func TestRedistributeOracle2D(t *testing.T) {
	const p = 4
	dims := []int{12, 10}
	procs := []int{0, 1, 2, 3}
	cases := []struct {
		name     string
		src, dst CreateSpec
	}{
		{"rows-block->cols-cyclic",
			CreateSpec{Type: darray.Double, Dims: dims, Procs: procs,
				Distrib: []grid.Decomp{grid.BlockOf(4), grid.NoDecomp()},
				Borders: NoBorderSpec{}, Indexing: grid.RowMajor},
			CreateSpec{Type: darray.Double, Dims: dims, Procs: procs,
				Distrib: []grid.Decomp{grid.NoDecomp(), grid.CyclicOf(4)},
				Borders: NoBorderSpec{}, Indexing: grid.RowMajor}},
		{"blockcyclic->block/int",
			CreateSpec{Type: darray.Double, Dims: dims, Procs: procs,
				Distrib: []grid.Decomp{grid.BlockCyclicOfN(2, 2), grid.BlockOf(2)},
				Borders: NoBorderSpec{}, Indexing: grid.RowMajor},
			CreateSpec{Type: darray.Int, Dims: dims, Procs: procs,
				Distrib: []grid.Decomp{grid.BlockOf(2), grid.BlockOf(2)},
				Borders: ExplicitBorders{1, 1, 0, 1}, Indexing: grid.ColMajor}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, m := newTestManager(t, p)
			src := mustCreate(t, m, 0, tc.src)
			direct := mustCreate(t, m, 0, tc.dst)
			bounce := mustCreate(t, m, 0, tc.dst)
			size := grid.Size(dims)
			vals := make([]float64, size)
			for i := range vals {
				vals[i] = float64(i) + 0.25 // fraction exercises Int truncation
			}
			lo0 := []int{0, 0}
			if st := m.WriteBlock(0, src, lo0, dims, vals); st != StatusOK {
				t.Fatalf("fill src: %v", st)
			}
			rng := rand.New(rand.NewSource(43))
			for trial := 0; trial < 8; trial++ {
				lo, hi, step := randomRect(rng, dims)
				if unitStep(step) {
					step = nil
				}
				if st := m.RedistributeStrided(0, direct, src, lo, hi, orUnit(step, len(lo))); st != StatusOK {
					t.Fatalf("RedistributeStrided: %v", st)
				}
				buf, st := m.ReadBlockStrided(0, src, lo, hi, orUnit(step, len(lo)))
				if st != StatusOK {
					t.Fatalf("reference read: %v", st)
				}
				if st := m.WriteBlockStrided(0, bounce, lo, hi, orUnit(step, len(lo)), buf); st != StatusOK {
					t.Fatalf("reference write: %v", st)
				}
				got, st := m.ReadBlock(0, direct, lo0, dims)
				if st != StatusOK {
					t.Fatalf("read direct: %v", st)
				}
				want, st := m.ReadBlock(0, bounce, lo0, dims)
				if st != StatusOK {
					t.Fatalf("read bounce: %v", st)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d rect [%v,%v) step %v: element %d = %v, want %v",
							trial, lo, hi, step, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// orUnit returns step, or a unit step of rank n when step is nil.
func orUnit(step []int, n int) []int {
	if step != nil {
		return step
	}
	u := make([]int, n)
	for i := range u {
		u[i] = 1
	}
	return u
}

// TestRedistributeRectOrigins pins the offset variant: a panel lands at
// a different origin in the destination array.
func TestRedistributeRectOrigins(t *testing.T) {
	const p, n = 4, 16
	_, m := newTestManager(t, p)
	src := mustCreate(t, m, 0, distSpec(n, p, grid.BlockDefault(), darray.Double))
	dst := mustCreate(t, m, 0, distSpec(n, p, grid.CyclicDefault(), darray.Double))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if st := m.WriteBlock(0, src, []int{0}, []int{n}, vals); st != StatusOK {
		t.Fatalf("fill: %v", st)
	}
	if st := m.RedistributeRect(0, dst, src, []int{10}, []int{2}, []int{5}); st != StatusOK {
		t.Fatalf("RedistributeRect: %v", st)
	}
	got, st := m.ReadBlock(0, dst, []int{10}, []int{15})
	if st != StatusOK {
		t.Fatalf("read: %v", st)
	}
	for i := 0; i < 5; i++ {
		if got[i] != float64(2+i+1) {
			t.Fatalf("dst[%d] = %v, want %v", 10+i, got[i], float64(2+i+1))
		}
	}
}

// TestRedistributeMessageBudget pins the direct plane's message count:
// 1 coordinator self-send, plus one redist_src per remote source owner,
// plus one redist_ship per cross-process owner pair — and nothing else.
// The bounce reference on the same transfer is strictly worse.
func TestRedistributeMessageBudget(t *testing.T) {
	const p, n = 4, 16
	machine, m := newTestManager(t, p)
	src := mustCreate(t, m, 0, distSpec(n, p, grid.BlockDefault(), darray.Double))
	dst := mustCreate(t, m, 0, distSpec(n, p, grid.CyclicDefault(), darray.Double))
	vals := make([]float64, n)
	if st := m.WriteBlock(0, src, []int{0}, []int{n}, vals); st != StatusOK {
		t.Fatalf("fill: %v", st)
	}

	// Whole array, block→cyclic: every one of the 16 (src,dst) owner
	// pairs is non-empty; 4 pairs are same-process. Budget:
	// 1 (API) + 3 (remote src owners) + 12 (cross pairs) = 16.
	before := machine.Router().Sent()
	if st := m.Redistribute(0, dst, src, []int{0}, []int{n}); st != StatusOK {
		t.Fatalf("Redistribute: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(1+3+12); got != want {
		t.Errorf("block->cyclic whole-array redistribute sent %d messages, want %d", got, want)
	}

	// Step 2: lattice {0,2,...,14}. Each source owner holds two points,
	// landing on destination owners 0 and 2 only: 8 pairs, 2 of them
	// same-process. Budget: 1 + 3 + 6 = 10.
	before = machine.Router().Sent()
	if st := m.RedistributeStrided(0, dst, src, []int{0}, []int{n}, []int{2}); st != StatusOK {
		t.Fatalf("RedistributeStrided: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(1+3+6); got != want {
		t.Errorf("strided redistribute sent %d messages, want %d (skipped owners must stay uncontacted)", got, want)
	}

	// The panel handoff, (*,block) → (cyclic,*): columns [4,8) of a 16x16
	// array live on source owner 1 and fan out over the 4 cyclic row
	// owners: 4 descriptor pairs, 1 of them same-process. Budget:
	// 1 + 1 (remote src owner) + 3 (cross pairs) = 5.
	pa := mustCreate(t, m, 0, panelSpec(grid.NoDecomp(), grid.BlockDefault()))
	pw := mustCreate(t, m, 0, panelSpec(grid.CyclicDefault(), grid.NoDecomp()))
	panel := make([]float64, 16*4)
	for i := range panel {
		panel[i] = float64(i + 1)
	}
	if st := m.WriteBlock(0, pa, []int{0, 4}, []int{16, 8}, panel); st != StatusOK {
		t.Fatalf("panel fill: %v", st)
	}
	before = machine.Router().Sent()
	if st := m.Redistribute(0, pw, pa, []int{0, 4}, []int{16, 8}); st != StatusOK {
		t.Fatalf("panel Redistribute: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(1+1+3); got != want {
		t.Errorf("(*,block)->(cyclic,*) panel redistribute sent %d messages, want %d", got, want)
	}
	got, st := m.ReadBlock(0, pw, []int{0, 4}, []int{16, 8})
	if st != StatusOK {
		t.Fatalf("panel read: %v", st)
	}
	for i := range panel {
		if got[i] != panel[i] {
			t.Fatalf("panel element %d = %v, want %v", i, got[i], panel[i])
		}
	}

	// The bounce on the same whole-array transfer: a read round (1
	// coordinator + 3 remote owners) plus a write round (1 + 3) = 8
	// messages against 16 — but serialized through one process and
	// carrying every byte twice. On the panel shapes of E26 the direct
	// plane wins on messages too; here we only pin that the budget
	// formula holds exactly.
	before = machine.Router().Sent()
	buf, st := m.ReadBlock(0, src, []int{0}, []int{n})
	if st != StatusOK {
		t.Fatalf("bounce read: %v", st)
	}
	if st := m.WriteBlock(0, dst, []int{0}, []int{n}, buf); st != StatusOK {
		t.Fatalf("bounce write: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64((1+3)+(1+3)); got != want {
		t.Errorf("bounce sent %d messages, want %d", got, want)
	}
}

// panelSpec builds a 16x16 row-major array over 4 processors with the
// given row and column decompositions.
func panelSpec(rows, cols grid.Decomp) CreateSpec {
	return CreateSpec{
		Type: darray.Double, Dims: []int{16, 16}, Procs: []int{0, 1, 2, 3},
		Distrib: []grid.Decomp{rows, cols},
		Borders: NoBorderSpec{}, Indexing: grid.RowMajor,
	}
}

// TestRedistributeLocalFastPath pins the wholly-local zero-copy path:
// when both rectangles live on the requesting processor the transfer
// sends no message and performs no heap allocation.
func TestRedistributeLocalFastPath(t *testing.T) {
	const p, n = 4, 16
	machine, m := newTestManager(t, p)
	src := mustCreate(t, m, 0, distSpec(n, p, grid.BlockDefault(), darray.Double))
	dst := mustCreate(t, m, 0, distSpec(n, p, grid.BlockCyclicOf(2), darray.Double))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if st := m.WriteBlock(0, src, []int{0}, []int{n}, vals); st != StatusOK {
		t.Fatalf("fill: %v", st)
	}
	// Proc 0 owns src globals [0,4) (block) and dst globals [0,2)
	// (first width-2 cycle block).
	lo, hi := []int{0}, []int{2}
	if st := m.Redistribute(0, dst, src, lo, hi); st != StatusOK {
		t.Fatalf("warm-up Redistribute: %v", st)
	}
	before := machine.Router().Sent()
	allocs := testing.AllocsPerRun(200, func() {
		if st := m.Redistribute(0, dst, src, lo, hi); st != StatusOK {
			t.Errorf("Redistribute: %v", st)
		}
	})
	if allocs != 0 {
		t.Errorf("wholly-local redistribute: %v allocs/op, want 0", allocs)
	}
	if sent := machine.Router().Sent() - before; sent != 0 {
		t.Errorf("wholly-local redistribute sent %d messages, want 0", sent)
	}
	got, st := m.ReadBlock(0, dst, lo, hi)
	if st != StatusOK {
		t.Fatalf("read: %v", st)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("dst[0:2] = %v, want [1 2]", got)
	}
}

// TestRedistOwnerServerAllocs pins the redistribution owner servers at
// zero heap allocations per operation once the pools are warm: landing
// a shipped piece (doRedistShip) and servicing a same-process pair
// (doRedistSrc via redistLocalPair), each also in the panel shape whose
// source and destination steps differ.
func TestRedistOwnerServerAllocs(t *testing.T) {
	const p, n = 4, 16
	_, m := newTestManager(t, p)
	src := mustCreate(t, m, 0, distSpec(n, p, grid.BlockDefault(), darray.Double))
	dst := mustCreate(t, m, 0, distSpec(n, p, grid.BlockDefault(), darray.Double))
	vals := make([]float64, n)
	if st := m.WriteBlock(0, src, []int{0}, []int{n}, vals); st != StatusOK {
		t.Fatalf("fill: %v", st)
	}
	srv := m.servers[0]
	ack := make(chan response, 1)
	lo, hi := []int{0}, []int{4}

	ship := func() {
		req := getShipReq()
		buf := srv.getBuf(4)
		*req = request{op: opRedistShip, id: dst, lo: lo, hi: hi, vals: buf, node: 0, ack: ack}
		m.doRedistShip(0, req)
		if r := <-ack; r.status != StatusOK {
			t.Errorf("doRedistShip: %v", r.status)
		}
	}
	for i := 0; i < 3; i++ { // warm the pools
		ship()
	}
	if allocs := testing.AllocsPerRun(200, ship); allocs != 0 {
		t.Errorf("doRedistShip: %v allocs/op, want 0 (pooled)", allocs)
	}

	// A same-process pair serviced by the source-owner routine: the
	// request is caller-owned (doRedistSrc only pools what it creates),
	// so one request drives every iteration.
	pairReq := &request{id: src, id2: dst,
		ships: []redistShip{{dstProc: 0, srcLo: lo, srcHi: hi, dstLo: lo, dstHi: hi}},
		ack:   ack}
	local := func() {
		m.doRedistSrc(0, pairReq)
		if r := <-ack; r.status != StatusOK {
			t.Errorf("doRedistSrc: %v", r.status)
		}
	}
	for i := 0; i < 3; i++ {
		local()
	}
	if allocs := testing.AllocsPerRun(200, local); allocs != 0 {
		t.Errorf("same-process doRedistSrc pair: %v allocs/op, want 0", allocs)
	}

	// The panel handoff's proc-0 pair, as the coordinator schedules it:
	// every 4th row at the (*,block) source, dense at the (cyclic,*)
	// destination.
	pa := mustCreate(t, m, 0, panelSpec(grid.NoDecomp(), grid.BlockDefault()))
	pw := mustCreate(t, m, 0, panelSpec(grid.CyclicDefault(), grid.NoDecomp()))
	am, st := m.Meta(0, pa)
	if st != StatusOK {
		t.Fatalf("meta: %v", st)
	}
	wm, st := m.Meta(0, pw)
	if st != StatusOK {
		t.Fatalf("meta: %v", st)
	}
	sched, err := wm.TransferSchedule(am, []int{0, 0}, []int{0, 0}, []int{16, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pb darray.PairBlock
	for _, b := range sched.Blocks {
		if b.SrcProc == 0 && b.DstProc == 0 {
			pb = b
		}
	}
	if pb.SrcStep == nil || pb.DstStep != nil {
		t.Fatalf("panel pair 0->0 = %+v, want a strided source and a dense destination", pb)
	}
	stridedReq := &request{id: pa, id2: pw,
		ships: []redistShip{{dstProc: 0, srcLo: pb.SrcLo, srcHi: pb.SrcHi, srcStep: pb.SrcStep,
			dstLo: pb.DstLo, dstHi: pb.DstHi, srcSlot: pb.SrcSlot, dstSlot: pb.DstSlot}},
		ack: ack}
	stridedLocal := func() {
		m.doRedistSrc(0, stridedReq)
		if r := <-ack; r.status != StatusOK {
			t.Errorf("doRedistSrc: %v", r.status)
		}
	}
	for i := 0; i < 3; i++ {
		stridedLocal()
	}
	if allocs := testing.AllocsPerRun(200, stridedLocal); allocs != 0 {
		t.Errorf("same-process doRedistSrc pair, source step %v, dense destination: %v allocs/op, want 0", pb.SrcStep, allocs)
	}

	// The same piece landing by redist_ship: packed from the strided
	// source into a pooled buffer, written dense at the destination.
	asec := srv.entries[pa].section
	elems := grid.StridedRectSize(pb.SrcLo, pb.SrcHi, pb.SrcStep)
	denseShip := func() {
		buf := srv.getBuf(elems)
		if err := asec.ReadBlockStridedInto(buf, pb.SrcLo, pb.SrcHi, pb.SrcStep, am.LocalDims, am.Borders, am.Indexing); err != nil {
			t.Fatal(err)
		}
		req := getShipReq()
		*req = request{op: opRedistShip, id: pw, slot: pb.DstSlot, lo: pb.DstLo, hi: pb.DstHi, vals: buf, node: 0, ack: ack}
		m.doRedistShip(0, req)
		if r := <-ack; r.status != StatusOK {
			t.Errorf("doRedistShip: %v", r.status)
		}
	}
	for i := 0; i < 3; i++ {
		denseShip()
	}
	if allocs := testing.AllocsPerRun(200, denseShip); allocs != 0 {
		t.Errorf("doRedistShip dense landing of a strided source: %v allocs/op, want 0", allocs)
	}
}

// TestRedistributeErrors pins the failure statuses of the coordinator.
func TestRedistributeErrors(t *testing.T) {
	const p, n = 4, 16
	_, m := newTestManager(t, p)
	src := mustCreate(t, m, 0, distSpec(n, p, grid.BlockDefault(), darray.Double))
	dst := mustCreate(t, m, 0, distSpec(n, p, grid.CyclicDefault(), darray.Double))

	if st := m.Redistribute(0, src, src, []int{0}, []int{4}); st != StatusInvalid {
		t.Errorf("aliasing redistribute: %v, want STATUS_INVALID", st)
	}
	if st := m.Redistribute(0, dst, src, []int{0}, []int{n + 1}); st != StatusInvalid {
		t.Errorf("out-of-bounds rectangle: %v, want STATUS_INVALID", st)
	}
	if st := m.Redistribute(0, dst, src, []int{0, 0}, []int{4, 4}); st != StatusInvalid {
		t.Errorf("rank mismatch: %v, want STATUS_INVALID", st)
	}
	if st := m.RedistributeStrided(0, dst, src, []int{0}, []int{n}, []int{0}); st != StatusInvalid {
		t.Errorf("zero step: %v, want STATUS_INVALID", st)
	}
	if st := m.FreeArray(0, src); st != StatusOK {
		t.Fatalf("free: %v", st)
	}
	if st := m.Redistribute(0, dst, src, []int{0}, []int{4}); st != StatusNotFound {
		t.Errorf("redistribute from freed array: %v, want STATUS_NOT_FOUND", st)
	}
}
