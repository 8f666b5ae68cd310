package arraymgr

import (
	"testing"

	"repro/internal/darray"
	"repro/internal/grid"
)

// cyclicSpec distributes n elements cyclically over p processors.
func cyclicSpec(n, p int) CreateSpec {
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	return CreateSpec{
		Type: darray.Double, Dims: []int{n}, Procs: procs,
		Distrib: []grid.Decomp{grid.CyclicDefault()},
		Borders: NoBorderSpec{}, Indexing: grid.RowMajor,
	}
}

// TestCyclicMessageBudget pins the cyclic coordinators' message budget:
// rectangle transfers on a cyclic or block-cyclic array still cost one
// request per remote owning processor, independent of element count, and
// owners the stride skips are never contacted.
func TestCyclicMessageBudget(t *testing.T) {
	const p, n = 4, 32
	machine, m := newTestManager(t, p)
	id := mustCreate(t, m, 0, cyclicSpec(n, p))

	lo, hi := []int{0}, []int{n}
	vals := make([]float64, n)

	before := machine.Router().Sent()
	if st := m.WriteBlock(0, id, lo, hi, vals); st != StatusOK {
		t.Fatalf("WriteBlock: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(p-1); got != want {
		t.Errorf("cyclic WriteBlock sent %d messages, want %d", got, want)
	}

	before = machine.Router().Sent()
	if _, st := m.ReadBlock(0, id, lo, hi); st != StatusOK {
		t.Fatalf("ReadBlock: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(p-1); got != want {
		t.Errorf("cyclic ReadBlock sent %d messages, want %d", got, want)
	}

	// Step 2 on a cyclic dimension over 4 processors touches only the
	// even-slot owners: processor 0 (local) and processor 2 (remote).
	before = machine.Router().Sent()
	if _, st := m.ReadBlockStrided(0, id, lo, hi, []int{2}); st != StatusOK {
		t.Fatalf("ReadBlockStrided: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(1); got != want {
		t.Errorf("cyclic strided read sent %d messages, want %d (skipped owners must stay uncontacted)", got, want)
	}

	// Block-cyclic(3) over 4 processors: each owner's piece is a run
	// list, still one request per remote owner. Step 6 visits only cells
	// 0 and 2 (globals 0, 12, 24 and 6, 18, 30).
	bc := cyclicSpec(n, p)
	bc.Distrib = []grid.Decomp{grid.BlockCyclicOf(3)}
	bid := mustCreate(t, m, 0, bc)
	for _, c := range []struct {
		step []int
		want uint64
	}{{nil, p - 1}, {[]int{6}, 1}} {
		before = machine.Router().Sent()
		if st := m.WriteBlockStrided(0, bid, lo, hi, c.step, vals[:grid.StridedRectSize(lo, hi, c.step)]); st != StatusOK {
			t.Fatalf("block-cyclic WriteBlockStrided step %v: %v", c.step, st)
		}
		if _, st := m.ReadBlockStrided(0, bid, lo, hi, c.step); st != StatusOK {
			t.Fatalf("block-cyclic ReadBlockStrided step %v: %v", c.step, st)
		}
		if got, want := machine.Router().Sent()-before, 2*c.want; got != want {
			t.Errorf("block-cyclic write+read, step %v, sent %d messages, want %d", c.step, got, want)
		}
	}

	// Indexed gather of elements all owned by one remote processor: one
	// owner request.
	indices := [][]int{{1}, {5}, {9}}
	before = machine.Router().Sent()
	if _, st := m.GatherElements(0, id, indices); st != StatusOK {
		t.Fatalf("GatherElements: %v", st)
	}
	if got, want := machine.Router().Sent()-before, uint64(1); got != want {
		t.Errorf("cyclic gather sent %d messages, want %d", got, want)
	}
}

// TestCyclicLocalFastPath pins the router-free fast path on block-cyclic
// arrays: a rectangle inside a single owned cycle block moves with zero
// messages and zero heap allocations, including the cell's second and
// later blocks (where local and global origins differ).
func TestCyclicLocalFastPath(t *testing.T) {
	const p, n = 2, 16
	machine, m := newTestManager(t, p)
	spec := cyclicSpec(n, p)
	spec.Distrib = []grid.Decomp{grid.BlockCyclicOf(4)}
	id := mustCreate(t, m, 0, spec)

	// Processor 0 owns cycle blocks 0 and 2: global [0,4) and [8,12).
	buf := make([]float64, 4)
	for i := range buf {
		buf[i] = float64(i + 1)
	}
	for _, r := range [][2][]int{
		{[]int{0}, []int{4}},  // first owned block
		{[]int{8}, []int{12}}, // second owned block: local origin 4
	} {
		lo, hi := r[0], r[1]
		if st := m.WriteBlock(0, id, lo, hi, buf); st != StatusOK {
			t.Fatalf("warm-up WriteBlock[%v,%v): %v", lo, hi, st)
		}
		before := machine.Router().Sent()
		writeAllocs := testing.AllocsPerRun(200, func() {
			if st := m.WriteBlock(0, id, lo, hi, buf); st != StatusOK {
				t.Errorf("WriteBlock: %v", st)
			}
		})
		readAllocs := testing.AllocsPerRun(200, func() {
			if st := m.ReadBlockInto(0, id, lo, hi, buf); st != StatusOK {
				t.Errorf("ReadBlockInto: %v", st)
			}
		})
		if writeAllocs != 0 {
			t.Errorf("local WriteBlock[%v,%v): %v allocs/op, want 0", lo, hi, writeAllocs)
		}
		if readAllocs != 0 {
			t.Errorf("local ReadBlockInto[%v,%v): %v allocs/op, want 0", lo, hi, readAllocs)
		}
		if sent := machine.Router().Sent() - before; sent != 0 {
			t.Errorf("local fast path on [%v,%v) sent %d messages, want 0", lo, hi, sent)
		}
	}

	// A rectangle spanning two cycle blocks crosses owners: the fast path
	// must decline and the coordinator must still produce the right data.
	span := make([]float64, 8)
	before := machine.Router().Sent()
	if st := m.ReadBlockInto(0, id, []int{0}, []int{8}, span); st != StatusOK {
		t.Fatalf("spanning ReadBlockInto: %v", st)
	}
	if sent := machine.Router().Sent() - before; sent == 0 {
		t.Error("owner-spanning rectangle sent no messages; fast path must decline")
	}
	for i := 0; i < 4; i++ {
		if span[i] != buf[i] {
			t.Errorf("span[%d] = %v, want %v", i, span[i], buf[i])
		}
	}
}

// TestCyclicOwnerServerAllocs pins the owner-side routine the cyclic
// rectangle coordinators lean on: servicing one owner's offset set of a
// cyclic lattice split stays at zero heap allocations per request once the
// reply pool is warm.
func TestCyclicOwnerServerAllocs(t *testing.T) {
	const p, n = 4, 32
	_, m := newTestManager(t, p)
	id := mustCreate(t, m, 0, cyclicSpec(n, p))
	meta, st := m.Meta(0, id)
	if st != StatusOK {
		t.Fatalf("Meta: %v", st)
	}
	sets, err := meta.OwnerLattice([]int{0}, []int{n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var local *darray.OwnerIndexSet
	for i := range sets {
		if sets[i].Proc == 0 {
			local = &sets[i]
		}
	}
	if local == nil {
		t.Fatal("no local owner set")
	}
	req := &request{id: id, offs: local.Offs}
	for i := 0; i < 3; i++ { // warm the reply pool
		r := m.doReadLocal(0, req)
		if r.status != StatusOK {
			t.Fatalf("doReadLocal (offsets): %v", r.status)
		}
		putBuf(r.vals)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r := m.doReadLocal(0, req)
		if r.status != StatusOK {
			t.Errorf("doReadLocal (offsets): %v", r.status)
		}
		putBuf(r.vals)
	})
	if allocs != 0 {
		t.Errorf("cyclic owner service: %v allocs/op, want 0 (pooled)", allocs)
	}
}
