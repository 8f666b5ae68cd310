package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/msg/wire"
	"repro/internal/spmd"
	"repro/internal/stream"
)

// The layer probes time calls into each layer's public functions from
// outside, on the shapes the workloads use: "small" is one owner's piece of
// the 8 KiB array (256 elements, 2 KiB), "large" one owner's piece of the
// 8 MiB array (2 MiB), "panel" a 512x128 column panel going to 4 cyclic
// owners. Every probe runs as probeSpans spans of a calibrated number of
// calls; the reported figure is the median over spans of time per call.
const (
	smallPiece = smallN / machineP
	largePiece = largeN / machineP
	panelCols  = panelN / machineP
	probeSpans = 11
)

// prober collects the timed probes as the probe groups declare them and
// runs them once all are known, so that each gets an equal share of the
// budget whatever their number. What a group sets up (machines, routers,
// transports) therefore lives until the queue has run; closers tear it
// down afterwards, last first.
type prober struct {
	rec     *recorder
	out     map[string]metric
	queue   []timedProbe
	closers []func()
}

type timedProbe struct {
	name, unit string
	c          counts
	fn         func(n int)                     // makes n calls of the probed function
	conv       func(nsPerCall float64) float64 // time per call → the metric's value
}

// counts says what one call of a probed function moves, as computed from
// the shapes (not measured): messages sent and payload bytes.
type counts struct {
	msgs, bytes int
}

// timed declares a probe whose metric is scale * nanoseconds per call.
func (p *prober) timed(name, unit string, scale float64, c counts, fn func(n int)) {
	p.queue = append(p.queue, timedProbe{name, unit, c, fn, func(ns float64) float64 { return scale * ns }})
}

// rate declares a probe whose metric is units of work per second, each
// call being perCall units.
func (p *prober) rate(name, unit string, perCall float64, c counts, fn func(n int)) {
	p.queue = append(p.queue, timedProbe{name, unit, c, fn, func(ns float64) float64 { return perCall / (ns * 1e-9) }})
}

// later registers what tears a group's set-up down once the queue has run.
func (p *prober) later(close func()) { p.closers = append(p.closers, close) }

// run measures every declared probe; each gets an equal share of total.
func (p *prober) run(total time.Duration) {
	budget := total / time.Duration(len(p.queue))
	for _, q := range p.queue {
		p.measure(q, budget)
	}
}

// close tears the groups' set-up down, last first.
func (p *prober) close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
}

func (p *prober) measure(q timedProbe, budget time.Duration) {
	q.fn(1) // first call pays for lazy set-up
	target := budget / probeSpans
	n := 1
	for {
		t := time.Now()
		q.fn(n)
		d := time.Since(t)
		if d >= target/2 || n >= 1<<22 {
			if d > 0 && d < target {
				n = int(float64(n) * float64(target) / float64(d))
			}
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	vals := make([]float64, 0, probeSpans)
	for i := 0; i < probeSpans; i++ {
		h := p.rec.begin("probe", q.name, 0)
		t := time.Now()
		q.fn(n)
		d := time.Since(t)
		p.rec.end(h, "calls", n)
		p.rec.count(h, "messages", q.c.msgs*n)
		p.rec.count(h, "payload_bytes", q.c.bytes*n)
		vals = append(vals, q.conv(float64(d.Nanoseconds())/float64(n)))
	}
	p.out[q.name] = overSpans(vals, q.unit)
}

// overSpans reduces a probe's spans to its metric.
func overSpans(vals []float64, unit string) metric {
	med, iqr := medianIQR(vals)
	return metric{Value: med, Unit: unit, Spread: iqr}
}

// allocs records heap allocations per unit of work, counted by the runtime
// over n calls of fn (each units of work) after one warm call. A count, not
// a time: it is taken at once, not queued.
func (p *prober) allocs(name string, n, units int, fn func()) {
	fn()
	h := p.rec.begin("probe", name, 0)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	mallocs := int(b.Mallocs - a.Mallocs)
	p.rec.end(h, "calls", n)
	p.rec.count(h, "allocs", mallocs)
	p.out[name] = metric{Value: float64(mallocs) / float64(n*units), Unit: "allocs"}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench probe: %v", err))
	}
}

// runProbes runs every workload-independent layer probe under a "probe"
// root span. A probe that fails panics: the functions probed here cannot
// fail on these inputs unless the program is broken, and a traced run
// without its numbers is not a result.
func runProbes(rec *recorder, seed int64, total time.Duration) (out map[string]metric, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	p := &prober{rec: rec, out: map[string]metric{}}
	defer p.close()
	root := rec.begin("probe", "probe", 0)
	rng := rand.New(rand.NewSource(seed))
	pm := newProbeMetas()
	p.later(pm.m.Close)
	p.darrayProbes(rng, pm)
	p.wireProbes(rng, pm.small)
	p.msgProbes()
	p.netProbes()
	p.machineProbes()
	p.spmdProbes()
	p.streamFFTProbes(rng)
	p.clusterProbes()
	p.run(total)
	rec.end(root, "probes", len(p.out))
	return p.out, nil
}

// probeMetas creates the workloads' arrays on a scratch in-process machine
// and returns their metadata.
type probeMetas struct {
	m                  *core.Machine
	small, cyc, pA, pW *darray.Meta
}

func newProbeMetas() *probeMetas {
	m := core.New(machineP)
	meta := func(spec core.ArraySpec) *darray.Meta {
		a, err := m.NewArray(spec)
		must(err)
		md, err := a.Meta()
		must(err)
		return md
	}
	dims := []int{panelN, panelN}
	return &probeMetas{
		m:     m,
		small: meta(core.ArraySpec{Dims: []int{smallN}}),
		cyc:   meta(core.ArraySpec{Dims: []int{smallN}, Distrib: []grid.Decomp{grid.CyclicDefault()}}),
		pA:    meta(core.ArraySpec{Dims: dims, Distrib: []grid.Decomp{grid.NoDecomp(), grid.BlockDefault()}}),
		pW:    meta(core.ArraySpec{Dims: dims, Distrib: []grid.Decomp{grid.CyclicDefault(), grid.NoDecomp()}}),
	}
}

func (p *prober) darrayProbes(rng *rand.Rand, pm *probeMetas) {
	lo, hi := []int{0}, []int{smallN}
	p.timed("darray.owner_blocks_ns", "ns", 1, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			_, err := pm.small.OwnerBlocks(lo, hi)
			must(err)
		}
	})
	idx := randomIndices(rng, gatherK, smallN)
	p.timed("darray.owner_indices_ns", "ns", 1, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			_, err := pm.small.OwnerIndices(idx)
			must(err)
		}
	})
	p.timed("darray.owner_lattice_ns", "ns", 1, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			_, err := pm.cyc.OwnerLattice(lo, hi, nil)
			must(err)
		}
	})
	p.timed("darray.transfer_schedule_small_ns", "ns", 1, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			_, err := pm.cyc.TransferSchedule(pm.small, lo, lo, []int{smallN}, nil)
			must(err)
		}
	})
	panelLo, panelDims := []int{0, panelCols}, []int{panelN, panelCols}
	p.timed("darray.transfer_schedule_panel_us", "us", 1e-3, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			_, err := pm.pW.TransferSchedule(pm.pA, panelLo, panelLo, panelDims, nil)
			must(err)
		}
	})

	// One owner pair's share of a panel: 128 rows x 128 columns.
	const pairElems = panelCols * panelCols
	src, dst := darray.NewSection(darray.Double, panelN*panelCols), darray.NewSection(darray.Double, panelN*panelCols)
	srcOffs, dstOffs := rng.Perm(panelN * panelCols)[:pairElems], rng.Perm(panelN * panelCols)[:pairElems]
	p.timed("darray.copy_offsets_ns_per_elem", "ns/elem", 1.0/pairElems, counts{bytes: 8 * pairElems}, func(n int) {
		for i := 0; i < n; i++ {
			must(darray.CopyOffsets(dst, src, dstOffs, srcOffs))
		}
	})

	noBorders := darray.NoBorders(1)
	copyProbe := func(name, unit string, elems int, scale float64) *darray.Section {
		sec := darray.NewSection(darray.Double, elems)
		buf := make([]float64, elems)
		slo, shi, sdims := []int{0}, []int{elems}, []int{elems}
		// One read and one write per iteration: the figure is their mean.
		p.timed(name, unit, scale/2, counts{bytes: 2 * 8 * elems}, func(n int) {
			for i := 0; i < n; i++ {
				must(sec.ReadBlockInto(buf, slo, shi, sdims, noBorders, grid.RowMajor))
				must(sec.WriteBlock(buf, slo, shi, sdims, noBorders, grid.RowMajor))
			}
		})
		return sec
	}
	small := copyProbe("darray.copy_small_ns", "ns", smallPiece, 1)
	copyProbe("darray.copy_large_ns_per_kb", "ns/KiB", largePiece, 1.0/(8*largePiece/1024))
	sbuf := make([]float64, smallPiece)
	p.allocs("darray.copy_allocs", 1000, 1, func() {
		must(small.ReadBlockInto(sbuf, []int{0}, []int{smallPiece}, []int{smallPiece}, noBorders, grid.RowMajor))
	})

	offs := make([]int, gatherK)
	for i := range offs {
		offs[i] = rng.Intn(smallPiece)
	}
	gbuf := make([]float64, gatherK)
	p.timed("darray.gather_ns_per_elem", "ns/elem", 1.0/gatherK, counts{bytes: 8 * gatherK}, func(n int) {
		for i := 0; i < n; i++ {
			must(small.GatherInto(gbuf, offs))
		}
	})
}

func (p *prober) wireProbes(rng *rand.Rand, meta *darray.Meta) {
	codec := func(prefix string, v any, elems int, scale float64, unit string) {
		buf, err := wire.AppendAny(nil, v, false)
		must(err)
		p.timed("wire.encode_"+prefix, unit, scale, counts{bytes: 8 * elems}, func(n int) {
			for i := 0; i < n; i++ {
				buf, err = wire.AppendAny(buf[:0], v, false)
				must(err)
			}
		})
		p.timed("wire.decode_"+prefix, unit, scale, counts{bytes: 8 * elems}, func(n int) {
			for i := 0; i < n; i++ {
				_, _, err := wire.ReadAny(buf)
				must(err)
			}
		})
	}
	small := randomValues(rng, smallPiece)
	codec("small_ns", small, smallPiece, 1, "ns")
	codec("large_ns_per_kb", randomValues(rng, largePiece), largePiece, 1.0/(8*largePiece/1024), "ns/KiB")

	var buf []byte
	p.allocs("wire.encode_allocs", 1000, 1, func() {
		var err error
		buf, err = wire.AppendAny(buf[:0], small, false)
		must(err)
	})

	// Storage offsets as the irregular paths ship them: values up to one
	// panel's local storage.
	ints := rng.Perm(panelN * panelCols)[:4096]
	p.timed("wire.ints_ns_per_elem", "ns/elem", 1.0/float64(len(ints)), counts{}, func(n int) {
		for i := 0; i < n; i++ {
			var err error
			buf, err = wire.AppendAny(buf[:0], ints, false)
			must(err)
			_, _, err = wire.ReadAny(buf)
			must(err)
		}
	})

	p.timed("wire.gob_fallback_us", "us", 1e-3, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			var err error
			buf, err = wire.AppendAny(buf[:0], meta, false)
			must(err)
			_, _, err = wire.ReadAny(buf)
			must(err)
		}
	})
}

// pingPong runs n round trips between two processors of (possibly
// different) routers: ping sends and waits for the echo, and an echo
// goroutine at the far end bounces every message back.
type pingPong struct {
	near, far *msg.Router
	a, b      int
	tag, back msg.Tag
	stop      sync.WaitGroup
}

func startPingPong(near, far *msg.Router, a, b int) *pingPong {
	pp := &pingPong{near: near, far: far, a: a, b: b,
		tag:  msg.Tag{Class: msg.ClassData, Kind: 1},
		back: msg.Tag{Class: msg.ClassData, Kind: 2}}
	pp.stop.Add(1)
	go func() {
		defer pp.stop.Done()
		for {
			m, err := far.RecvFrom(b, a, pp.tag)
			if err != nil {
				return // router closed: the probe is over
			}
			if m.Data == nil {
				continue // burst filler: only the payload-carrying tail is echoed
			}
			if far.Send(b, a, pp.back, m.Data) != nil {
				return
			}
		}
	}()
	return pp
}

func (pp *pingPong) ping(data any) {
	must(pp.near.Send(pp.a, pp.b, pp.tag, data))
	_, err := pp.near.RecvFrom(pp.a, pp.b, pp.back)
	must(err)
}

func (p *prober) msgProbes() {
	r := msg.NewRouter(2)
	pp := startPingPong(r, r, 0, 1)
	payload := []float64{1}
	// Half the round trip: one Send → Recv hand-off.
	p.timed("msg.hop_ns", "ns", 0.5, counts{msgs: 2}, func(n int) {
		for i := 0; i < n; i++ {
			pp.ping(payload)
		}
	})
	p.allocs("msg.hop_allocs", 2000, 2, func() { pp.ping(payload) }) // a round trip is two hops
	p.later(func() {
		r.Close()
		pp.stop.Wait()
	})
}

func (p *prober) machineProbes() {
	m := core.New(machineP)
	p.later(m.Close)
	must(registerPart(m))
	a, err := m.NewArray(core.ArraySpec{Dims: []int{smallN}})
	must(err)
	buf := make([]float64, smallPiece)
	p.timed("arraymgr.local_read_ns", "ns", 1, counts{bytes: 8 * smallPiece}, func(n int) {
		for i := 0; i < n; i++ {
			must(a.ReadBlockInto([]int{0}, []int{smallPiece}, buf))
		}
	})
	p.timed("arraymgr.remote_read_inproc_us", "us", 1e-3, counts{msgs: 2, bytes: 8 * smallPiece}, func(n int) {
		for i := 0; i < n; i++ {
			must(a.ReadBlockInto([]int{smallPiece}, []int{2 * smallPiece}, buf))
		}
	})
	p.timed("arraymgr.create_free_us", "us", 1e-3, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			b, err := m.NewArray(core.ArraySpec{Dims: []int{smallN}})
			must(err)
			must(b.Free())
		}
	})
	procs := m.AllProcs()
	p.timed("dcall.call_empty_inproc_us", "us", 1e-3, counts{}, func(n int) {
		for i := 0; i < n; i++ {
			must(m.Call(procs, progNoop))
		}
	})
}

// spmdGroup runs body on every member of a size-member group over a bare
// router, n iterations each, and returns when all have finished.
func spmdGroup(r *msg.Router, size, n int, body func(w *spmd.World)) {
	procs := make([]int, size)
	for i := range procs {
		procs[i] = i
	}
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w := spmd.NewWorld(r, procs, rank, 1)
			for i := 0; i < n; i++ {
				body(w)
			}
		}(rank)
	}
	wg.Wait()
}

func (p *prober) spmdProbes() {
	r := msg.NewRouter(machineP)
	p.later(r.Close)
	// One climate simulation: half the machine, block rows, one halo row
	// either side.
	const group = machineP / 2
	l, cols := climateConfig.Rows/group, climateConfig.Cols
	secs := make([]*darray.Section, group)
	for i := range secs {
		secs[i] = darray.NewSection(darray.Double, (l+2)*cols)
	}
	p.timed("spmd.halo_exchange_us", "us", 1e-3, counts{msgs: 2 * (group - 1), bytes: 2 * (group - 1) * 8 * cols}, func(n int) {
		spmdGroup(r, group, n, func(w *spmd.World) {
			must(w.HaloExchange(spmd.Halo{
				Section: secs[w.Rank()], LocalDims: []int{l, cols}, Borders: []int{1, 1, 0, 0},
				GridDims: []int{group, 1}, Indexing: grid.RowMajor, GridIndexing: grid.RowMajor,
			}))
		})
	})
	p.timed("spmd.allreduce_us", "us", 1e-3, counts{msgs: 2 * (machineP - 1)}, func(n int) {
		spmdGroup(r, machineP, n, func(w *spmd.World) {
			_, err := w.AllReduceSum(float64(w.Rank()))
			must(err)
		})
	})
	p.timed("spmd.barrier_us", "us", 1e-3, counts{msgs: 2 * (machineP - 1)}, func(n int) {
		spmdGroup(r, machineP, n, func(w *spmd.World) { must(w.Barrier()) })
	})
}

func (p *prober) streamFFTProbes(rng *rand.Rand) {
	p.timed("stream.item_ns", "ns", 1, counts{}, func(n int) {
		s := stream.New[float64]()
		done := make(chan struct{})
		go func() {
			w := stream.NewWriter(s)
			for i := 0; i < n; i++ {
				w.Put(float64(i))
			}
			w.End()
			close(done)
		}()
		rd := stream.NewReader(s)
		for {
			if _, ok := rd.Next(); !ok {
				break
			}
		}
		<-done
	})

	// polymult multiplies n-coefficient polynomials with transforms of
	// length 2n, one processor per pipeline group on this machine.
	const nn = 2 * polyN
	r := msg.NewRouter(1)
	p.later(r.Close)
	w := spmd.NewWorld(r, []int{0}, 0, 1)
	eps := make([]float64, 2*nn)
	must(fft.ComputeRoots(nn, eps))
	data := randomValues(rng, 2*nn)
	p.timed("fft.transform_us", "us", 1e-3, counts{bytes: 8 * 2 * nn}, func(n int) {
		for i := 0; i < n; i++ {
			must(fft.TransformReverse(w, data, nn, fft.Inverse, eps))
		}
	})
}

// clusterProbes boots the two-process cluster the wire workloads use,
// times the boot, and prices an empty distributed call across it.
func (p *prober) clusterProbes() {
	const boots = 3
	var bootMs []float64
	for i := 0; i < boots; i++ {
		h := p.rec.begin("probe", "cluster.boot_ms", 0)
		t := time.Now()
		mc, err := bootMachine(true)
		must(err)
		bootMs = append(bootMs, float64(time.Since(t).Nanoseconds())/1e6)
		p.rec.end(h, "processes", clusterParts)
		if i < boots-1 {
			mc.close()
			continue
		}
		p.later(mc.close)
		procs := mc.m.AllProcs()
		p.timed("dcall.call_empty_wire_us", "us", 1e-3, counts{}, func(n int) {
			for i := 0; i < n; i++ {
				must(mc.m.Call(procs, progNoop))
			}
		})
	}
	p.out["cluster.boot_ms"] = overSpans(bootMs, "ms")
}

// peakRSSMiB is the peak resident set of this process plus the largest
// peak among the worker processes it has reaped (Linux reports KiB).
func peakRSSMiB() float64 {
	var self, children syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &self) != nil || syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children) != nil {
		return 0
	}
	return float64(self.Maxrss+children.Maxrss) / 1024
}
