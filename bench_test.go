// Benchmark harness: one benchmark per experiment of DESIGN.md's
// per-figure index (E1–E18). Run with
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records representative output and compares the shapes
// against the paper's qualitative claims.
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps/animation"
	"repro/internal/apps/climate"
	"repro/internal/apps/innerproduct"
	"repro/internal/apps/polymult"
	"repro/internal/apps/reactor"
	"repro/internal/apps/triangular"
	"repro/internal/arraymgr"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dcall"
	"repro/internal/defval"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/spmd"
	"repro/internal/stencil"
)

// --- E1: coupled climate simulation (Fig 2.1) ---

func BenchmarkE1_ClimateCoupled(b *testing.B) {
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("distributed/P=%d", p), func(b *testing.B) {
			m := core.New(p)
			defer m.Close()
			if err := climate.RegisterPrograms(m); err != nil {
				b.Fatal(err)
			}
			cfg := climate.Config{Rows: 16, Cols: 16, Steps: 10, Alpha: 0.4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := climate.Run(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sequential", func(b *testing.B) {
		cfg := climate.Config{Rows: 16, Cols: 16, Steps: 10, Alpha: 0.4}
		for i := 0; i < b.N; i++ {
			climate.RunSequential(cfg)
		}
	})
}

// --- E2: pipeline throughput (Fig 2.2) ---

func benchPolymultPairs(b *testing.B, pipelined bool) {
	m := core.New(4)
	defer m.Close()
	if err := polymult.RegisterPrograms(m); err != nil {
		b.Fatal(err)
	}
	const n = 32
	const pairs = 4
	rng := rand.New(rand.NewSource(2))
	input := make([][2][]float64, pairs)
	for k := range input {
		f, g := make([]float64, n), make([]float64, n)
		for i := range f {
			f[i] = rng.NormFloat64()
			g[i] = rng.NormFloat64()
		}
		input[k] = [2][]float64{f, g}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pipelined {
			if _, err := polymult.Run(m, n, input); err != nil {
				b.Fatal(err)
			}
		} else {
			for k := 0; k < pairs; k++ {
				if _, err := polymult.Run(m, n, input[k:k+1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkE2_FourierPipeline(b *testing.B) {
	b.Run("pipelined", func(b *testing.B) { benchPolymultPairs(b, true) })
	b.Run("unpipelined", func(b *testing.B) { benchPolymultPairs(b, false) })
}

// --- E3: reactor discrete-event simulation (Fig 2.3) ---

func BenchmarkE3_ReactorSim(b *testing.B) {
	for _, c := range []struct{ cells, p int }{{16, 2}, {64, 4}} {
		b.Run(fmt.Sprintf("cells=%d/P=%d", c.cells, c.p), func(b *testing.B) {
			m := core.New(c.p)
			defer m.Close()
			if err := reactor.RegisterPrograms(m); err != nil {
				b.Fatal(err)
			}
			cfg := reactor.Config{Cells: c.cells, Dt: 0.25, Horizon: 5, Alpha: 0.25, ValveCut: 0.8}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reactor.Run(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: animation frames (Fig 2.4) ---

func BenchmarkE4_AnimationFrames(b *testing.B) {
	cfg := animation.Config{Frames: 8, Height: 32, Width: 32}
	for _, groups := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			c := cfg
			c.Groups = groups
			m := core.New(4)
			defer m.Close()
			if err := animation.RegisterPrograms(m); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := animation.Run(m, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sequential", func(b *testing.B) {
		c := cfg
		c.Groups = 1
		for i := 0; i < b.N; i++ {
			animation.RunSequential(c)
		}
	})
}

// --- E5: partition bijection (Fig 3.1) ---

func BenchmarkE5_PartitionDistribute(b *testing.B) {
	dims := []int{64, 64}
	gridDims := []int{4, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				if _, _, err := grid.OwnerSlot([]int{r, c}, dims, gridDims, grid.RowMajor); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- E6: distributed-call overhead vs group size (Fig 3.2) ---

func BenchmarkE6_CallControlFlow(b *testing.B) {
	m := core.New(8)
	defer m.Close()
	noop := func(w *spmd.World, a *dcall.Args) {}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("group=%d", g), func(b *testing.B) {
			procs := m.Procs(0, 1, g)
			for i := 0; i < b.N; i++ {
				if err := m.CallFn(procs, noop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: call data flow (Fig 3.3) ---

func BenchmarkE7_CallDataFlow(b *testing.B) {
	m := core.New(4)
	defer m.Close()
	a, err := m.NewArray(core.ArraySpec{Dims: []int{1 << 12}})
	if err != nil {
		b.Fatal(err)
	}
	body := func(w *spmd.World, args *dcall.Args) {
		sec := args.Section(0)
		for i := range sec.F {
			sec.F[i] += 1
		}
	}
	b.SetBytes(int64(8 << 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.CallFn(m.AllProcs(), body, a.Param()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: concurrent vs serialized distributed calls (Fig 3.4) ---

func benchTwoCalls(b *testing.B, concurrent bool) {
	m := core.New(4)
	defer m.Close()
	groupA, groupB := m.Procs(0, 1, 2), m.Procs(2, 1, 2)
	busy := func(w *spmd.World, a *dcall.Args) {
		if _, err := w.Exchange(1-w.Rank(), 0, []float64{1}); err != nil {
			panic(err)
		}
		s := 0.0
		for i := 0; i < 50000; i++ {
			s += math.Sqrt(float64(i))
		}
		_ = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if concurrent {
			compose.Par(
				func() {
					if err := m.CallFn(groupA, busy); err != nil {
						panic(err)
					}
				},
				func() {
					if err := m.CallFn(groupB, busy); err != nil {
						panic(err)
					}
				},
			)
		} else {
			if err := m.CallFn(groupA, busy); err != nil {
				b.Fatal(err)
			}
			if err := m.CallFn(groupB, busy); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE8_ConcurrentCalls(b *testing.B) {
	b.Run("concurrent", func(b *testing.B) { benchTwoCalls(b, true) })
	b.Run("serialized", func(b *testing.B) { benchTwoCalls(b, false) })
}

// --- E9: 2-D partition arithmetic (Fig 3.5) ---

func BenchmarkE9_Partition2D(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coord, lidx, err := grid.GlobalToLocal([]int{3, 2}, []int{4, 4}, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := grid.LocalToGlobal(coord, lidx, []int{4, 4}, []int{2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: decomposition computation (Fig 3.6) ---

func BenchmarkE10_Decompositions(b *testing.B) {
	specs := [][]grid.Decomp{
		{grid.BlockDefault(), grid.BlockDefault()},
		{grid.BlockOf(2), grid.BlockOf(8)},
		{grid.BlockDefault(), grid.NoDecomp()},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			g, err := grid.GridDims(16, s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := grid.LocalDims([]int{400, 200}, g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E11: bordered sections (Fig 3.7) ---

func BenchmarkE11_Borders(b *testing.B) {
	localDims := []int{32, 32}
	borders := []int{2, 2, 1, 1}
	plus, err := darray.DimsPlus(localDims, borders)
	if err != nil {
		b.Fatal(err)
	}
	src := darray.NewSection(darray.Double, grid.Size(plus))
	dst := darray.NewSection(darray.Double, grid.Size(localDims))
	none := darray.NoBorders(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := darray.CopyInterior(dst, src, localDims, none, borders, grid.RowMajor); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: indexing order (Fig 3.8) ---

func BenchmarkE12_IndexingOrder(b *testing.B) {
	for _, ix := range []grid.Indexing{grid.RowMajor, grid.ColMajor} {
		b.Run(ix.String(), func(b *testing.B) {
			m := core.New(8)
			defer m.Close()
			a, err := m.NewArray(core.ArraySpec{
				Dims: []int{2, 2}, Procs: []int{0, 2, 4, 6}, Indexing: ix,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Write(float64(i), 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E13: array-manager op latency (Fig 3.9) ---

func BenchmarkE13_ArrayManagerOps(b *testing.B) {
	m := core.New(4)
	defer m.Close()
	a, err := m.NewArray(core.ArraySpec{Dims: []int{8}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("read/local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.ReadOn(0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read/remote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.ReadOn(0, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write/local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := a.WriteOn(0, 1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write/remote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := a.WriteOn(0, 1, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("create+free/P=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			arr, err := m.NewArray(core.ArraySpec{Dims: []int{32}})
			if err != nil {
				b.Fatal(err)
			}
			if err := arr.Free(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E14: wrapper combining (Fig 3.10) ---

func BenchmarkE14_WrapperCombine(b *testing.B) {
	m := core.New(8)
	defer m.Close()
	procs := m.AllProcs()
	sum := func(x, y []float64) []float64 {
		z := make([]float64, len(x))
		for i := range x {
			z[i] = x[i] + y[i]
		}
		return z
	}
	b.Run("status-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := m.CallFnStatus(procs, func(w *spmd.World, a *dcall.Args) {
				a.SetStatus(0, w.Rank())
			}, dcall.Status())
			if st != 7 {
				b.Fatalf("status %d", st)
			}
		}
	})
	b.Run("reduction-len64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := defval.New[[]float64]()
			if err := m.CallFn(procs, func(w *spmd.World, a *dcall.Args) {
				r := a.Reduction(0)
				for k := range r {
					r[k] = 1
				}
			}, dcall.Reduce(64, sum, out)); err != nil {
				b.Fatal(err)
			}
			if out.Value()[0] != 8 {
				b.Fatal("bad reduction")
			}
		}
	})
}

// --- E15: polynomial multiplication (Fig 6.1) ---

func BenchmarkE15_PolyMult(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("pipeline/n=%d", n), func(b *testing.B) {
			m := core.New(4)
			defer m.Close()
			if err := polymult.RegisterPrograms(m); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(15))
			input := make([][2][]float64, 2)
			for k := range input {
				f, g := make([]float64, n), make([]float64, n)
				for i := range f {
					f[i] = rng.NormFloat64()
					g[i] = rng.NormFloat64()
				}
				input[k] = [2][]float64{f, g}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := polymult.Run(m, n, input); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("schoolbook/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(15))
			f, g := make([]float64, n), make([]float64, n)
			for i := range f {
				f[i] = rng.NormFloat64()
				g[i] = rng.NormFloat64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				polymult.Schoolbook(f, g)
				polymult.Schoolbook(f, g)
			}
		})
	}
}

// --- E16: inner product (§6.1) ---

func BenchmarkE16_InnerProduct(b *testing.B) {
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("distributed/P=%d", p), func(b *testing.B) {
			m := core.New(p)
			defer m.Close()
			if err := innerproduct.RegisterPrograms(m); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := innerproduct.Run(m, 256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			innerproduct.RunSequential(1024)
		}
	})
}

// --- E17: border verification (§3.2.1.3) ---

func BenchmarkE17_VerifyBorders(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("realloc/n=%d", n), func(b *testing.B) {
			m := core.New(4)
			defer m.Close()
			a, err := m.NewArray(core.ArraySpec{
				Dims: []int{n}, Borders: arraymgr.ExplicitBorders{1, 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			specs := []arraymgr.BorderSpec{
				arraymgr.ExplicitBorders{2, 2},
				arraymgr.ExplicitBorders{1, 1},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Verify(1, specs[i%2], grid.RowMajor); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("match/n=4096", func(b *testing.B) {
		m := core.New(4)
		defer m.Close()
		a, err := m.NewArray(core.ArraySpec{
			Dims: []int{4096}, Borders: arraymgr.ExplicitBorders{1, 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Verify(1, arraymgr.ExplicitBorders{1, 1}, grid.RowMajor); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E18: linear algebra (§D) ---

func BenchmarkE18_LinAlg(b *testing.B) {
	for _, c := range []struct{ n, p int }{{16, 1}, {16, 2}, {16, 4}} {
		b.Run(fmt.Sprintf("lu+qr/n=%d/P=%d", c.n, c.p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lu, qr, ortho, err := experiments.LinalgResiduals(c.n, c.p)
				if err != nil {
					b.Fatal(err)
				}
				if lu > 1e-9 || qr > 1e-9 || ortho > 1e-9 {
					b.Fatal("residuals too large")
				}
			}
		})
	}
}

// --- E19: channel-coupled simulation (§7.2.1 extension) ---

func BenchmarkE19_ChannelCoupling(b *testing.B) {
	cfg := climate.Config{Rows: 16, Cols: 32, Steps: 10, Alpha: 0.4}
	b.Run("task-level", func(b *testing.B) {
		m := core.New(4)
		defer m.Close()
		if err := climate.RegisterPrograms(m); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := climate.Run(m, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("channels", func(b *testing.B) {
		m := core.New(4)
		defer m.Close()
		if err := climate.RegisterPrograms(m); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := climate.RunChanneled(m, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E21: bulk vs per-element data plane ---

// BenchmarkE21_BulkDataPlane compares moving a whole distributed vector
// through the per-element path (one array-manager message per element)
// against the bulk block path (one message per owning processor). The
// ratio is the payoff of the section-level data plane.
func BenchmarkE21_BulkDataPlane(b *testing.B) {
	const n = 4096
	m := core.New(4)
	defer m.Close()
	a, err := m.NewArray(core.ArraySpec{Dims: []int{n}})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	lo, hi := []int{0}, []int{n}

	b.Run("write/per-element", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if err := a.Write(vals[j], j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("write/bulk", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			if err := a.WriteBlock(lo, hi, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read/per-element", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if _, err := a.Read(j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("read/bulk", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			if _, err := a.ReadBlock(lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The task-level conveniences now ride the bulk path.
	b.Run("fill", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			if err := a.Fill(func(idx []int) float64 { return float64(idx[0]) }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			if _, err := a.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- overlap-area stencil (§3.2.1.3): borders as communication buffers ---

func BenchmarkStencil_OverlapAreas(b *testing.B) {
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("distributed/P=%d", p), func(b *testing.B) {
			m := core.New(p)
			defer m.Close()
			if err := stencil.RegisterPrograms(m); err != nil {
				b.Fatal(err)
			}
			init := func(i, j int) float64 { return float64(i * j) }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stencil.Run(m, 16, 16, 10, 1.0, init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sequential", func(b *testing.B) {
		init := func(i, j int) float64 { return float64(i * j) }
		for i := 0; i < b.N; i++ {
			stencil.RunSequential(16, 16, 10, 1.0, init)
		}
	})
}

// --- supporting micro-benchmarks: the FFT substrate itself ---

func BenchmarkFFT_SeqVsDirect(b *testing.B) {
	const n = 256
	data := make([]float64, 2*n)
	rng := rand.New(rand.NewSource(9))
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	b.Run("seq-fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fft.SeqFFT(data, fft.Forward); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-dft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.DFTDirect(data, fft.Forward)
		}
	})
}

// --- E22: the concurrent, allocation-free data plane ---

// BenchmarkE22_CoordinatorScatterGather measures the concurrent
// scatter/gather block-read coordinator across machine sizes: it pays
// one round trip to the slowest owner, however many owners there are.
// lat=0 runs on the raw in-process router; lat=20µs models a
// multicomputer interconnect hop, the regime the paper's runtime
// actually lives in. (EXPERIMENTS.md keeps the recorded serial
// owner-at-a-time numbers this coordinator replaced.)
func BenchmarkE22_CoordinatorScatterGather(b *testing.B) {
	const perOwner = 256
	for _, p := range []int{4, 16, 64} {
		for _, lat := range []time.Duration{0, 20 * time.Microsecond} {
			n := perOwner * p
			m := core.New(p)
			a, err := m.NewArray(core.ArraySpec{Dims: []int{n}})
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Fill(func(idx []int) float64 { return float64(idx[0]) }); err != nil {
				b.Fatal(err)
			}
			m.VM.Router().SetLatency(lat)
			lo, hi := []int{0}, []int{n}
			b.Run(fmt.Sprintf("concurrent/P=%d/lat=%v", p, lat), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					if _, err := a.ReadBlock(lo, hi); err != nil {
						b.Fatal(err)
					}
				}
			})
			m.Close()
		}
	}
}

// BenchmarkE22_LocalFastPath measures the zero-copy local fast path: a
// wholly-local rectangle read into a caller-supplied buffer (and written
// from one) against the same rectangle through the message-based
// coordinator. Run with -benchmem: the fast path must report 0 allocs/op.
func BenchmarkE22_LocalFastPath(b *testing.B) {
	m := core.New(4)
	defer m.Close()
	a, err := m.NewArray(core.ArraySpec{
		Dims:    []int{64, 64},
		Distrib: []grid.Decomp{grid.BlockOf(2), grid.BlockOf(2)},
	})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := []int{0, 0}, []int{32, 32} // processor 0's local section
	buf := make([]float64, 32*32)
	if err := a.WriteBlock(lo, hi, buf); err != nil {
		b.Fatal(err)
	}
	bytes := int64(8 * len(buf))
	b.Run("read-into/local", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := a.ReadBlockInto(lo, hi, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write/local", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := a.WriteBlock(lo, hi, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read/allocating", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.ReadBlock(lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E23: the indexed gather/scatter plane ---

// BenchmarkE23_IndexedGatherScatter compares moving k scattered elements
// through the per-element path (one array-manager round trip per element)
// against the indexed gather/scatter plane (one concurrent request per
// owning processor). lat=0 runs on the raw in-process router; lat=20µs
// models a multicomputer interconnect hop, where the per-element loop
// accumulates 2k hops and the batched path pays one overlapped round
// trip. The ratio is the payoff of batching the paper's scattered-index
// task-level access pattern (§4.2.3/§4.2.4).
func BenchmarkE23_IndexedGatherScatter(b *testing.B) {
	const perOwner = 64
	for _, p := range []int{4, 16, 64} {
		for _, lat := range []time.Duration{0, 20 * time.Microsecond} {
			n := perOwner * p
			m := core.New(p)
			a, err := m.NewArray(core.ArraySpec{Dims: []int{n}})
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Fill(func(idx []int) float64 { return float64(idx[0]) }); err != nil {
				b.Fatal(err)
			}
			m.VM.Router().SetLatency(lat)
			rng := rand.New(rand.NewSource(23))
			for _, k := range []int{64, 1024} {
				indices := make([][]int, k)
				for i := range indices {
					indices[i] = []int{rng.Intn(n)}
				}
				vals := make([]float64, k)
				dst := make([]float64, k)
				for i := range vals {
					vals[i] = float64(i)
				}
				tag := fmt.Sprintf("P=%d/lat=%v/k=%d", p, lat, k)
				b.Run("gather/"+tag, func(b *testing.B) {
					b.SetBytes(int64(8 * k))
					for i := 0; i < b.N; i++ {
						if err := a.GatherElementsInto(indices, dst); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("scatter/"+tag, func(b *testing.B) {
					b.SetBytes(int64(8 * k))
					for i := 0; i < b.N; i++ {
						if err := a.ScatterElements(indices, vals); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("per-element/"+tag, func(b *testing.B) {
					b.SetBytes(int64(8 * k))
					for i := 0; i < b.N; i++ {
						for _, idx := range indices {
							if _, err := a.Read(idx...); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
			m.Close()
		}
	}
}

// --- E24: strided restriction vs indexed gather ---

// BenchmarkE24_StridedRestriction is the multigrid-restriction /
// down-sampling experiment: fetching every k-th row of a block-row
// distributed field through the strided bulk plane
// (ReadBlockStridedInto: bounds + step per owner) against the equivalent
// GatherElements call (an index vector with one tuple per sampled
// element). Both paths cost one request/reply pair per owning processor
// (pinned by arraymgr.TestStridedMessageBudget), so under a modeled
// interconnect hop (lat=20µs, the E22/E23 regime) they pay the same
// overlapped round trip — the ratio isolates what the index vector costs:
// per-element ownership resolution, per-owner offset lists, and
// per-element payload instead of three small vectors.
func BenchmarkE24_StridedRestriction(b *testing.B) {
	const rowsPerOwner = 32
	const cols = 1024
	for _, p := range []int{4, 16, 64} {
		for _, lat := range []time.Duration{0, 20 * time.Microsecond} {
			rows := rowsPerOwner * p
			m := core.New(p)
			a, err := m.NewArray(core.ArraySpec{
				Dims:    []int{rows, cols},
				Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Fill(func(idx []int) float64 { return float64(idx[0]*cols + idx[1]) }); err != nil {
				b.Fatal(err)
			}
			m.VM.Router().SetLatency(lat)
			for _, k := range []int{2, 4, 8} {
				srows := (rows + k - 1) / k
				dst := make([]float64, srows*cols)
				indices := make([][]int, 0, srows*cols)
				for i := 0; i < rows; i += k {
					for j := 0; j < cols; j++ {
						indices = append(indices, []int{i, j})
					}
				}
				lo, hi, step := []int{0, 0}, []int{rows, cols}, []int{k, 1}
				tag := fmt.Sprintf("P=%d/lat=%v/k=%d", p, lat, k)
				b.Run("strided/"+tag, func(b *testing.B) {
					b.SetBytes(int64(8 * len(dst)))
					for i := 0; i < b.N; i++ {
						if err := a.ReadBlockStridedInto(lo, hi, step, dst); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("gather/"+tag, func(b *testing.B) {
					b.SetBytes(int64(8 * len(dst)))
					for i := 0; i < b.N; i++ {
						if err := a.GatherElementsInto(indices, dst); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			m.Close()
		}
	}
}

// --- E25: cyclic vs block decomposition on a triangular update ---

// BenchmarkE25_TriangularUpdate measures the load-balance payoff of the
// cyclic decomposition layer on the LU-style triangular update: each
// variant factors the same matrix with a modeled per-active-row cost, so
// the benchmark time tracks the busiest copy (sleeps overlap across copies
// the way compute overlaps across dedicated processors). Cyclic rows keep
// the shrinking active region spread over every processor; block rows
// drain from the top and serialize on the trailing block's owner.
func BenchmarkE25_TriangularUpdate(b *testing.B) {
	for _, layout := range []struct {
		name string
		dist grid.Decomp
	}{
		{"block", grid.BlockDefault()},
		{"cyclic", grid.CyclicDefault()},
	} {
		for _, c := range []struct{ n, p int }{{32, 4}, {32, 16}} {
			b.Run(fmt.Sprintf("%s/n=%d/P=%d", layout.name, c.n, c.p), func(b *testing.B) {
				m := core.New(c.p)
				defer m.Close()
				if err := triangular.RegisterPrograms(m); err != nil {
					b.Fatal(err)
				}
				m.VM.Router().SetLatency(20 * time.Microsecond)
				cfg := triangular.Config{N: c.n, Dist: layout.dist, WorkPerRow: time.Millisecond}
				want := triangular.RunSequential(cfg)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := triangular.Run(m, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if dev := triangular.MaxDeviation(res.Factors, want); dev > 1e-12 {
						b.Fatalf("factors deviate by %g", dev)
					}
				}
			})
		}
	}
}

// --- E26: direct redistribution vs gather-then-scatter panel handoff ---

// BenchmarkE26_PanelHandoff measures the block→cyclic panel handoff of an
// LU-style pipeline through the direct owner↔owner redistribution plane
// against the gather-then-scatter bounce through the calling processor.
// Under a modeled 20µs interconnect hop the direct path ships each remote
// panel in one hop instead of two and sends P-1 fewer messages total.
func BenchmarkE26_PanelHandoff(b *testing.B) {
	for _, mode := range []struct {
		name   string
		bounce bool
	}{
		{"direct", false},
		{"bounce", true},
	} {
		for _, c := range []struct{ n, p int }{{64, 16}, {128, 64}} {
			b.Run(fmt.Sprintf("%s/n=%d/P=%d", mode.name, c.n, c.p), func(b *testing.B) {
				m := core.New(c.p)
				defer m.Close()
				if err := triangular.RegisterPrograms(m); err != nil {
					b.Fatal(err)
				}
				m.VM.Router().SetLatency(20 * time.Microsecond)
				cfg := triangular.PanelConfig{N: c.n, Bounce: mode.bounce}
				want := triangular.RunSequential(triangular.Config{N: c.n})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := triangular.RunPanelHandoff(m, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if dev := triangular.MaxDeviation(res.Factors, want); dev > 1e-12 {
						b.Fatalf("factors deviate by %g", dev)
					}
				}
			})
		}
	}
}

// BenchmarkE22_HaloExchange measures the shared border-exchange primitive
// across group sizes: one distributed call performing b.N face exchanges
// on a block-row field with one-cell borders (the climate/stencil shape).
func BenchmarkE22_HaloExchange(b *testing.B) {
	const cols = 64
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			const l = 8 // interior rows per copy
			m := core.New(p)
			defer m.Close()
			procs := m.AllProcs()
			field, err := m.NewArray(core.ArraySpec{
				Dims:    []int{l * p, cols},
				Procs:   procs,
				Distrib: []grid.Decomp{grid.BlockDefault(), grid.NoDecomp()},
				Borders: arraymgr.ExplicitBorders{1, 1, 0, 0},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := m.CallFn(procs, func(w *spmd.World, a *dcall.Args) {
				halo := spmd.Halo{
					Section:      a.Section(0),
					LocalDims:    []int{l, cols},
					Borders:      []int{1, 1, 0, 0},
					GridDims:     []int{p, 1},
					Indexing:     grid.RowMajor,
					GridIndexing: grid.RowMajor,
				}
				for i := 0; i < b.N; i++ {
					if err := w.HaloExchange(halo); err != nil {
						panic(err)
					}
				}
			}, field.Param()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE28_ReplicatedWrite measures the healthy-path cost of buddy
// replication: whole-array bulk writes with k=0 (plain) vs k=1 (every
// write-side owner mirrors its piece to one buddy). Reads are priced in
// E22/E21 and are unchanged by replication.
func BenchmarkE28_ReplicatedWrite(b *testing.B) {
	const n = 4096
	for _, k := range []int{0, 1} {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("k=%d/P=%d", k, p), func(b *testing.B) {
				m := core.New(p)
				defer m.Close()
				a, err := m.NewArray(core.ArraySpec{Dims: []int{n}, Replicas: k})
				if err != nil {
					b.Fatal(err)
				}
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = float64(i)
				}
				b.SetBytes(8 * n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := a.WriteBlock([]int{0}, []int{n}, vals); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
