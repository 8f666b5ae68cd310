package climate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// jacobiUpdateRef is the per-cell reference form of jacobiUpdate: every
// neighbour through a clamping accessor, the new block built in a separate
// buffer and copied back. The rolling kernel must reproduce it bit for bit.
func jacobiUpdateRef(f []float64, l, cols int, alpha float64) {
	next := make([]float64, l*cols)
	get := func(i, j int) float64 {
		// i in [-1, l] maps to storage row i+1; j clamped to [0, cols-1].
		if j < 0 {
			j = 0
		}
		if j >= cols {
			j = cols - 1
		}
		return f[(i+1)*cols+j]
	}
	for i := 0; i < l; i++ {
		for j := 0; j < cols; j++ {
			avg := 0.25 * (get(i-1, j) + get(i+1, j) + get(i, j-1) + get(i, j+1))
			next[i*cols+j] = (1-alpha)*get(i, j) + alpha*avg
		}
	}
	for i := 0; i < l; i++ {
		copy(f[(i+1)*cols:(i+2)*cols], next[i*cols:(i+1)*cols])
	}
}

// randomField returns the bordered storage of l interior rows, halo rows
// included, with values spread over several magnitudes so rounding differs
// from cell to cell.
func randomField(rng *rand.Rand, l, cols int) []float64 {
	f := make([]float64, (l+2)*cols)
	for i := range f {
		f[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return f
}

// checkKernel runs the kernel and the reference on copies of one field and
// requires bit-identical storage, halo rows included.
func checkKernel(t *testing.T, f []float64, l, cols int, alpha float64) {
	t.Helper()
	got := append([]float64(nil), f...)
	want := append([]float64(nil), f...)
	jacobiUpdate(got, l, cols, alpha)
	jacobiUpdateRef(want, l, cols, alpha)
	requireSameBits(t, fmt.Sprintf("%dx%d alpha=%v", l, cols, alpha), got, want)
}

var (
	kernelRows   = []int{1, 2, 5, 64}
	kernelCols   = []int{1, 2, 3, 128}
	kernelAlphas = []float64{0, 0.15, 0.4, 1, 1.7}
)

func TestJacobiUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, l := range kernelRows {
		for _, cols := range kernelCols {
			for _, alpha := range kernelAlphas {
				for trial := 0; trial < 3; trial++ {
					checkKernel(t, randomField(rng, l, cols), l, cols, alpha)
				}
			}
		}
	}
}

func FuzzJacobiUpdate(f *testing.F) {
	for _, l := range kernelRows {
		for _, cols := range kernelCols {
			f.Add(int64(l*1000+cols), uint8(l), uint8(cols), 0.15)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, l, cols uint8, alpha float64) {
		if l == 0 || cols == 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		checkKernel(t, randomField(rng, int(l), int(cols)), int(l), int(cols), alpha)
	})
}

// TestJacobiUpdateAllocs pins the kernel's memory: one allocation per
// call, the scratch of two cols-long rows, whatever the block height. The
// byte count is the least of several trials, so an allocation elsewhere in
// the process during one trial cannot fail the pin.
func TestJacobiUpdateAllocs(t *testing.T) {
	const l, cols, runs = 64, 128, 100
	f := randomField(rand.New(rand.NewSource(1)), l, cols)
	if a := testing.AllocsPerRun(runs, func() { jacobiUpdate(f, l, cols, 0.15) }); a > 1 {
		t.Fatalf("jacobiUpdate: %v allocations per call, want at most 1", a)
	}
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			jacobiUpdate(f, l, cols, 0.15)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if least > 2*cols*8 {
		t.Fatalf("jacobiUpdate: %d bytes per call, want at most %d (two rows)", least, 2*cols*8)
	}
}

// BenchmarkJacobiUpdate prices one copy's sweep at the climate-wire shape
// (128 rows over two copies, 128 columns): the rolling kernel next to the
// per-cell reference form.
func BenchmarkJacobiUpdate(b *testing.B) {
	const l, cols = 64, 128
	for _, k := range []struct {
		name string
		fn   func([]float64, int, int, float64)
	}{{"rolling", jacobiUpdate}, {"reference", jacobiUpdateRef}} {
		b.Run(k.name, func(b *testing.B) {
			f := randomField(rand.New(rand.NewSource(1)), l, cols)
			b.ReportAllocs()
			b.SetBytes(int64(8 * l * cols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.fn(f, l, cols, 0.15)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l*cols), "ns/cell")
		})
	}
}
