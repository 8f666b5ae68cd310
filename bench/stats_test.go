package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	asc := make([]float64, 101) // 0..100: the q-th percentile is q
	for i := range asc {
		asc[i] = float64(i)
	}
	for _, q := range []float64{0, 50, 95, 99, 100} {
		if got := percentile(asc, q); !near(got, q) {
			t.Errorf("percentile(%v) = %v", q, got)
		}
	}
	if got := percentile([]float64{10, 20}, 25); !near(got, 12.5) {
		t.Errorf("interpolated percentile = %v, want 12.5", got)
	}
}

// TestTailPercentileRule pins the ten-samples-beyond rule: p95 is refused
// below 200 samples, and the fallback is the highest whole percentile that
// still has ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 95},
		{200, 95},
		{199, 94},
		{100, 90},
		{50, 80},
		{20, 50},
		{5, 50}, // never below the median
		{0, 50},
	} {
		q := tailPercentile(c.n, 95)
		if q != c.want {
			t.Errorf("tailPercentile(%d, 95) = %v, want %v", c.n, q, c.want)
		}
		if c.n >= 20 && float64(c.n)*(100-q)/100 < tailBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, q, tailBeyond)
		}
	}
	if q := tailPercentile(1000, 99); q != 99 {
		t.Errorf("p99 of 1000 samples reported as p%v", q)
	}
	if q := tailPercentile(999, 99); q != 98 {
		t.Errorf("p99 of 999 samples reported as p%v, want the p98 fallback", q)
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, since the acceptance rule is stated
// in those terms.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7, 9}, 6.5, 9.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestMedianIQR pins what a run makes of its trials: the median over them
// and the inter-quartile range beside it.
func TestMedianIQR(t *testing.T) {
	med, iqr := medianIQR([]float64{100, 104, 98, 120, 101}) // sorted 98 100 101 104 120: q1 = 99, q3 = 112
	if med != 101 || !near(iqr, 13) {
		t.Errorf("median %v IQR %v, want 101 and 13", med, iqr)
	}
	if med, iqr := medianIQR([]float64{42}); med != 42 || iqr != 0 {
		t.Errorf("single trial: %v, %v", med, iqr)
	}
}
