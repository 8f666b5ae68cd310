package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a percentile
// before it is reported: fewer and the figure is one or two outliers, not
// a property of the distribution.
const tailBeyond = 10

// median returns the middle value of xs (mean of the two middle values for
// an even count). xs is not modified. An empty slice yields NaN.
func median(xs []float64) float64 {
	return percentile(sorted(xs), 50)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks. Empty input yields NaN.
func percentile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return math.NaN()
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	return asc[lo] + (pos-float64(lo))*(asc[hi]-asc[lo])
}

// tailPercentile returns the highest whole percentile, at most want and
// never below the median, that still has tailBeyond samples beyond it among
// n. p95 needs 200 samples; a 50-sample trial reports p80.
func tailPercentile(n int, want float64) float64 {
	q := math.Floor(100 * float64(n-tailBeyond) / float64(max(n, 1)))
	return min(want, max(q, 50))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spread
// computed here is the one the acceptance rule computes. Fewer than two
// values yield the value itself twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := min(max(int(math.Floor(pos)), 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// medianIQR returns the median of xs and the inter-quartile range beside
// it, the quartiles taken the way the acceptance rule takes them. It is
// what a per-trial statistic becomes over the trials of a run, a metric
// over the runs of a set of runs (the range is then the run-to-run
// spread), and a layer probe over its spans.
func medianIQR(xs []float64) (med, iqr float64) {
	q1, q3 := quartiles(xs)
	return median(xs), q3 - q1
}
