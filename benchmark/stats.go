package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

// percentile returns the q-quantile (0 <= q <= 1) of sorted, which
// must be in ascending order, interpolating linearly between the two
// closest ranks. NaN when sorted is empty.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median is Python's statistics.median: the middle value, or the
// mean of the two middle values. NaN when xs is empty.
func median(xs []float64) float64 {
	d := sortedCopy(xs)
	n := len(d)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them with its default
// "exclusive" method, which is how the spread BENCHMARK.json's bounds
// are checked against is defined. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartiles as a
// share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// replayQuantile estimates the time of one replay from several replays
// of the same trace, each cut into the same slices: for each slice it
// takes the q-quantile across replays, and it sums those. Every slice,
// the drain included, counts once; each is timed in its quieter runs.
func replayQuantile(replays [][]float64, q float64) float64 {
	t := 0.0
	col := make([]float64, len(replays))
	for k := range replays[0] {
		for r, slices := range replays {
			col[r] = slices[k]
		}
		t += percentile(sortedCopy(col), q)
	}
	return t
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
