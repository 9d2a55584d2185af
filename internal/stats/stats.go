// Package stats provides the small statistical toolkit the reports
// use: exact quantiles, one-line summaries and logarithmic
// histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the data using
// linear interpolation between order statistics. It sorts a copy.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	cp := append([]float64(nil), data...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, P50, P90, P99 float64
	Max                float64
}

// Summarize computes a Summary of the data. Mean and variance
// accumulate in one pass by Welford's update; Std is the unbiased
// sample deviation (0 below two values).
func Summarize(data []float64) Summary {
	if len(data) == 0 {
		return Summary{}
	}
	var mean, m2 float64
	lo, hi := data[0], data[0]
	for i, x := range data {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	std := 0.0
	if len(data) > 1 {
		std = math.Sqrt(m2 / float64(len(data)-1))
	}
	return Summary{
		N:    len(data),
		Mean: mean, Std: std,
		Min: lo,
		P50: Quantile(data, 0.5), P90: Quantile(data, 0.9), P99: Quantile(data, 0.99),
		Max: hi,
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// LogHistogram buckets positive values by powers of the given base.
type LogHistogram struct {
	Base    float64
	counts  map[int]int64
	total   int64
	underlo int64 // non-positive values
}

// NewLogHistogram creates a histogram with the given bucket base (>1).
func NewLogHistogram(base float64) *LogHistogram {
	if base <= 1 {
		panic("stats: log histogram base must exceed 1")
	}
	return &LogHistogram{Base: base, counts: make(map[int]int64)}
}

// Add records a value.
func (h *LogHistogram) Add(x float64) {
	h.total++
	if x <= 0 {
		h.underlo++
		return
	}
	k := int(math.Floor(math.Log(x) / math.Log(h.Base)))
	h.counts[k]++
}

// Total returns the number of recorded values.
func (h *LogHistogram) Total() int64 { return h.total }

// Buckets returns (lowerBound, count) pairs in ascending order.
func (h *LogHistogram) Buckets() []struct {
	Lo    float64
	Count int64
} {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]struct {
		Lo    float64
		Count int64
	}, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct {
			Lo    float64
			Count int64
		}{math.Pow(h.Base, float64(k)), h.counts[k]})
	}
	return out
}

// Render draws an ASCII bar chart of the histogram.
func (h *LogHistogram) Render(width int) string {
	if width < 10 {
		width = 40
	}
	bs := h.Buckets()
	var maxC int64
	for _, b := range bs {
		if b.Count > maxC {
			maxC = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bs {
		bar := int(float64(width) * float64(b.Count) / float64(maxC))
		fmt.Fprintf(&sb, "%12.3g | %s %d\n", b.Lo, strings.Repeat("#", bar), b.Count)
	}
	return sb.String()
}
