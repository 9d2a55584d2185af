package workload

import (
	"math"
	"testing"
)

// FuzzRoundToClass: for any positive finite size and eps in (0, 2],
// the rounded value is a class boundary within one class of the input.
func FuzzRoundToClass(f *testing.F) {
	f.Add(1.0, 0.5)
	f.Add(7.3, 0.1)
	f.Add(1e-6, 1.0)
	f.Add(1e9, 0.25)
	f.Fuzz(func(t *testing.T, size, eps float64) {
		if !(size > 0) || math.IsInf(size, 0) || size > 1e12 || size < 1e-12 {
			t.Skip()
		}
		if !(eps > 0.01) || eps > 2 {
			t.Skip()
		}
		v := RoundToClass(size, eps)
		if v < size {
			t.Fatalf("RoundToClass(%v,%v)=%v below input", size, eps, v)
		}
		if v > size*(1+eps)*(1+1e-9) {
			t.Fatalf("RoundToClass(%v,%v)=%v overshoots", size, eps, v)
		}
		k := math.Log(v) / math.Log(1+eps)
		if math.Abs(k-math.Round(k)) > 1e-4 {
			t.Fatalf("RoundToClass(%v,%v)=%v not a class boundary", size, eps, v)
		}
	})
}

// FuzzTraceValidate: Validate never panics on arbitrary job fields,
// and a job it accepts has a positive size of at most MaxSize and a
// finite weight.
func FuzzTraceValidate(f *testing.F) {
	f.Add(0, 0.0, 1.0, 1.0)
	f.Add(3, -1.0, 0.0, -2.0)
	f.Add(0, 0.0, math.NaN(), 1.0)
	f.Add(0, 0.0, math.Inf(1), 1.0)
	f.Add(0, 0.0, math.Inf(-1), 1.0)
	f.Add(0, 0.0, 1.0, math.NaN())
	f.Add(0, 0.0, 1.0, math.Inf(1))
	f.Add(0, 0.0, 1.0, math.Inf(-1))
	f.Add(0, 0.0, float64(MaxSize), 1.0)
	f.Add(0, 0.0, 1.7e308, 1.0)
	f.Fuzz(func(t *testing.T, id int, release, size, weight float64) {
		tr := &Trace{Jobs: []Job{{ID: id, Release: release, Size: size, Weight: weight}}}
		if tr.Validate() != nil {
			return
		}
		if !(size > 0) || size > MaxSize || math.IsNaN(weight) || math.IsInf(weight, 0) {
			t.Fatalf("accepted a job with size %v and weight %v", size, weight)
		}
	})
}
