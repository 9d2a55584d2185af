package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeMatchesNaiveProperty(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var sum float64
		data := make([]float64, len(raw))
		for i, v := range raw {
			data[i] = float64(v) / 7
			sum += data[i]
		}
		s := Summarize(data)
		mean := sum / float64(len(data))
		var ss float64
		for _, x := range data {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(len(data)-1)
		return math.Abs(s.Mean-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(s.Std*s.Std-naive) < 1e-6*(1+naive)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	if Quantile(data, 0) != 1 || Quantile(data, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(data, 0.5) != 3 {
		t.Fatalf("median = %v", Quantile(data, 0.5))
	}
	if got := Quantile(data, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolated median = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Mean != 5.5 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("summary %+v", s)
	}
	// Unbiased variance of 1..10: 55/6.
	if math.Abs(s.Std*s.Std-55.0/6) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.P50 != 5.5 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.String() == "" {
		t.Fatal("empty render")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary")
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(2)
	for _, x := range []float64{1, 1.5, 2, 3, 4, 8, 0, -1} {
		h.Add(x)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	bs := h.Buckets()
	if len(bs) == 0 {
		t.Fatal("no buckets")
	}
	// Bucket [1,2): values 1, 1.5 -> 2 entries.
	if bs[0].Lo != 1 || bs[0].Count != 2 {
		t.Fatalf("first bucket %+v", bs[0])
	}
	if h.Render(20) == "" {
		t.Fatal("empty render")
	}
}

func TestLogHistogramBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLogHistogram(1)
}
