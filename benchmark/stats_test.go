package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 7, 2}, 1.625, 3.5, 8},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11}, 3, 6, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.1, 14},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestAtRefClock(t *testing.T) {
	// A 3 ms slice on a clock whose spin took 0.1 ms where the reference
	// takes clockRefMs; the longer spin is taken as preempted.
	spin := 100 * time.Microsecond
	if got, want := atRefClock(3*time.Millisecond, spin, 3*spin), 3*clockRefMs/0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("atRefClock = %v, want %v", got, want)
	}
	if got, want := atRefClock(3*time.Millisecond, 2*spin, spin), 3*clockRefMs/0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("atRefClock with the later spin shorter = %v, want %v", got, want)
	}
}

func TestReplayQuantile(t *testing.T) {
	// Three replays of two slices; the slow replay's first slice and the
	// slow replay's second slice are different replays.
	replays := [][]float64{{1, 30}, {9, 10}, {2, 20}}
	if got := replayQuantile(replays, 0); got != 1+10 {
		t.Errorf("replayQuantile q=0 = %v, want 11", got)
	}
	if got := replayQuantile(replays, 0.5); got != 2+20 {
		t.Errorf("replayQuantile q=0.5 = %v, want 22", got)
	}
}

func TestSlicer(t *testing.T) {
	var s slicer
	s.begin()
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		s.mark()
	}
	if len(s.ms) != 3 {
		t.Fatalf("slicer kept %d slices, want 3", len(s.ms))
	}
	for _, ms := range s.ms {
		if !(ms > 0) {
			t.Errorf("slice time %v, want positive", ms)
		}
	}
	if s.spun <= 0 {
		t.Errorf("spun = %v, want positive", s.spun)
	}
	if got := sum([]float64{1.5, 2, 0.25}); got != 3.75 {
		t.Errorf("sum = %v, want 3.75", got)
	}
}

func TestWindowMetrics(t *testing.T) {
	// Four windows; the 10th percentile over windows ignores the slow
	// ones.
	ws := []window{
		{lat: []float64{1, 2, 3}, jobs: 1e6, cpu: 2 * time.Second},
		{lat: []float64{1, 3, 5}, jobs: 1e6, cpu: 3 * time.Second},
		{lat: []float64{10, 20, 30}, jobs: 2e6, cpu: 10 * time.Second},
		{lat: []float64{9, 9, 9}, jobs: 5e5, cpu: 4 * time.Second},
		{jobs: 0},
	}
	// Window medians 2, 3, 20, 9: sorted 2, 3, 9, 20, 10th percentile
	// 2 + 0.3·(3-2).
	if got := latency(ws, 0.5); math.Abs(got-2.3) > 1e-9 {
		t.Errorf("latency p50 = %v, want 2.3", got)
	}
	// CPU seconds per million jobs 2, 3, 5, 8: 10th percentile 2.3.
	if got := cpuPerMjob(ws); math.Abs(got-2.3) > 1e-9 {
		t.Errorf("cpuPerMjob = %v, want 2.3", got)
	}
}
