package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name        string
		a, b        []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"identical", base, base, 0.1, true, same},
		{"within bound", base, scale(base, 1.05), 0.1, true, same},
		{"worse beyond bound", base, scale(base, 1.2), 0.1, true, worse},
		{"better beyond spread", base, scale(base, 0.9), 0.1, true, better},
		{"higher is better", base, scale(base, 0.8), 0.1, false, worse},
		{"higher is better, gained", base, scale(base, 1.2), 0.1, false, better},
		{"spread beyond bound", noisy, scale(noisy, 1.05), 0.1, true, unresolved},
		{"spread beyond bound, every run better", noisy, scale(noisy, 0.3), 0.1, true, better},
		{"spread beyond bound, every run worse", noisy, scale(noisy, 3), 0.1, true, worse},
		{"too few runs", base[:1], base[:1], 0.1, true, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.bound, c.lowerBetter); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range vals {
			r := record{Workload: "sim-wide", result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_p50_ms": {v, "ms"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", 10, 10.1, 9.9, 10, 10.2)
	b := write("b.jsonl", 13, 13.1, 12.9, 13, 13.2)
	var out, errOut bytes.Buffer
	if code := runCompare([]string{a, a}, bench, &out, &errOut); code != 0 {
		t.Fatalf("comparing a file with itself: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("comparing a file with itself:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare([]string{a, b}, bench, &out, &errOut); code != 1 {
		t.Fatalf("a 30%% regression: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30%% regression:\n%s", out.String())
	}
}
