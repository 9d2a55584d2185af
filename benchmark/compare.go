package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// readRecords reads a -out file, keeping the untraced runs.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// byWorkload groups each workload's values of each metric, in file
// order.
func byWorkload(rs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// The verdicts of a comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a change's runs b with its parent's runs a on one
// metric with the given bound, as a share of the parent's median. When
// either side's spread (quartile distance over median) exceeds the
// bound the result is unresolved, unless every run of one side reads
// better than every run of the other. Otherwise the change is worse
// when its median is worse by more than the bound, and better when its
// median is better by more than the parent's own spread and it wins at
// least nine tenths of the pairs (run i against run i; ties count for
// neither).
func judge(a, b []float64, bound float64, lowerBetter bool) string {
	if len(a) < 2 || len(b) < 2 {
		return unresolved
	}
	sign := 1.0 // positive rel: b is worse
	if !lowerBetter {
		sign = -1
	}
	ma, mb := median(a), median(b)
	rel := sign * (mb - ma) / math.Abs(ma)
	sa, sb := sortedCopy(a), sortedCopy(b)
	loA, hiA, loB, hiB := sa[0], sa[len(sa)-1], sb[0], sb[len(sb)-1]
	allBetter, allWorse := hiB < loA, loB > hiA
	if !lowerBetter {
		allBetter, allWorse = loB > hiA, hiB < loA
	}
	if max(spread(a), spread(b)) > bound {
		switch {
		case allBetter:
			return better
		case allWorse:
			return worse
		}
		return unresolved
	}
	if rel > bound {
		return worse
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if -rel > spread(a) && wins*10 >= pairs*9 {
		return better
	}
	return same
}

// runCompare judges every workload and end-to-end metric of two -out
// files against BENCHMARK.json's bounds. It exits 1 when any pairing
// is worse.
func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintf(stderr, "benchmark: -compare takes two result files: parent.jsonl change.jsonl\n")
		return 2
	}
	bounds, err := readBounds(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	var sides [2]map[string]map[string][]float64
	for i, path := range args {
		rs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		sides[i] = byWorkload(rs)
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-16s %6s %14s %14s %9s %9s %9s %8s  %s\n",
		"workload", "metric", "runs", "median_a", "median_b", "change%", "spread_a%", "spread_b%", "bound%", "verdict")
	for _, w := range workloads {
		a, b := sides[0][w.name], sides[1][w.name]
		if a == nil && b == nil {
			continue
		}
		for _, bd := range bounds {
			va, vb := a[bd.Name], b[bd.Name]
			v := judge(va, vb, bd.Bound, bd.Better == "lower")
			if v == worse {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(stdout, "%-12s %-16s %3d/%-2d %14.6g %14.6g %9.2f %9.2f %9.2f %8.1f  %s\n",
				w.name, bd.Name, len(va), len(vb), ma, mb, 100*(mb-ma)/math.Abs(ma),
				100*spread(va), 100*spread(vb), 100*bd.Bound, v)
		}
	}
	return code
}

// runSummary prints the median and quartiles of every workload and
// metric of a -out file, with the host it ran on, as JSON.
func runSummary(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintf(stderr, "benchmark: -summary takes one result file\n")
		return 2
	}
	rs, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	type stat struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
		Unit   string  `json:"unit"`
	}
	units := map[string]string{}
	seeds := map[uint64]bool{}
	for _, r := range rs {
		seeds[r.Seed] = true
		for name, m := range r.Metrics {
			units[name] = m.Unit
		}
	}
	out := struct {
		Runs       map[string]int             `json:"runs"`
		Seeds      []uint64                   `json:"seeds"`
		NumCPU     int                        `json:"nproc"`
		GOMAXPROCS int                        `json:"gomaxprocs"`
		GoVersion  string                     `json:"go_version"`
		Platform   string                     `json:"platform"`
		Workloads  map[string]map[string]stat `json:"workloads"`
	}{
		Runs:       map[string]int{},
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Workloads:  map[string]map[string]stat{},
	}
	for s := range seeds {
		out.Seeds = append(out.Seeds, s)
	}
	sort.Slice(out.Seeds, func(i, j int) bool { return out.Seeds[i] < out.Seeds[j] })
	for w, ms := range byWorkload(rs) {
		out.Workloads[w] = map[string]stat{}
		for name, vs := range ms {
			out.Runs[w] = len(vs)
			q1, q2, q3 := quartiles(vs)
			out.Workloads[w][name] = stat{q2, q1, q3, (q3 - q1) / math.Abs(q2), units[name]}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
