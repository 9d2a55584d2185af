// Command benchmark measures treesched end to end on four fixed
// workloads: the treeschedd daemon at two fixed offered rates, a
// streamed simulation on a wide tree and a replay loop on a deep tree.
// A traced run also times each layer through its public functions and
// reports what the layers leave unexplained. README.md catalogs the
// workloads and metrics. run.sh builds it and runs it from the
// repository root:
//
//	bash benchmark/run.sh --workload sim-wide --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without -workload every
// workload runs, each in its own process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64
	daemon  string // treeschedd binary
}

// pass is one timed run of a workload.
type pass struct {
	// latency is the gated latency in milliseconds: on the daemon the
	// lowQuantile over windows of each window's median completion lag,
	// offline the sliceQuantile of the slice times at the reference clock.
	latency float64
	// windows split the timed phase into consecutive stretches, so a
	// burst of noise in some stretches does not move a run's result.
	windows []window
	// jobs and cpu are the timed phase's totals: cpu is the CPU time
	// the system under test used, rssKiB its resident-set peak.
	jobs   int64
	cpu    time.Duration
	wall   time.Duration
	rssKiB int64
	// attempted and failed count jobs; a job fails when it is refused,
	// lost, or its output differs from the reference.
	attempted, failed int64
	// digest fingerprints the outputs, so a traced pass can be checked
	// against the untraced one.
	digest   uint64
	meanFlow float64
	// mallocs counts the heap allocations of the timed phase when the
	// system runs in this process (0 for the daemon).
	mallocs uint64
	// diag holds ungated diagnostics as name=value.
	diag []string
}

// window is one stretch of a timed phase.
type window struct {
	// lat are latency samples in milliseconds: completion lags on the
	// daemon, slice times at the reference clock offline.
	lat []float64
	// jobs and cpu are what the system under test did in the window.
	jobs int64
	cpu  time.Duration
}

// lowQuantile is the quantile over windows a run reports. Other tenants
// of a shared host only ever add time, in bursts from a fraction of a
// second to minutes, so the quieter windows track the system's own
// cost: over ten runs the 10th percentile of windows spread 3-10% where
// their median spread 6-14%.
const lowQuantile = 0.1

// sliceQuantile is the quantile over an offline run's slices, timed at
// the reference clock (clock.go), that the run reports. While other
// tenants loaded the host, sim-wide's median slice ran 40-60% slower
// than its fastest tenth; over eight such runs the 1st percentile of
// slices spread 0.8% where the 10th spread 6%, and it read within 1% of
// what it read on a quiet host.
const sliceQuantile = 0.01

// latency is the lowQuantile over windows of each window's q-quantile
// latency.
func latency(ws []window, q float64) float64 {
	var vs []float64
	for _, w := range ws {
		if len(w.lat) > 0 {
			vs = append(vs, percentile(sortedCopy(w.lat), q))
		}
	}
	return percentile(sortedCopy(vs), lowQuantile)
}

// cpuPerMjob is the lowQuantile over windows of CPU seconds per
// million jobs.
func cpuPerMjob(ws []window) float64 {
	var vs []float64
	for _, w := range ws {
		if w.jobs > 0 {
			vs = append(vs, w.cpu.Seconds()/(float64(w.jobs)/1e6))
		}
	}
	return percentile(sortedCopy(vs), lowQuantile)
}

// bench is one workload.
type bench interface {
	// setup prepares the timed phase, repeating its set-up several
	// times; it returns each set-up's time and each scenario build's
	// time, in seconds.
	setup() (setupS, buildS []float64, err error)
	measure(tr *tracer) (*pass, error)
	ledger(tr *tracer) (*ledger, error)
	// path lists the ledger layers the workload's system runs, whose
	// sum the system's own cost per job is compared against.
	path() []string
}

type workloadDef struct {
	name string
	new  func(cfg *config) (bench, error)
}

var workloads = []workloadDef{
	{"serve-paced", func(cfg *config) (bench, error) { return newServe(cfg, servePaced) }},
	{"serve-bulk", func(cfg *config) (bench, error) { return newServe(cfg, serveBulk) }},
	{"sim-wide", newSimWide},
	{"sim-deep", newSimDeep},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -out file: a result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-paced, serve-bulk, sim-wide or sim-deep (empty: all, each in its own process)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "run length in seconds; every job count is proportional to it")
	traceArg := fs.String("trace", "0", "0: end-to-end metrics; 1 or a file name: a traced run that prints the per-layer metrics and writes a Chrome trace there (1: .bench_build/trace-<workload>-<seed>.json)")
	daemon := fs.String("daemon", "", "treeschedd binary the serve workloads run")
	out := fs.String("out", "", "append each result as one JSON line to this file")
	compare := fs.Bool("compare", false, "judge two -out files against BENCHMARK.json's bounds: -compare parent.jsonl change.jsonl")
	summary := fs.Bool("summary", false, "print the medians and quartiles of a -out file: -summary runs.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return runCompare(fs.Args(), "BENCHMARK.json", stdout, stderr)
	case *summary:
		return runSummary(fs.Args(), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	case *name == "":
		return runAll(args, stdout, stderr)
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive\n")
		return 2
	}
	tracePath := ""
	switch *traceArg {
	case "", "0":
	case "1":
		tracePath = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
	default:
		tracePath = *traceArg
	}

	cfg := &config{seed: *seed, seconds: *seconds, daemon: *daemon}
	res, err := runWorkload(def, cfg, tracePath, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{def.name, *seed, tracePath != "", *res}); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d jobs failed\n", def.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, so that peak
// memory and CPU time are per workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			code = max(code, ee.ExitCode())
		}
	}
	return code
}

// runWorkload sets the workload up, measures it, and with a trace path
// measures it again traced and runs the ledger.
func runWorkload(def *workloadDef, cfg *config, tracePath string, stdout io.Writer) (*result, error) {
	b, err := def.new(cfg)
	if err != nil {
		return nil, err
	}
	setupS, buildS, err := b.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p, err := b.measure(nil)
	if err != nil {
		return nil, err
	}
	printPass(stdout, def.name, "untraced", p)
	res := &result{Attempted: p.attempted, Failed: p.failed}
	if tracePath == "" {
		res.Correct = p.failed == 0
		res.Metrics = endToEnd(p, setupS)
		return res, nil
	}

	tr := newTracer()
	pt, err := b.measure(tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	printPass(stdout, def.name, "traced", pt)
	res.Attempted += pt.attempted
	res.Failed += pt.failed
	if pt.digest != p.digest {
		fmt.Fprintf(stdout, "%s: the traced pass's outputs differ from the untraced pass's\n", def.name)
		res.Failed += pt.attempted - pt.failed
	}
	l, err := b.ledger(tr)
	if err != nil {
		return nil, err
	}
	res.Attempted += l.jobs
	res.Failed += l.mismatched
	res.Correct = res.Failed == 0
	res.Metrics = perLayer(b, p, pt, l, buildS)

	if err := writeTrace(tracePath, tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: trace written to %s\n", def.name, tracePath)
	fmt.Fprintf(stdout, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range tr.selfTimes() {
		fmt.Fprintf(stdout, "%-24s %8d %12.3f %12.3f\n", st.Name, st.Count, millis(st.Total), millis(st.Self))
	}
	return res, nil
}

func writeTrace(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}

// printPass prints a pass's diagnostics, which are not gated.
func printPass(w io.Writer, name, kind string, p *pass) {
	errRate := 0.0
	if p.attempted > 0 {
		errRate = float64(p.failed) / float64(p.attempted)
	}
	fmt.Fprintf(w, "%s %s: jobs=%d wall_s=%.3f error_rate=%g mean_flow=%.6f latency_p90_ms=%.4f cpu_s_per_mjob=%.4f %s\n",
		name, kind, p.jobs, p.wall.Seconds(), errRate, p.meanFlow, latency(p.windows, 0.9), cpuPerMjob(p.windows), strings.Join(p.diag, " "))
}

// endToEnd is the untraced run's result: the metrics a user of the
// system sees. CPU time per job is printed by printPass but not gated:
// across ten runs of the same code the daemon's spread reached 27%,
// more than the widest bound BENCHMARK.json may set.
func endToEnd(p *pass, setupS []float64) map[string]metric {
	return map[string]metric{
		"latency_p50_ms": {p.latency, "ms"},
		"peak_rss_mb":    {float64(p.rssKiB) / 1024, "MiB"},
		"setup_s":        {median(setupS), "s"},
	}
}

// perLayer is the traced run's result: the ledger's layer costs, the
// system's own cost per job and the residual the layers leave
// unexplained, and what tracing cost.
func perLayer(b bench, p, pt *pass, l *ledger, buildS []float64) map[string]metric {
	m := map[string]metric{}
	layers := l.perJob()
	for name, v := range layers {
		m[name] = metric{v, "ns"}
	}
	system := float64(p.cpu.Nanoseconds()) / float64(p.jobs)
	var sum float64
	for _, name := range b.path() {
		sum += layers[name]
	}
	m["sim.events_per_job"] = metric{float64(l.events) / float64(l.jobs), "count"}
	m["sim.ns_per_event"] = metric{(l.advance + l.inject + l.drain) / float64(l.events), "ns"}
	// The daemon's heap is out of sight; its engine's allocations are the
	// ledger's, which replays them on a fresh engine as the daemon runs.
	allocs := float64(l.mallocs) / float64(l.jobs)
	if p.mallocs > 0 {
		allocs = float64(p.mallocs) / float64(p.jobs)
	}
	m["sim.allocs_per_job"] = metric{allocs, "count"}
	m["sim.mean_flow"] = metric{p.meanFlow, "vtime"}
	m["scenario.build_s"] = metric{median(buildS), "s"}
	m["ledger.system_ns_per_job"] = metric{system, "ns"}
	m["ledger.residual_ns_per_job"] = metric{system - sum, "ns"}
	m["ledger.residual_pct"] = metric{100 * (system - sum) / system, "%"}
	m["ledger.tax_ratio"] = metric{system / l.engineNs(), "ratio"}
	m["trace.overhead_pct"] = metric{100 * (pt.latency - p.latency) / p.latency, "%"}
	return m
}
