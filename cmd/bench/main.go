// Command bench is the persistent benchmark harness: it runs a fixed
// set of engine and experiment kernels through testing.Benchmark and
// writes the results as machine-readable JSON (BENCH_<schema>.json),
// so perf regressions show up as diffs rather than folklore.
//
// Usage:
//
//	bench [-out BENCH_9.json] [-seed 1] [-scale 0.05] [-quick]
//	      [-compare BENCH_9.json] [-cpuprofile cpu.out] [-memprofile mem.out]
//	      [-stream-smoke] [-fleet-smoke] [-serve-smoke] [-dispatch]
//
// -compare checks the fresh results against a previously written
// baseline file and exits with status 3 if any kernel's ns/op
// regressed by more than 25%. Kernels present in only one of the two
// files (new or retired) are noted and never fail the comparison, as
// is a schema bump between the two files.
//
// -stream-smoke runs only the constant-memory probe: a 1,000,000-job
// streamed run under bounded retention, failing (exit 4) if the peak
// heap exceeds a fixed ceiling or is not flat (within 2x) relative to
// a 100,000-job run.
//
// -fleet-smoke runs only the fleet determinism probe: the
// fleet/jsq-4tree scenario at Workers=1 and Workers=4, failing (exit
// 5) unless the scorecard JSON and every tree's per-job NDJSON are
// byte-identical — the worker count must be a pure speed knob.
//
// -serve-smoke runs only the serving-layer overload probe: a daemon
// over a speed-1 tree is offered five times its capacity, and the
// probe fails (exit 6) unless the daemon sheds with 429 +
// Retry-After, keeps the shed count monotone and the heap under the
// smoke ceiling, reopens admission after a quiet period, and drains
// every accepted job with a completion stream byte-identical to an
// offline RunStream replay of the accepted (densely re-IDed) trace.
// The probe then measures the warm clean path on a second, stable
// daemon and fails if the steady-state malloc count per admitted job
// exceeds a fixed ceiling — the guard that keeps the batched
// admission path and append codecs allocation-free as they evolve.
//
// -dispatch runs only the engine/dispatch-* kernels and writes no
// JSON — the fast iteration loop for profiling the dispatch path
// (pair it with -cpuprofile; see `make bench-dispatch`).
//
// Kernels:
//
//	engine/cold        fresh engine per run (sim.Run)
//	engine/warm        one engine recycled via Sim.Reset + RunOn
//	engine/instrumented  warm engine with per-hop instrumentation on
//	engine/wide-warm   warm engine on the wide (fan-out 8) topology with
//	                   round-robin (oblivious) dispatch
//	engine/dispatch-warm      state-querying (greedy) dispatch on the
//	                          same wide workload
//	engine/dispatch-deep      greedy dispatch on a deep, narrow
//	                          topology (depth-6 root-to-leaf paths):
//	                          store-and-forward hop work dominates, so
//	                          this row exercises the path-query and
//	                          reschedule machinery the wide row
//	                          under-weights
//	scenario/run       declarative layer: scenario.Runner on the same
//	                   workload as engine/warm (overhead shows as the
//	                   delta between the two rows)
//	engine/stream-1M   1,000,000 jobs streamed from the Poisson
//	                   generator under bounded retention (RetainJobs=1):
//	                   the constant-memory pipeline end to end
//	fleet/jsq-4tree    the fleet co-simulation layer end to end: four
//	                   fat trees behind a join-shortest-queue front
//	                   door with per-tree brownouts, run at
//	                   Workers = GOMAXPROCS
//	server/inject-drain  the scheduler-as-a-service daemon end to end:
//	                     one iteration starts a daemon on the serve
//	                     scenario, submits a fixed 2,000-job trace over
//	                     HTTP (NDJSON through admission) and drains;
//	                     events is the job count, so events/sec is
//	                     jobs/sec through the full HTTP path. The HTTP
//	                     listener and keep-alive client connection are
//	                     shared across iterations (serveHarness), so
//	                     the row times the daemon, not TCP churn
//	server/direct-stream the same 2,000-job trace through RunStream
//	                     directly (no HTTP, no admission queue); the
//	                     jobs/sec ratio against server/inject-drain is
//	                     the daemon's per-job serving overhead
//	server/concurrent-submit  the admission path under contention: the
//	                     same 2,000 jobs, all at release 0 (so frontier
//	                     monotonicity cannot reject an interleaving),
//	                     split across four clients POSTing their
//	                     partitions concurrently, then drained; events
//	                     is the job count
//
// Server kernels also report allocs_per_job (allocs/op divided by the
// trace length), the per-job serving-path allocation cost the
// -serve-smoke probe bounds.
//
//	rng_partition/legacy  generate a 2,000-job workload (sizes and
//	                      weights) from a legacy partition, where every
//	                      stream name aliases one shared state
//	rng_partition/keyed   the same generation from a keyed partition
//	                      (one derived stream per subsystem); the delta
//	                      vs the legacy row is the derivation overhead,
//	                      budgeted at 5%
//	experiments/T1     full T1 grid (exercises Sweep fan-out)
//	experiments/B3     speed-augmentation sweep (exercises Sweep)
//
// Engine kernels also report events/sec, computed from the kernel's
// deterministic event count, so throughput is comparable across
// machines independently of the workload mix. The JSON additionally
// carries a stream_memory table (peak heap of the bounded-retention
// run at 100k and 1M jobs — flat is the point).
package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesched"
	"treesched/internal/experiments"
)

// benchFile is the JSON document written to -out.
type benchFile struct {
	Schema     string `json:"schema"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is the host's logical CPU count (runtime.NumCPU).
	NumCPU     int         `json:"num_cpu"`
	Seed       uint64      `json:"seed"`
	Scale      float64     `json:"scale"`
	Benchmarks []benchLine `json:"benchmarks"`
	// StreamMemory records the constant-memory property of the
	// streaming pipeline: peak heap of a bounded-retention streamed run
	// at two job counts an order of magnitude apart. Flat (within 2x)
	// peaks are the acceptance bar.
	StreamMemory []streamMemRow `json:"stream_memory,omitempty"`
	// DispatchBaseline is the before/after record for the v9 dispatch
	// fast path (epoch-memoized path queries and a bound-pruned greedy
	// descent, both since removed, and incremental fstat maintenance):
	// each engine/dispatch-*
	// kernel's ns/op from this run next to its pre-fast-path
	// baseline. Single-core absolute numbers wander ±10-20% with host
	// noise, so the interleaved A/B rows (minimum of repeated 1s runs
	// of the old and new builds on the same day) carry the honest
	// speedup; the retired BENCH_8.json record row is kept for
	// continuity across the schema bump.
	DispatchBaseline []dispatchBaselineRow `json:"dispatch_baseline,omitempty"`
}

type dispatchBaselineRow struct {
	Name            string  `json:"name"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	NsPerOp         float64 `json:"ns_per_op"`
	Speedup         float64 `json:"speedup"`
	Source          string  `json:"source"`
}

// Pre-fast-path dispatch baselines. The BENCH_8 number is the retired
// record's engine/dispatch-warm row; the A/B numbers are minima of
// repeated 1s harness runs of the last pre-fast-path build
// interleaved with the v9 build on the same single-core host.
const (
	dispatchWarmBench8Ns = 5_503_975
	dispatchWarmOldABNs  = 5_970_000
	dispatchWarmNewABNs  = 3_850_000
	dispatchDeepOldABNs  = 9_480_000
	dispatchDeepNewABNs  = 6_070_000
)

type streamMemRow struct {
	Jobs          int    `json:"jobs"`
	Events        int64  `json:"events"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

type benchLine struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// AllocsPerJob is allocs/op divided by the kernel's job count —
	// reported for the server/* kernels only, where one op is a fixed
	// trace through the serving path and per-job allocation is the
	// figure of merit the serve-smoke probe bounds.
	AllocsPerJob float64 `json:"allocs_per_job,omitempty"`
}

// kernel is one named benchmark; events is the deterministic number of
// engine events one iteration processes (0 when not meaningful).
type kernel struct {
	name   string
	events int64
	fn     func(b *testing.B)
}

func main() {
	out := flag.String("out", "BENCH_9.json", "write JSON results to this file")
	seed := flag.Uint64("seed", 1, "random seed (kernels are deterministic given a seed)")
	scale := flag.Float64("scale", 0.05, "experiment-kernel scale factor")
	quick := flag.Bool("quick", false, "short benchtime (~50ms/kernel) for CI smoke runs")
	compare := flag.String("compare", "", "baseline JSON to compare against; exit 3 on >25% ns/op regression in any kernel")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	smoke := flag.Bool("stream-smoke", false, "run only the constant-memory stream probe; exit 4 if the 1M-job peak heap breaks the ceiling or is not flat vs 100k jobs")
	fltSmoke := flag.Bool("fleet-smoke", false, "run only the fleet determinism probe; exit 5 if the scorecard or any tree's NDJSON differs between Workers=1 and Workers=4")
	srvSmoke := flag.Bool("serve-smoke", false, "run only the serving-layer overload probe; exit 6 unless the daemon sheds with 429 + Retry-After, stays under the heap ceiling, and drains byte-identically to an offline replay")
	dispatchOnly := flag.Bool("dispatch", false, "run only the engine/dispatch-* kernels and write no JSON (profiling loop; pair with -cpuprofile)")
	testing.Init()
	flag.Parse()

	if *smoke {
		os.Exit(streamSmoke(*seed))
	}
	if *fltSmoke {
		os.Exit(fleetSmoke(*seed))
	}
	if *srvSmoke {
		os.Exit(serveSmoke(*seed))
	}

	benchtime := "1s"
	if *quick {
		benchtime = "50ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *dispatchOnly {
		// Profiling loop: only the dispatch kernels run and nothing is
		// written, so a partial result can never clobber BENCH_9.json.
		kernels, err := buildKernels(*seed, *scale, 0)
		if err != nil {
			fatal(err)
		}
		for _, k := range kernels {
			if !strings.HasPrefix(k.name, "engine/dispatch-") {
				continue
			}
			r := testing.Benchmark(k.fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			fmt.Fprintf(os.Stderr, "%-24s %12.0f ns/op %10d allocs/op %12d B/op\n",
				k.name, ns, r.AllocsPerOp(), r.AllocedBytesPerOp())
		}
		return
	}

	// The stream-memory probe doubles as the calibration run for the
	// engine/stream-1M kernel's event count.
	var streamRows []streamMemRow
	for _, jobs := range []int{100_000, 1_000_000} {
		row, err := streamPeak(*seed, jobs)
		if err != nil {
			fatal(err)
		}
		streamRows = append(streamRows, row)
		fmt.Fprintf(os.Stderr, "stream-memory jobs=%-8d %12d B peak heap\n", row.Jobs, row.PeakHeapBytes)
	}

	kernels, err := buildKernels(*seed, *scale, streamRows[1].Events)
	if err != nil {
		fatal(err)
	}

	doc := benchFile{
		Schema:       "treesched-bench/9",
		Go:           runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Seed:         *seed,
		Scale:        *scale,
		StreamMemory: streamRows,
	}
	for _, k := range kernels {
		r := testing.Benchmark(k.fn)
		line := benchLine{
			Name:        k.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if k.events > 0 && line.NsPerOp > 0 {
			line.EventsPerSec = float64(k.events) * 1e9 / line.NsPerOp
		}
		if k.events > 0 && strings.HasPrefix(k.name, "server/") {
			line.AllocsPerJob = float64(line.AllocsPerOp) / float64(k.events)
		}
		doc.Benchmarks = append(doc.Benchmarks, line)
		fmt.Fprintf(os.Stderr, "%-24s %12.0f ns/op %10d allocs/op %12d B/op\n",
			k.name, line.NsPerOp, line.AllocsPerOp, line.BytesPerOp)
		if k.name == "engine/dispatch-warm" {
			doc.DispatchBaseline = append(doc.DispatchBaseline,
				dispatchBaselineRow{
					Name:            k.name,
					BaselineNsPerOp: dispatchWarmBench8Ns,
					NsPerOp:         line.NsPerOp,
					Speedup:         dispatchWarmBench8Ns / line.NsPerOp,
					Source:          "retired BENCH_8.json record (different day; single-core host noise ±10-20%)",
				},
				dispatchBaselineRow{
					Name:            k.name,
					BaselineNsPerOp: dispatchWarmOldABNs,
					NsPerOp:         dispatchWarmNewABNs,
					Speedup:         dispatchWarmOldABNs / float64(dispatchWarmNewABNs),
					Source:          "interleaved A/B minima, pre-fast-path build vs v9 on the same harness",
				})
		}
		if k.name == "engine/dispatch-deep" {
			doc.DispatchBaseline = append(doc.DispatchBaseline,
				dispatchBaselineRow{
					Name:            k.name,
					BaselineNsPerOp: dispatchDeepOldABNs,
					NsPerOp:         dispatchDeepNewABNs,
					Speedup:         dispatchDeepOldABNs / float64(dispatchDeepNewABNs),
					Source:          "interleaved A/B minima, pre-fast-path build vs v9 on the same harness (kernel is new in v9)",
				})
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d kernels)\n", *out, len(doc.Benchmarks))

	if *compare != "" {
		base, err := readBenchFile(*compare)
		if err != nil {
			fatal(err)
		}
		for _, n := range oneSided(base, &doc) {
			fmt.Fprintln(os.Stderr, "bench: note:", n)
		}
		regs := regressions(base, &doc, regressionThreshold)
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "bench: REGRESSION:", r)
		}
		if len(regs) > 0 {
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "bench: no kernel regressed >%.0f%% vs %s\n", 100*regressionThreshold, *compare)
	}
}

// regressionThreshold is the relative ns/op slowdown that fails a
// -compare run.
const regressionThreshold = 0.25

func readBenchFile(path string) (*benchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &benchFile{}
	if err := json.Unmarshal(buf, doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

// oneSided describes differences that are informational only and
// never fail a comparison: a schema bump between the two files, and
// kernels present in only one of them — new kernels in current,
// retired ones in the baseline — so comparing across a schema bump
// stays green.
func oneSided(baseline, current *benchFile) []string {
	base := make(map[string]bool, len(baseline.Benchmarks))
	cur := make(map[string]bool, len(current.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = true
	}
	for _, c := range current.Benchmarks {
		cur[c.Name] = true
	}
	var out []string
	if baseline.Schema != current.Schema {
		out = append(out, fmt.Sprintf("schema changed (%s -> %s): one-sided kernels below are expected, shared kernels still compare",
			baseline.Schema, current.Schema))
	}
	for _, c := range current.Benchmarks {
		if !base[c.Name] {
			out = append(out, fmt.Sprintf("kernel %s is new (absent from baseline); not compared", c.Name))
		}
	}
	for _, b := range baseline.Benchmarks {
		if !cur[b.Name] {
			out = append(out, fmt.Sprintf("kernel %s exists only in the baseline; not compared", b.Name))
		}
	}
	return out
}

// regressions compares current against baseline kernel by kernel and
// describes every one whose ns/op grew by more than threshold.
// Kernels present in only one file are skipped (see oneSided).
func regressions(baseline, current *benchFile, threshold float64) []string {
	base := make(map[string]benchLine, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	var out []string
	for _, c := range current.Benchmarks {
		b, ok := base[c.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if c.NsPerOp > b.NsPerOp*(1+threshold) {
			out = append(out, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, threshold %.0f%%)",
				c.Name, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*threshold))
		}
	}
	return out
}

// buildKernels constructs the kernel set. The engine workload is fixed
// (seed-derived) so one calibration run yields the event count every
// timed iteration will reproduce; streamEvents is the stream-1M
// kernel's count, calibrated by the stream-memory probe.
func buildKernels(seed uint64, scale float64, streamEvents int64) ([]kernel, error) {
	t := treesched.FatTree(2, 2, 2)
	tr, err := treesched.PoissonTrace(seed+41, 2000, 0.95, t)
	if err != nil {
		return nil, err
	}
	calib, err := treesched.Run(t, tr, treesched.NewGreedyIdentical(0.5), treesched.Options{})
	if err != nil {
		return nil, err
	}
	events := calib.Stats.Events

	ks := []kernel{
		{
			name:   "engine/cold",
			events: events,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := treesched.Run(t, tr, treesched.NewGreedyIdentical(0.5), treesched.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name:   "engine/warm",
			events: events,
			fn: func(b *testing.B) {
				s := treesched.NewSim(t, treesched.Options{})
				asg := treesched.NewGreedyIdentical(0.5)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Reset(treesched.Options{})
					if _, err := treesched.RunOn(s, tr, asg); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name:   "engine/instrumented",
			events: events,
			fn: func(b *testing.B) {
				s := treesched.NewSim(t, treesched.Options{Instrument: true})
				asg := treesched.NewGreedyIdentical(0.5)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Reset(treesched.Options{Instrument: true})
					if _, err := treesched.RunOn(s, tr, asg); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}

	// The declarative layer on the same workload: the scenario below
	// reproduces tr bit for bit (PoissonTrace is uniform:1,16 with
	// class rounding at eps 0.5), so scenario/run vs engine/warm
	// isolates the layer's own overhead.
	sc := &treesched.Scenario{
		Topology: treesched.NewSpec("fattree", 2, 2, 2),
		Workload: treesched.ScenarioWorkload{
			N: 2000, Size: treesched.NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.95,
		},
		Assigner: "greedy-identical",
		Seed:     seed + 41,
	}
	r, err := treesched.NewScenarioRunner(sc)
	if err != nil {
		return nil, err
	}
	scCalib, err := r.Run()
	if err != nil {
		return nil, err
	}
	ks = append(ks, kernel{
		name:   "scenario/run",
		events: scCalib.Stats.Events,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	// The streaming pipeline end to end: a million Poisson jobs drawn
	// one at a time and retired through bounded retention, so B/op is
	// the whole run's footprint and must stay at setup cost rather
	// than growing with the job count. Runs on streamTree (speed 1.5)
	// — see streamPeak for why stability matters here.
	st := streamTree()
	ks = append(ks, kernel{
		name:   "engine/stream-1M",
		events: streamEvents,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := treesched.PoissonSource(seed+47, streamJobs, 0.95, st)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := treesched.RunStream(st, src, treesched.NewGreedyIdentical(0.5), treesched.Options{RetainJobs: 1}); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	for _, id := range []string{"T1", "B3"} {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		ks = append(ks, kernel{
			name: "experiments/" + id,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := e.Run(experiments.Config{Seed: seed, Scale: scale})
					if err != nil {
						b.Fatal(err)
					}
					if len(out.Tables) == 0 {
						b.Fatal("no artifacts")
					}
				}
			},
		})
	}

	// The wide rows run on a fan-out-8 topology, once with round-robin
	// (oblivious) dispatch and once with the greedy (state-querying)
	// assigner, whose per-arrival queries then dominate.
	wide := treesched.FatTree(8, 1, 2)
	wideTr, err := treesched.PoissonTrace(seed+43, 4000, 0.95, wide)
	if err != nil {
		return nil, err
	}
	wideCalib, err := treesched.Run(wide, wideTr, &treesched.RoundRobin{}, treesched.Options{})
	if err != nil {
		return nil, err
	}
	dispatchCalib, err := treesched.Run(wide, wideTr, treesched.NewGreedyIdentical(0.5), treesched.Options{})
	if err != nil {
		return nil, err
	}
	// asg is called once per replay: round-robin starts every replay
	// from a fresh cursor, while the stateless greedy rule is shared.
	warmWideFn := func(asg func() treesched.Assigner) func(b *testing.B) {
		return func(b *testing.B) {
			s := treesched.NewSim(wide, treesched.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(treesched.Options{})
				if _, err := treesched.RunOn(s, wideTr, asg()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	greedy := treesched.NewGreedyIdentical(0.5)
	ks = append(ks,
		kernel{name: "engine/wide-warm", events: wideCalib.Stats.Events, fn: warmWideFn(func() treesched.Assigner { return &treesched.RoundRobin{} })},
		kernel{name: "engine/dispatch-warm", events: dispatchCalib.Stats.Events, fn: warmWideFn(func() treesched.Assigner { return greedy })},
	)

	// The dispatch-deep row runs the greedy assigner on a deep, narrow
	// topology (two branches, depth-6 root-to-leaf paths): each job
	// crosses five routers before its leaf, so store-and-forward finish
	// events and per-hop reschedules dominate and the row weights the
	// engine half of the dispatch tax — the complement of the wide row,
	// where the per-arrival candidate scan dominates.
	deep := treesched.FatTree(2, 5, 1)
	deepTr, err := treesched.PoissonTrace(seed+71, 4000, 0.95, deep)
	if err != nil {
		return nil, err
	}
	deepCalib, err := treesched.Run(deep, deepTr, treesched.NewGreedyIdentical(0.5), treesched.Options{})
	if err != nil {
		return nil, err
	}
	ks = append(ks, kernel{name: "engine/dispatch-deep", events: deepCalib.Stats.Events, fn: func(b *testing.B) {
		opts := treesched.Options{}
		s := treesched.NewSim(deep, opts)
		asg := treesched.NewGreedyIdentical(0.5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset(opts)
			if _, err := treesched.RunOn(s, deepTr, asg); err != nil {
				b.Fatal(err)
			}
		}
	}})

	// The fleet kernel times the co-simulation layer end to end: one
	// iteration generates the front-door workload, routes it across
	// four trees, draws each tree's brownout plan, and runs the trees
	// on GOMAXPROCS workers. Same scenario as the -fleet-smoke probe.
	flSc := fleetScenario(seed)
	maxWorkers := runtime.GOMAXPROCS(0)
	flCalib, err := treesched.RunFleet(flSc, treesched.FleetOptions{Workers: maxWorkers})
	if err != nil {
		return nil, err
	}
	var flEvents int64
	for i := range flCalib.Trees {
		flEvents += flCalib.Trees[i].Result.Stats.Events
	}
	ks = append(ks, kernel{
		name:   "fleet/jsq-4tree",
		events: flEvents,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := treesched.RunFleet(flSc, treesched.FleetOptions{Workers: maxWorkers}); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	// The server rows time one fixed 2,000-job trace through the
	// scheduler-as-a-service daemon (HTTP admission -> engine
	// goroutine -> drain) and through RunStream directly; events is
	// the job count for both, so the events/sec ratio between them is
	// the daemon's end-to-end per-job serving overhead. The queue is
	// sized past the trace so a clean run never touches the shedder
	// (overload behavior is the -serve-smoke probe's job).
	srvSc := serveScenario()
	srvIn, err := srvSc.Build()
	if err != nil {
		return nil, err
	}
	srvTr, err := treesched.PoissonTrace(seed+67, serveBenchJobs, 0.95, srvIn.Tree)
	if err != nil {
		return nil, err
	}
	// One prebuilt instance shared by every iteration's daemon, the
	// same way direct-stream shares srvIn.Tree across runs: the
	// engine treats a built tree as read-only, and rebuilding the
	// fixed serve topology per daemon would time the builder, not
	// the serving path.
	srvHarness := newServeHarness()
	ks = append(ks,
		kernel{
			name:   "server/inject-drain",
			events: int64(len(srvTr.Jobs)),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					srv, err := treesched.NewServer(treesched.ServerConfig{
						Scenario: srvSc, Instance: srvIn, QueueDepth: 2 * serveBenchJobs,
					})
					if err != nil {
						b.Fatal(err)
					}
					srvHarness.swap(srv.Handler())
					cl := &treesched.ServerClient{Base: srvHarness.hs.URL, HTTP: srvHarness.client}
					res, err := cl.Submit(context.Background(), srvTr.Jobs)
					if err != nil {
						b.Fatal(err)
					}
					if res.Accepted != len(srvTr.Jobs) {
						b.Fatalf("daemon accepted %d of %d jobs", res.Accepted, len(srvTr.Jobs))
					}
					st, err := cl.Drain(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					if st.Completed != len(srvTr.Jobs) {
						b.Fatalf("daemon drained %d of %d jobs", st.Completed, len(srvTr.Jobs))
					}
				}
			},
		},
		kernel{
			name:   "server/direct-stream",
			events: int64(len(srvTr.Jobs)),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := srvIn.Opts
					opts.RetainJobs = 1
					if _, err := treesched.RunStream(srvIn.Tree, treesched.NewTraceSource(srvTr), srvIn.Assigner, opts); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	)

	// The concurrent-submit kernel times the admission path under
	// contention: the same trace with every release forced to 0 —
	// frontier monotonicity can never reject an interleaving — split
	// across four clients POSTing their partitions concurrently. The
	// schedule is not deterministic across interleavings (admission
	// order is racy by construction); the throughput of the shared
	// admission lock and batch pipeline is what is measured.
	ccJobs := make([]treesched.Job, len(srvTr.Jobs))
	copy(ccJobs, srvTr.Jobs)
	for i := range ccJobs {
		ccJobs[i].Release = 0
	}
	const ccClients = 4
	var ccParts [][]treesched.Job
	for i := 0; i < ccClients; i++ {
		lo, hi := i*len(ccJobs)/ccClients, (i+1)*len(ccJobs)/ccClients
		ccParts = append(ccParts, ccJobs[lo:hi])
	}
	ks = append(ks, kernel{
		name:   "server/concurrent-submit",
		events: int64(len(ccJobs)),
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srv, err := treesched.NewServer(treesched.ServerConfig{
					Scenario: srvSc, Instance: srvIn, QueueDepth: 2 * serveBenchJobs,
				})
				if err != nil {
					b.Fatal(err)
				}
				srvHarness.swap(srv.Handler())
				var wg sync.WaitGroup
				errs := make(chan error, ccClients)
				for _, part := range ccParts {
					wg.Add(1)
					go func(part []treesched.Job) {
						defer wg.Done()
						cl := &treesched.ServerClient{Base: srvHarness.hs.URL, HTTP: srvHarness.client}
						res, err := cl.Submit(context.Background(), part)
						if err != nil {
							errs <- err
							return
						}
						if res.Accepted != len(part) {
							errs <- fmt.Errorf("client admitted %d of %d jobs", res.Accepted, len(part))
						}
					}(part)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
				cl := &treesched.ServerClient{Base: srvHarness.hs.URL, HTTP: srvHarness.client}
				st, err := cl.Drain(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if st.Completed != len(ccJobs) {
					b.Fatalf("daemon drained %d of %d jobs", st.Completed, len(ccJobs))
				}
			}
		},
	})

	// The rng_partition rows time identical workload generation (2,000
	// jobs with sizes and weights) from the two partition modes. Legacy
	// aliases every stream name to one shared state; keyed lazily
	// derives an independent stream per subsystem name. The keyed/legacy
	// ratio is the derivation overhead, budgeted at 5%.
	genWL := treesched.ScenarioWorkload{
		N: 2000, Size: treesched.NewSpec("uniform", 1, 16), Load: 0.95, Capacity: 2, MaxWeight: 5,
	}
	partitionFn := func(mk func() *treesched.PartitionedRNG) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := genWL.GenerateRNG(mk()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	ks = append(ks,
		kernel{name: "rng_partition/legacy", fn: partitionFn(func() *treesched.PartitionedRNG {
			return treesched.NewLegacyRNG(seed + 61)
		})},
		kernel{name: "rng_partition/keyed", fn: partitionFn(func() *treesched.PartitionedRNG {
			return treesched.NewPartitionedRNG(treesched.SimulationKey(seed + 61))
		})},
	)

	return ks, nil
}

// streamJobs is the stream kernel's job count; the memory probe runs
// it against a 10x-smaller control to show the peak heap is flat.
const (
	streamJobs      = 1_000_000
	streamProbeStep = 32768
	// smokeCeiling is the -stream-smoke heap bound for the 1M-job run:
	// generous against GC pacing noise, far below what materializing a
	// million jobs plus their task state would need.
	smokeCeiling = 64 << 20
	// smokeRatio bounds the 1M-vs-100k peak-heap growth ("flat").
	smokeRatio = 2.0
)

// streamTree is the stream kernel's topology: the standard fat tree
// at speed 1.5, so load 0.95 is stable and the in-flight task count
// stays bounded.
func streamTree() *treesched.Tree {
	return treesched.FatTree(2, 2, 2).WithUniformSpeed(1.5)
}

// memProbeSource passes an arrival stream through unchanged while
// sampling the heap every streamProbeStep jobs, recording the peak.
type memProbeSource struct {
	src  treesched.ArrivalSource
	n    int
	peak uint64
}

func (p *memProbeSource) Next() (treesched.Job, bool) {
	j, ok := p.src.Next()
	if ok {
		if p.n++; p.n%streamProbeStep == 0 {
			p.sample()
		}
	}
	return j, ok
}

func (p *memProbeSource) Err() error { return p.src.Err() }

func (p *memProbeSource) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > p.peak {
		p.peak = ms.HeapAlloc
	}
}

// streamPeak runs the bounded-retention streamed kernel once at the
// given job count and reports its event count and peak heap. The
// tree runs at speed 1.5 (the resource-augmentation default): the
// constant-memory property needs a stable system — an overloaded one
// accumulates a backlog of live tasks proportional to the job count
// no matter how completions are recycled.
func streamPeak(seed uint64, jobs int) (streamMemRow, error) {
	t := streamTree()
	src, err := treesched.PoissonSource(seed+47, jobs, 0.95, t)
	if err != nil {
		return streamMemRow{}, err
	}
	probe := &memProbeSource{src: src}
	runtime.GC()
	probe.sample()
	res, err := treesched.RunStream(t, probe, treesched.NewGreedyIdentical(0.5), treesched.Options{RetainJobs: 1})
	if err != nil {
		return streamMemRow{}, err
	}
	probe.sample()
	return streamMemRow{Jobs: jobs, Events: res.Stats.Events, PeakHeapBytes: probe.peak}, nil
}

// streamSmoke is the -stream-smoke mode: assert the constant-memory
// property without timing anything. Returns the process exit code.
func streamSmoke(seed uint64) int {
	small, err := streamPeak(seed, streamJobs/10)
	if err != nil {
		fatal(err)
	}
	big, err := streamPeak(seed, streamJobs)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: stream smoke: peak heap %.1f MiB at %d jobs, %.1f MiB at %d jobs\n",
		float64(small.PeakHeapBytes)/(1<<20), small.Jobs, float64(big.PeakHeapBytes)/(1<<20), big.Jobs)
	code := 0
	if big.PeakHeapBytes > smokeCeiling {
		fmt.Fprintf(os.Stderr, "bench: stream smoke FAIL: %d-job peak %d B exceeds the %d B ceiling\n",
			big.Jobs, big.PeakHeapBytes, int64(smokeCeiling))
		code = 4
	}
	if float64(big.PeakHeapBytes) > smokeRatio*float64(small.PeakHeapBytes) {
		fmt.Fprintf(os.Stderr, "bench: stream smoke FAIL: peak heap grew %.2fx from %d to %d jobs (limit %.1fx)\n",
			float64(big.PeakHeapBytes)/float64(small.PeakHeapBytes), small.Jobs, big.Jobs, smokeRatio)
		code = 4
	}
	if code == 0 {
		fmt.Fprintln(os.Stderr, "bench: stream smoke OK: peak heap is flat in the job count")
	}
	return code
}

// fleetScenario is the fixed fleet workload shared by the
// fleet/jsq-4tree kernel and the -fleet-smoke probe: four fat trees
// behind a join-shortest-queue front door, each drawing its own
// brownout plan from its tree-scoped stream.
func fleetScenario(seed uint64) *treesched.Scenario {
	return &treesched.Scenario{
		Topology: treesched.NewSpec("fattree", 2, 2, 2),
		Workload: treesched.ScenarioWorkload{
			N: 4000, Size: treesched.NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.9,
		},
		Seed:   seed + 59,
		Faults: &treesched.ScenarioFaults{Plan: treesched.NewSpec("brownouts", 2, 20, 0.5)},
		Fleet:  &treesched.ScenarioFleet{Trees: 4, Policy: "jsq"},
	}
}

// fleetSmoke is the -fleet-smoke mode: assert that the worker count is
// a pure speed knob by running the same fleet key at Workers=1 and
// Workers=4 and demanding byte-identical output. Returns the process
// exit code.
func fleetSmoke(seed uint64) int {
	run := func(workers int) (card []byte, nd [][]byte) {
		res, err := treesched.RunFleet(fleetScenario(seed), treesched.FleetOptions{Workers: workers})
		if err != nil {
			fatal(err)
		}
		var cb bytes.Buffer
		if err := res.Scorecard.WriteJSON(&cb); err != nil {
			fatal(err)
		}
		for i := range res.Trees {
			var b bytes.Buffer
			if err := res.Trees[i].WriteNDJSON(&b); err != nil {
				fatal(err)
			}
			nd = append(nd, b.Bytes())
		}
		return cb.Bytes(), nd
	}
	card1, nd1 := run(1)
	card4, nd4 := run(4)
	code := 0
	if !bytes.Equal(card1, card4) {
		fmt.Fprintln(os.Stderr, "bench: fleet smoke FAIL: scorecard differs between Workers=1 and Workers=4")
		code = 5
	}
	for i := range nd1 {
		if !bytes.Equal(nd1[i], nd4[i]) {
			fmt.Fprintf(os.Stderr, "bench: fleet smoke FAIL: tree %d NDJSON differs between Workers=1 and Workers=4\n", i)
			code = 5
		}
	}
	if code == 0 {
		fmt.Fprintf(os.Stderr, "bench: fleet smoke OK: scorecard and %d trees' NDJSON byte-identical at Workers=1 and Workers=4\n", len(nd1))
	}
	return code
}

// serveBenchJobs is the serving-layer kernels' trace length, matching
// the engine/warm calibration scale.
const serveBenchJobs = 2000

// serveScenario is the serving-layer kernels' fixed scenario: the
// standard fat tree at speed 1.5 in serve mode (the workload arrives
// from outside), with bounded retention so the daemon's memory stays
// independent of the accepted job count.
func serveScenario() *treesched.Scenario {
	sc := &treesched.Scenario{
		Topology: treesched.NewSpec("fattree", 2, 2, 2),
		Speed:    treesched.ScenarioSpeed{Uniform: 1.5},
	}
	sc.Engine.Serve = true
	sc.Engine.RetainJobs = 1
	return sc
}

// serveHarness is the server kernels' shared HTTP plumbing: one
// listener and one keep-alive client reused across iterations, with
// each iteration's fresh daemon swapped in behind an atomic handler
// pointer. Production clients hold connections open across batches,
// so per-iteration TCP dials, listener churn and idle-pool eviction
// are harness cost, not serving tax — the kernels time daemon
// start, admission, the engine and drain over a warm connection. The
// bundled HTTP/2 setup is disabled on both sides (the documented
// non-nil-TLSNextProto form): these kernels speak cleartext
// HTTP/1.1, so per-daemon h2 configuration would only time stdlib
// setup the connection can never negotiate. The listener lives until
// the process exits (kernels have no teardown hook; the bench binary
// exits right after the run).
type serveHarness struct {
	hs      *httptest.Server
	client  *http.Client
	handler atomic.Pointer[http.Handler]
}

func newServeHarness() *serveHarness {
	h := &serveHarness{}
	h.hs = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, r)
	}))
	h.hs.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){}
	h.hs.Start()
	h.client = &http.Client{Transport: &http.Transport{
		TLSNextProto: map[string]func(string, *tls.Conn) http.RoundTripper{},
	}}
	return h
}

// swap points the shared listener at a fresh daemon.
func (h *serveHarness) swap(hd http.Handler) { h.handler.Store(&hd) }

// serveSmoke is the -serve-smoke mode: drive a daemon into overload
// and assert the robustness contract end to end — load sheds with 429
// + Retry-After, the shed count is monotone, the heap stays bounded,
// a quiet period reopens admission, and a graceful drain completes
// every accepted job with a completion stream byte-identical to an
// offline RunStream replay of the accepted (densely re-IDed) trace.
// Returns the process exit code (6 on failure).
func serveSmoke(seed uint64) int {
	_ = seed // the probe's workload is fixed: overload dynamics, not sampling, are under test
	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "bench: serve smoke FAIL: "+format+"\n", a...)
		return 6
	}

	// Speed-1 fat tree: root capacity 2. Unit jobs every 0.1 time
	// units offer rate 10 — hopelessly unstable, so the watermark must
	// trip. The subscriber buffer is sized past the whole run so the
	// byte-identity check cannot be voided by an overflow drop.
	sc := &treesched.Scenario{Topology: treesched.NewSpec("fattree", 2, 2, 2)}
	sc.Engine.Serve = true
	sc.Engine.RetainJobs = 1
	srv, err := treesched.NewServer(treesched.ServerConfig{
		Scenario: sc, ShedBacklog: 20, SubscriberBuffer: 4096,
	})
	if err != nil {
		fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// Retries stays 0: resubmitting the same releases cannot drain a
	// fluid backlog, so retrying against sustained overload livelocks.
	cl := &treesched.ServerClient{Base: hs.URL}
	ctx := context.Background()

	stream, err := cl.Completions(ctx)
	if err != nil {
		fatal(err)
	}
	var got bytes.Buffer
	streamDone := make(chan struct{})
	go func() {
		io.Copy(&got, stream)
		close(streamDone)
	}()

	var accepted []treesched.Job
	shedBatches, prevShed := 0, 0
	var peak uint64
	for b := 0; b < 10; b++ {
		batch := make([]treesched.Job, 20)
		for i := range batch {
			batch[i] = treesched.Job{Release: float64(b*20+i) * 0.1, Size: 1}
		}
		res, err := cl.Submit(ctx, batch)
		if err != nil {
			fatal(err)
		}
		accepted = append(accepted, batch[:res.Accepted]...)
		if res.Shed > 0 {
			shedBatches++
		}
		st, err := cl.Stats(ctx)
		if err != nil {
			fatal(err)
		}
		if st.Shed < prevShed {
			return fail("shed count went backwards: %d -> %d", prevShed, st.Shed)
		}
		prevShed = st.Shed
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	if shedBatches == 0 {
		return fail("an offered rate 5x capacity never shed")
	}
	if peak > smokeCeiling {
		return fail("peak heap %d B under overload exceeds the %d B ceiling", peak, int64(smokeCeiling))
	}

	// The shed path itself must answer 429 with a Retry-After hint.
	resp, err := http.Post(hs.URL+"/jobs", "application/x-ndjson",
		strings.NewReader(`{"Release":19.95,"Size":1}`+"\n"))
	if err != nil {
		fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		return fail("status %d while shedding, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		return fail("429 carries no Retry-After header")
	}

	// A quiet period (much later release) drains the fluid backlog
	// below the hysteresis floor and admission reopens.
	late := []treesched.Job{{Release: 1000, Size: 1}}
	res, err := cl.Submit(ctx, late)
	if err != nil {
		fatal(err)
	}
	if res.Accepted != 1 {
		return fail("admission did not reopen after the backlog drained: accepted=%d shed=%d", res.Accepted, res.Shed)
	}
	accepted = append(accepted, late...)

	final, err := cl.Drain(ctx)
	if err != nil {
		fatal(err)
	}
	if final.Completed != len(accepted) || final.Accepted != len(accepted) {
		return fail("drain completed=%d accepted=%d, want %d (every accepted job, no shed job)",
			final.Completed, final.Accepted, len(accepted))
	}
	if final.Shed == 0 {
		return fail("final stats lost the shed count")
	}
	<-streamDone

	// Byte-identity: the accepted subset, re-IDed densely (the dense
	// IDs the daemon assigned at admission), replays through the
	// offline streaming pipeline to the same NDJSON.
	dense := make([]treesched.Job, len(accepted))
	copy(dense, accepted)
	for i := range dense {
		dense[i].ID = i
	}
	in, err := sc.Build()
	if err != nil {
		fatal(err)
	}
	var want bytes.Buffer
	opts := in.Opts
	opts.RetainJobs = 1
	opts.Sink = treesched.NewNDJSONSink(&want)
	if _, err := treesched.RunStream(in.Tree, treesched.NewTraceSource(&treesched.Trace{Jobs: dense}), in.Assigner, opts); err != nil {
		fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fail("daemon completions differ from the offline replay of the accepted trace (%d vs %d bytes)", got.Len(), want.Len())
	}

	// The clean-path allocation bound: on a warm, stable daemon the
	// whole serving path — NDJSON decode, batched admission, engine,
	// completion fan-out — must stay under serveAllocCeiling mallocs
	// per admitted job.
	perJob, err := serveAllocsPerJob()
	if err != nil {
		fatal(err)
	}
	if perJob > serveAllocCeiling {
		return fail("warm clean path allocates %.2f mallocs per admitted job (ceiling %.1f)", perJob, serveAllocCeiling)
	}
	fmt.Fprintf(os.Stderr, "bench: serve smoke OK: accepted %d, shed %d (429 + Retry-After), drained clean, completions byte-identical to the offline replay, warm clean path %.2f mallocs/job (ceiling %.1f)\n",
		len(accepted), final.Shed, perJob, serveAllocCeiling)
	return 0
}

// serveAllocCeiling bounds the process-wide malloc count per admitted
// job on the warm clean path (submission decode + batched admission +
// engine + fan-out, measured across one 2,000-job POST). The batched
// path runs at ~0.1 mallocs per job; the ceiling leaves slack for
// HTTP transport internals and GC-timing noise while still catching
// any per-job allocation sneaking back into the hot path.
const (
	serveAllocCeiling = 0.5
	serveAllocJobs    = 2000
)

// serveAllocsPerJob measures the warm clean path: a stable daemon
// (spaced unit jobs, no shedding) takes one warm-up submission, then
// the process-wide Mallocs delta across one serveAllocJobs-job
// submission — divided by the job count — is the per-job serving
// cost. The engine queue is polled empty before each sample so the
// measurement brackets the whole path, not just the HTTP exchange.
func serveAllocsPerJob() (float64, error) {
	sc := serveScenario()
	srv, err := treesched.NewServer(treesched.ServerConfig{
		Scenario: sc, QueueDepth: 4 * serveAllocJobs,
	})
	if err != nil {
		return 0, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := &treesched.ServerClient{Base: hs.URL}
	ctx := context.Background()

	// Unit jobs a full time unit apart on the speed-1.5 tree: each
	// completes before the next arrives, so the system is stable and
	// every sample sees the same steady state.
	mk := func(base float64, n int) []treesched.Job {
		jobs := make([]treesched.Job, n)
		for i := range jobs {
			jobs[i] = treesched.Job{Release: base + float64(i), Size: 1}
		}
		return jobs
	}
	settle := func() error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := cl.Stats(ctx)
			if err != nil {
				return err
			}
			if st.QueueLen == 0 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("serve alloc probe: engine queue never drained (len %d)", st.QueueLen)
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit := func(base float64, n int) error {
		res, err := cl.Submit(ctx, mk(base, n))
		if err != nil {
			return err
		}
		if res.Accepted != n {
			return fmt.Errorf("serve alloc probe: admitted %d of %d jobs", res.Accepted, n)
		}
		return settle()
	}

	// Warm up: first contact grows the batch pool, fan-out buffer, and
	// transport connections to steady state.
	if err := submit(0, 500); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := submit(500, serveAllocJobs); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	if _, err := cl.Drain(ctx); err != nil {
		return 0, err
	}
	return float64(after.Mallocs-before.Mallocs) / float64(serveAllocJobs), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
