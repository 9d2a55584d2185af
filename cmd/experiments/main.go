// Command experiments regenerates the reproduction suite: every
// figure/theorem/lemma/baseline experiment indexed in DESIGN.md §4.
//
// Usage:
//
//	experiments [-run T1,L2] [-seed 1] [-scale 1] [-format md|text]
//	            [-out EXPERIMENTS.md] [-csv results/] [-parallel N]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With no -run it executes everything in ID order. -out writes a
// Markdown report (paper-vs-measured); -csv additionally dumps every
// table as CSV into the given directory. Experiments are
// deterministic for a given seed and report no wall time, so the
// output is byte-identical at any -parallel; `make experiments-check`
// relies on that to diff a regenerated report against EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"treesched/internal/experiments"
	"treesched/internal/report"
)

func main() {
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Uint64("seed", 1, "random seed")
	scale := flag.Float64("scale", 1, "job-count scale factor")
	format := flag.String("format", "text", "output format: text or md")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	csvDir := flag.String("csv", "", "also write every table as CSV into this directory")
	list := flag.Bool("list", false, "list experiments and exit")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS); results are deterministic either way")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

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
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-55s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var selected []*experiments.Experiment
	if *runList == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale}
	start := time.Now()
	results := experiments.RunAll(selected, cfg, *parallel)
	elapsed := time.Since(start)

	var err error
	if *format == "md" {
		err = report.WriteMarkdown(w, results, report.Meta{Seed: *seed, Scale: *scale})
	} else {
		err = report.WriteText(w, results)
	}
	if err != nil {
		fatal(err)
	}
	if *csvDir != "" {
		if err := report.WriteCSVDir(*csvDir, results); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "suite (%d experiments) completed in %v\n", len(results), elapsed.Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
