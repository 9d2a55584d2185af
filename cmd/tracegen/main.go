// Command tracegen generates workload traces as JSON for record and
// replay across tools and experiments.
//
// Usage:
//
//	tracegen -n 1000 -process poisson -size uniform:1,16 -load 0.9 \
//	         -capacity 2 [-burst 10] [-unrelated 8:0.5,2] [-eps 0.5] \
//	         [-seed 1] -o trace.json
//	tracegen -scenario run.json -o trace.json
//	tracegen -stream -n 1000000 -o trace.ndjson
//
// -stream emits newline-delimited JSON (one job per line) drawn from
// the streaming generator, so million-job traces are written in
// constant memory; the jobs are bit-identical to the materialized
// form. workload.NDJSONSource reads the format back.
//
// Size specs: uniform:lo,hi | bimodal:small,big,pbig | pareto:min,alpha,cap.
// -eps > 0 rounds all sizes to powers of (1+eps).
// -unrelated LEAVES:lo,hi attaches per-leaf processing times.
//
// The flags assemble the workload half of a scenario.Scenario;
// -scenario loads a full scenario instead and regenerates its trace,
// and -dump-scenario prints the assembled scenario as JSON. A scenario
// with a topology is built as treesched builds it, so the trace is
// the one its runs replay: the load is calibrated against the tree's
// root-adjacent degree, unrelated sizes get one entry per leaf, and
// the scenario's rng mode draws them. With no topology the load is
// calibrated against -capacity (default 1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"treesched/internal/scenario"
	"treesched/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so error paths are testable:
// it returns the exit code (0 ok, 1 runtime error, 2 flag error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 1000, "number of jobs")
	process := fs.String("process", "poisson", "arrival process: poisson | bursty | adversarial")
	sizeSpec := fs.String("size", "uniform:1,16", "size distribution spec")
	load := fs.Float64("load", 0.9, "offered load")
	capacity := fs.Float64("capacity", 1, "capacity the load is calibrated against")
	burst := fs.Int("burst", 10, "burst length for -process bursty")
	eps := fs.Float64("eps", 0, "round sizes to powers of (1+eps) when > 0")
	unrelated := fs.String("unrelated", "", "LEAVES:lo,hi per-leaf sizes")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (default stdout)")
	stream := fs.Bool("stream", false, "write NDJSON (one job per line) from the streaming generator in constant memory")
	scenFile := fs.String("scenario", "", "load the scenario from this file (JSON or compact form) instead of the individual flags")
	dump := fs.Bool("dump-scenario", false, "print the scenario as JSON and exit without generating")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}

	var sc *scenario.Scenario
	if *scenFile != "" {
		data, err := os.ReadFile(*scenFile)
		if err != nil {
			return fail(err)
		}
		if sc, err = scenario.Load(data); err != nil {
			return fail(err)
		}
	} else {
		sizeSp, err := scenario.ParseSpec(*sizeSpec)
		if err != nil {
			return fail(err)
		}
		var processSp scenario.Spec
		switch *process {
		case "poisson":
			processSp = scenario.NewSpec("poisson")
		case "bursty":
			processSp = scenario.NewSpec("bursty", float64(*burst))
		case "adversarial":
			// The adversarial pattern historically used big jobs of
			// size 32.
			processSp = scenario.NewSpec("adversarial", 32)
		default:
			return fail(fmt.Errorf("unknown process %q", *process))
		}
		sc = &scenario.Scenario{
			Workload: scenario.Workload{
				Process:  processSp,
				N:        *n,
				Size:     sizeSp,
				Load:     *load,
				Capacity: *capacity,
				RoundEps: *eps,
			},
			Seed: *seed,
		}
		if *unrelated != "" {
			if sc.Workload.Unrelated, err = parseUnrelated(*unrelated); err != nil {
				return fail(err)
			}
		}
	}
	if *dump {
		if err := sc.WriteJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	// One source feeds both outputs: -stream writes it, the JSON form
	// collects it.
	src, err := source(sc)
	if err != nil {
		return fail(err)
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	var st workload.TraceStats
	if *stream {
		if st, err = workload.StreamNDJSON(src, w); err != nil {
			return fail(err)
		}
	} else {
		tr, err := workload.Collect(src)
		if err != nil {
			return fail(err)
		}
		if err := tr.WriteJSON(w); err != nil {
			return fail(err)
		}
		st = tr.Stats()
	}
	fmt.Fprintf(stderr, "tracegen: %d jobs, total work %.4g, span %.4g, mean size %.4g, max size %.4g, offered %.4g/s\n",
		st.Jobs, st.TotalWork, st.Span, st.MeanSize, st.MaxSize, st.OfferedPerSec)
	return 0
}

// source returns the scenario's arrival source. With a topology it is
// the built instance's, so topology-derived defaults and the rng mode
// are the ones a run of the scenario uses; trace-only generation has
// no topology and calibrates the load against capacity 1 unless the
// workload names one.
func source(sc *scenario.Scenario) (workload.ArrivalSource, error) {
	if sc.Topology.Name != "" {
		in, err := sc.Build()
		if err != nil {
			return nil, err
		}
		return in.NewSource()
	}
	if sc.Workload.Capacity == 0 {
		sc.Workload.Capacity = 1
	}
	p, err := sc.NewPartition()
	if err != nil {
		return nil, err
	}
	return sc.Workload.SourceRNG(p)
}

// parseUnrelated parses the -unrelated flag, "LEAVES:lo,hi". Its error
// texts are the ones tracegen has always printed, byte for byte.
func parseUnrelated(spec string) (*scenario.Unrelated, error) {
	leavesStr, rangeStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("cli: unrelated spec %q wants LEAVES:lo,hi", spec)
	}
	leaves, err := strconv.Atoi(leavesStr)
	if err != nil {
		return nil, fmt.Errorf("cli: unrelated leaves %q: %w", leavesStr, err)
	}
	parts := strings.Split(rangeStr, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("cli: unrelated range %q wants lo,hi", rangeStr)
	}
	lo, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return nil, err
	}
	hi, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return nil, err
	}
	return &scenario.Unrelated{Lo: lo, Hi: hi, Leaves: leaves}, nil
}
