package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds gives each workload a run length of about 5,000 jobs.
var smokeSeconds = map[string]string{
	"serve-paced": "0.05",
	"serve-bulk":  "0.025",
	"sim-wide":    "0.0125",
	"sim-deep":    "0.00625",
}

// goBuild builds the package pkg, relative to dir, into out.
func goBuild(t *testing.T, dir, pkg, out string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, b)
	}
}

// definition reads the metric names and units BENCHMARK.json declares.
func definition(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []boundDef `json:"end_to_end"`
		PerLayer  []boundDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// lastResult runs the benchmark in-process and decodes the last line of
// its standard output.
func lastResult(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var keys map[string]json.RawMessage
	var res result
	last := []byte(lines[len(lines)-1])
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("%v: exit %d, last line is not JSON: %v\nstdout:\n%s\nstderr:\n%s", args, code, err, out.String(), errOut.String())
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("%v: result keys %v, want exactly correct, attempted, failed, metrics", args, keys)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	return code, res, out.String() + errOut.String()
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(got), len(want))
	}
	for n, unit := range want {
		m, ok := got[n]
		if !ok {
			t.Errorf("%s: metric %s missing", name, n)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s in %q, want %q", name, n, m.Unit, unit)
		}
	}
}

// TestSmoke runs every workload at about 5,000 jobs, untraced and
// traced, against a daemon built from this checkout.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := definition(t)
	dir := t.TempDir()
	daemon := filepath.Join(dir, "treeschedd")
	goBuild(t, "..", "./cmd/treeschedd", daemon)
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", "3", "-seconds", smokeSeconds[w.name], "-daemon", daemon}
		code, res, out := lastResult(t, args...)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: exit %d, correct %v, %d of %d failed\n%s", w.name, code, res.Correct, res.Failed, res.Attempted, out)
		}
		checkMetrics(t, w.name, res.Metrics, endToEnd)

		trace := filepath.Join(dir, "trace-"+w.name+".json")
		code, res, out = lastResult(t, append(args, "-trace", trace)...)
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: exit %d, correct %v, %d of %d failed\n%s", w.name, code, res.Correct, res.Failed, res.Attempted, out)
		}
		checkMetrics(t, w.name+" traced", res.Metrics, perLayer)
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ TraceEvents []json.RawMessage }
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace is not a Chrome trace with events: %v", w.name, err)
		}
	}
}

// TestCorruptCompletionStreamFails runs serve-paced against a daemon
// that alters one completion line: the run must fail.
func TestCorruptCompletionStreamFails(t *testing.T) {
	dir := t.TempDir()
	daemon := filepath.Join(dir, "corruptd")
	goBuild(t, ".", "./testdata/corruptd", daemon)
	code, res, out := lastResult(t, "-workload", "serve-paced", "-seed", "1", "-seconds", smokeSeconds["serve-paced"], "-daemon", daemon)
	if code != 1 || res.Correct || res.Failed < 1 {
		t.Errorf("corrupted stream: exit %d, correct %v, %d failed; want exit 1, not correct, a failure\n%s", code, res.Correct, res.Failed, out)
	}
}
