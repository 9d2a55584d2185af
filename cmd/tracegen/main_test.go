package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"treesched/internal/scenario"
	"treesched/internal/workload"
)

func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunGeneratesTrace(t *testing.T) {
	code, out, errw := exec(t, "-n", "25", "-seed", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	var doc struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("stdout is not a trace: %v\n%s", err, out)
	}
	if len(doc.Jobs) != 25 {
		t.Fatalf("trace has %d jobs, want 25", len(doc.Jobs))
	}
	if !strings.Contains(errw, "25 jobs") {
		t.Fatalf("summary missing from stderr: %q", errw)
	}
}

func TestRunMissingScenarioFile(t *testing.T) {
	code, _, errw := exec(t, "-scenario", filepath.Join(t.TempDir(), "absent.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "absent.json") {
		t.Fatalf("stderr does not name the missing file: %q", errw)
	}
}

func TestRunMalformedScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"workload": {"siez": "uniform:1,2"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := exec(t, "-scenario", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "siez") {
		t.Fatalf("stderr does not name the offending field: %q", errw)
	}
}

func TestRunUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-process", "quantum"}, `unknown process "quantum"`},
		{[]string{"-size", "zipf:1,2"}, `unknown size distribution "zipf"`},
	} {
		code, _, errw := exec(t, append(tc.args, "-n", "10")...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1 (stderr %q)", tc.args, code, errw)
		}
		if !strings.Contains(errw, tc.want) {
			t.Fatalf("%v: stderr %q missing %q", tc.args, errw, tc.want)
		}
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	code, _, _ := exec(t, "-bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunStreamEmitsNDJSON(t *testing.T) {
	// -stream must yield the exact same jobs as the materialized form,
	// one JSON object per line, with the same stderr summary.
	code, want, errWant := exec(t, "-n", "40", "-seed", "4")
	if code != 0 {
		t.Fatalf("materialized exit %d", code)
	}
	code, out, errw := exec(t, "-n", "40", "-seed", "4", "-stream")
	if code != 0 {
		t.Fatalf("-stream exit %d, stderr %q", code, errw)
	}
	if errw != errWant {
		t.Fatalf("stream summary diverges:\n  materialized %q\n  streamed     %q", errWant, errw)
	}
	var doc struct {
		Jobs []workload.Job `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(want), &doc); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Collect(workload.NewNDJSONSource(strings.NewReader(out)))
	if err != nil {
		t.Fatalf("reading NDJSON back: %v", err)
	}
	if len(tr.Jobs) != len(doc.Jobs) {
		t.Fatalf("streamed %d jobs, want %d", len(tr.Jobs), len(doc.Jobs))
	}
	for i := range tr.Jobs {
		if !reflect.DeepEqual(tr.Jobs[i], doc.Jobs[i]) {
			t.Fatalf("job %d diverges:\n  materialized %+v\n  streamed     %+v", i, doc.Jobs[i], tr.Jobs[i])
		}
	}
}

func TestRunStreamBursty(t *testing.T) {
	code, out, errw := exec(t, "-n", "30", "-seed", "2", "-process", "bursty", "-burst", "5", "-stream")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if got := strings.Count(strings.TrimRight(out, "\n"), "\n") + 1; got != 30 {
		t.Fatalf("NDJSON has %d lines, want 30", got)
	}
}

func TestParseUnrelated(t *testing.T) {
	u, err := parseUnrelated("8:0.5,2")
	if err != nil {
		t.Fatal(err)
	}
	if want := (scenario.Unrelated{Lo: 0.5, Hi: 2, Leaves: 8}); *u != want {
		t.Fatalf("unrelated = %+v, want %+v", *u, want)
	}
	for _, spec := range []string{"8", "x:1,2", "8:1", "8:a,b"} {
		if _, err := parseUnrelated(spec); err == nil {
			t.Fatalf("unrelated spec %q accepted", spec)
		}
	}
}

// The -unrelated error texts are pinned byte for byte: they are what
// tracegen prints.
func TestParseUnrelatedErrorMessages(t *testing.T) {
	for spec, want := range map[string]string{
		"8":     `cli: unrelated spec "8" wants LEAVES:lo,hi`,
		"x:1,2": `cli: unrelated leaves "x": strconv.Atoi: parsing "x": invalid syntax`,
		"8:1":   `cli: unrelated range "1" wants lo,hi`,
	} {
		_, err := parseUnrelated(spec)
		if err == nil || err.Error() != want {
			t.Fatalf("%q:\n got  %v\n want %q", spec, err, want)
		}
	}
}

// -scenario F writes the trace a run of F replays, Build's
// Instance.Trace: the load calibrated against the tree's capacity,
// the scenario's rng mode, and unrelated sizes for every leaf.
func TestScenarioTraceMatchesBuild(t *testing.T) {
	for _, compact := range []string{
		"topo=fattree:2,2,2 n=5 size=uniform:1,16 load=0.9 seed=3",
		"topo=fattree:2,2,2 n=5 size=uniform:1,16 load=0.9 seed=3 rng=keyed",
		"topo=fattree:2,2,2 n=5 size=uniform:1,16 load=0.9 seed=3 unrelated=0.5,2",
	} {
		t.Run(compact, func(t *testing.T) {
			dir := t.TempDir()
			file, out := filepath.Join(dir, "scenario.txt"), filepath.Join(dir, "trace.json")
			if err := os.WriteFile(file, []byte(compact), 0o644); err != nil {
				t.Fatal(err)
			}
			if code, _, errw := exec(t, "-scenario", file, "-o", out); code != 0 {
				t.Fatalf("exit %d, stderr %q", code, errw)
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, err := workload.ReadJSON(f)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.ParseCompact(compact)
			if err != nil {
				t.Fatal(err)
			}
			in, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Jobs, in.Trace.Jobs) {
				t.Fatalf("tracegen wrote\n  %+v\nBuild generates\n  %+v", got.Jobs, in.Trace.Jobs)
			}
		})
	}
}
