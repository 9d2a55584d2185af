package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec runs the command and returns (exit code, stdout, stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunHappyPath(t *testing.T) {
	code, out, errw := exec(t, "-topo", "star:4", "-n", "50", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	for _, want := range []string{"topology", "total flow", "competitive ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunFaultyScenario(t *testing.T) {
	code, out, errw := exec(t,
		"-topo", "fattree:2,2,2", "-n", "80", "-seed", "7",
		"-faults", "leafloss:2,0.3", "-recovery", "redispatch")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "faults          2 events, redispatch recovery") {
		t.Fatalf("report missing fault line:\n%s", out)
	}
}

func TestRunAuditFlag(t *testing.T) {
	code, out, errw := exec(t,
		"-topo", "fattree:2,2,2", "-n", "80", "-seed", "7",
		"-faults", "outages:3,20", "-audit")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "audit           OK") {
		t.Fatalf("report missing audit line:\n%s", out)
	}
}

func TestRunAuditRejectsPS(t *testing.T) {
	code, _, errw := exec(t, "-topo", "star:4", "-n", "20", "-policy", "ps", "-audit")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "no discrete slices") {
		t.Fatalf("stderr %q missing PS explanation", errw)
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

func TestRunMalformedScenarioJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"topology": "star:4", "wokload": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := exec(t, "-scenario", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "wokload") {
		t.Fatalf("stderr does not name the offending field: %q", errw)
	}
}

func TestRunUnknownRegistryNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "moebius:3"}, `unknown topology "moebius"`},
		{[]string{"-topo", "star:4", "-policy", "fancy"}, `unknown policy "fancy"`},
		{[]string{"-topo", "star:4", "-assigner", "psychic"}, `unknown assigner "psychic"`},
		{[]string{"-topo", "star:4", "-faults", "meteor:3"}, `unknown fault plan "meteor"`},
		{[]string{"-topo", "star:4", "-faults", "outages:2,5", "-recovery", "pray"}, `unknown faults.recovery "pray"`},
		{[]string{"-topo", "star:4", "-recovery", "hold"}, "-recovery needs -faults"},
		{[]string{"-topo", "star:4", "-speed", "-1"}, "scenario: speed.uniform is -1, want > 0"},
	} {
		code, _, errw := exec(t, append(tc.args, "-n", "20")...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1 (stderr %q)", tc.args, code, errw)
		}
		if !strings.Contains(errw, tc.want) {
			t.Fatalf("%v: stderr %q missing %q", tc.args, errw, tc.want)
		}
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	code, _, _ := exec(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunDumpScenarioIncludesFaults(t *testing.T) {
	code, out, errw := exec(t,
		"-topo", "star:4", "-n", "20", "-faults", "outages:3,10", "-dump-scenario")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, `"plan": "outages:3,10"`) {
		t.Fatalf("dump missing fault plan:\n%s", out)
	}
}

// wantRemovedFlag runs treesched with args and requires exit 2 (like
// other flag errors), no report, and the exact message naming the
// removed flag.
func wantRemovedFlag(t *testing.T, name string, args ...string) {
	t.Helper()
	code, out, errw := exec(t, args...)
	want := "treesched: flag -" + name + " was removed: the engine runs one sequential event loop\n"
	if code != 2 || errw != want || out != "" {
		t.Fatalf("%v: exit %d, stderr %q, stdout %q; want exit 2 and %q", args, code, errw, out, want)
	}
}

// The engine runs one sequential event loop: the former sharded-engine
// flags -shards, -parallel and -split fail in every spelling and name
// the removal.
func TestRunShardsFlag(t *testing.T) {
	for _, tc := range []struct {
		flag []string
		name string
	}{
		{[]string{"-shards", "0"}, "shards"},
		{[]string{"-shards", "4"}, "shards"},
		{[]string{"--shards=2"}, "shards"},
		{[]string{"-parallel", "3"}, "parallel"},
		{[]string{"-split", "8"}, "split"},
		{[]string{"-split=2"}, "split"},
	} {
		wantRemovedFlag(t, tc.name, append([]string{"-topo", "fattree:4,1,2", "-n", "80"}, tc.flag...)...)
	}
}

// A negative or non-numeric -shards value is still a flag error; the
// message names the removal rather than the value.
func TestRunShardsRejectsNegative(t *testing.T) {
	wantRemovedFlag(t, "shards", "-topo", "star:4", "-n", "20", "-shards", "-2")
	wantRemovedFlag(t, "shards", "-topo", "star:4", "-n", "20", "-shards", "two")
}

// -shards no longer overrides a scenario file: the flag fails next to
// a clean file, and a file still carrying the shards= key fails naming
// the removed key.
func TestRunShardsOverridesScenarioFile(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.txt")
	if err := os.WriteFile(clean, []byte("topo=star:4 n=40 size=uniform:1,8 load=0.8 seed=9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errw := exec(t, "-scenario", clean); code != 0 {
		t.Fatalf("clean scenario: exit %d, stderr %q", code, errw)
	}
	wantRemovedFlag(t, "shards", "-scenario", clean, "-shards", "1")
	stale := filepath.Join(dir, "stale.txt")
	if err := os.WriteFile(stale, []byte("topo=star:4 n=40 size=uniform:1,8 load=0.8 seed=9 shards=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := exec(t, "-scenario", stale)
	if want := "treesched: scenario: key \"shards\" was removed: the engine runs one sequential event loop\n"; code != 1 || errw != want {
		t.Fatalf("scenario with shards=: exit %d, stderr %q; want exit 1 and %q", code, errw, want)
	}
}

// A packetized scenario whose jobs carry a leaf-size vector that does
// not match the tree exits 1 with the engine's message, as the store-
// and-forward run of the same file does, instead of indexing past the
// vector when a job lands on a leaf beyond it.
func TestRunPacketizedLeafSizeMismatch(t *testing.T) {
	const jobs = `[{"ID":0,"Release":0,"Size":2,"LeafSizes":[1,2,3]},{"ID":1,"Release":1,"Size":3,"LeafSizes":[1,2,3]},` +
		`{"ID":2,"Release":2,"Size":2,"LeafSizes":[1,2,3]},{"ID":3,"Release":3,"Size":2,"LeafSizes":[1,2,3]}]`
	const want = "treesched: sim: job 0 has 3 leaf sizes for a 8-leaf tree\n"
	for _, engine := range []string{`{"packetized":true}`, `{}`} {
		path := filepath.Join(t.TempDir(), "f.json")
		sc := `{"topology":"fattree:2,2,2","assigner":"roundrobin","engine":` + engine + `,"workload":{"jobs":` + jobs + `}}`
		if err := os.WriteFile(path, []byte(sc), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, errw := exec(t, "-scenario", path); code != 1 || errw != want {
			t.Errorf("engine %s: exit %d, stderr %q; want exit 1 and %q", engine, code, errw, want)
		}
	}
}

func TestRunStreamFlagMatchesMaterialized(t *testing.T) {
	// The streaming pipeline is bit-identical; only the lower-bound
	// line (which needs the materialized trace) may differ.
	base := []string{"-topo", "fattree:2,2,2", "-n", "200", "-seed", "11"}
	code, want, errw := exec(t, base...)
	if code != 0 {
		t.Fatalf("baseline exit %d, stderr %q", code, errw)
	}
	code, out, errw := exec(t, append(append([]string{}, base...), "-stream")...)
	if code != 0 {
		t.Fatalf("-stream exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "OPT lower bound n/a") {
		t.Fatalf("streamed report should mark the lower bound n/a:\n%s", out)
	}
	strip := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "OPT lower bound") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(out) != strip(want) {
		t.Fatalf("streamed report diverges from materialized run:\n--- materialized\n%s\n--- streamed\n%s", want, out)
	}
}

func TestRunRetainSummaryAndResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.ndjson")
	code, out, errw := exec(t, "-topo", "star:4", "-n", "300", "-seed", "2",
		"-stream", "-retain", "10", "-result", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "10 of 300 jobs retained") {
		t.Fatalf("report missing retention note:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 301 {
		t.Fatalf("result has %d lines, want 300 job lines + stats trailer", len(lines))
	}
	if !strings.Contains(lines[300], `"stats"`) {
		t.Fatalf("last line is not the stats trailer: %s", lines[300])
	}
}

func TestRunRetainRejectsIntrospectionFlags(t *testing.T) {
	for _, extra := range []string{"-audit", "-gantt", "-checklemmas"} {
		code, _, errw := exec(t, "-topo", "star:4", "-n", "20", "-retain", "5", extra)
		if code != 1 {
			t.Fatalf("%s: exit %d, want 1 (stderr %q)", extra, code, errw)
		}
		if !strings.Contains(errw, "-retain") {
			t.Fatalf("%s: stderr %q does not blame -retain", extra, errw)
		}
	}
}

func TestRunStreamRejectsTraceOut(t *testing.T) {
	code, _, errw := exec(t, "-topo", "star:4", "-n", "20", "-stream",
		"-trace", filepath.Join(t.TempDir(), "t.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errw)
	}
	if !strings.Contains(errw, "never materialized") {
		t.Fatalf("stderr %q does not explain the missing trace", errw)
	}
}

func TestRunStreamOverridesScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.txt")
	if err := os.WriteFile(path, []byte("topo=star:4 n=40 size=uniform:1,8 load=0.8 seed=9 stream retain=5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errw := exec(t, "-scenario", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "5 of 40 jobs retained") {
		t.Fatalf("scenario file streaming knobs ignored:\n%s", out)
	}
	// -retain 0 on the command line restores full retention.
	code, out, errw = exec(t, "-scenario", path, "-retain", "0")
	if code != 0 {
		t.Fatalf("override exit %d, stderr %q", code, errw)
	}
	if strings.Contains(out, "jobs retained") {
		t.Fatalf("-retain 0 override did not restore full retention:\n%s", out)
	}
}

func TestRunFleet(t *testing.T) {
	card := filepath.Join(t.TempDir(), "card.json")
	code, out, errw := exec(t,
		"-topo", "fattree:2,2,2", "-n", "200", "-seed", "5",
		"-fleet", "3", "-fleetpolicy", "jsq", "-faults", "brownouts:2,10,0.5",
		"-scorecard", card)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	for _, want := range []string{"fleet           3 trees, policy jsq", "front door      200 jobs routed", "tree 0", "tree 2", "total flow"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet report missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(card)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"per_tree\"") {
		t.Fatalf("scorecard JSON missing per_tree rows:\n%s", data)
	}
}

func TestRunFleetFromScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.txt")
	if err := os.WriteFile(path, []byte("topo=star:4 n=60 size=uniform:1,8 load=0.8 seed=9 fleet=2 fleetpolicy=rr\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errw := exec(t, "-scenario", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "fleet           2 trees, policy rr") {
		t.Fatalf("scenario file fleet section ignored:\n%s", out)
	}
}

func TestRunFleetRejectsSingleTreeReports(t *testing.T) {
	code, _, errw := exec(t, "-topo", "star:4", "-n", "20", "-fleet", "2", "-gantt")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errw)
	}
	if !strings.Contains(errw, "single-tree report") {
		t.Fatalf("stderr %q does not explain the conflict", errw)
	}
}

func TestRunFleetPolicyNeedsFleet(t *testing.T) {
	code, _, errw := exec(t, "-topo", "star:4", "-n", "20", "-fleetpolicy", "jsq")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errw)
	}
	if !strings.Contains(errw, "-fleetpolicy needs -fleet") {
		t.Fatalf("stderr %q does not explain the missing -fleet", errw)
	}
}
