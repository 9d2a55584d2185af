package report

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treesched/internal/experiments"
	"treesched/internal/table"
)

func fakeResults() []experiments.RunResult {
	tb := table.New("demo table", "a", "b")
	tb.AddRow(1, 2.5)
	out := &experiments.Output{Tables: []*table.Table{tb}}
	out.Texts = append(out.Texts, experiments.TextBlock{Title: "a figure", Body: "ascii art\n"})
	return []experiments.RunResult{{
		Exp:    &experiments.Experiment{ID: "Z1", Title: "demo", Paper: "Theorem 0"},
		Output: out,
	}}
}

func TestWriteMarkdown(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMarkdown(&buf, fakeResults(), Meta{Seed: 7, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# EXPERIMENTS", "Generated by `cmd/experiments -seed 7 -scale 2`.\n",
		"- **Z1** — demo *(Theorem 0)*", // table of contents
		"## Z1 — demo", "**Paper artifact:** Theorem 0",
		"**a figure**", "ascii art", "| a | b |", "| 1 | 2.5 |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMarkdownNoDate(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, fakeResults(), Meta{Seed: 1, Scale: 1}); err != nil {
		t.Fatal(err)
	}
	// The header carries no generation date, so regenerating an
	// unchanged suite reproduces the committed report byte for byte.
	if !strings.Contains(buf.String(), "Generated by `cmd/experiments -seed 1 -scale 1`.\n") || strings.Contains(buf.String(), " on ") {
		t.Fatalf("header is not the dateless generation line:\n%s", buf.String())
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, fakeResults()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== Z1 — demo [Theorem 0]", "demo table", "a  b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text missing %q:\n%s", want, out)
		}
	}
}

func TestErrorPropagates(t *testing.T) {
	rs := []experiments.RunResult{{
		Exp: &experiments.Experiment{ID: "E"},
		Err: errors.New("boom"),
	}}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, rs, Meta{}); err == nil {
		t.Fatal("markdown swallowed the error")
	}
	if err := WriteText(&buf, rs); err == nil {
		t.Fatal("text swallowed the error")
	}
	if err := WriteCSVDir(t.TempDir(), rs); err == nil {
		t.Fatal("csv swallowed the error")
	}
}

func TestWriteCSVDir(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCSVDir(dir, fakeResults()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "Z1_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "a,b\n1,2.5\n") {
		t.Fatalf("csv contents: %s", data)
	}
}
