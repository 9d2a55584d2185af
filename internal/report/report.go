// Package report renders completed experiment suites as Markdown
// (EXPERIMENTS.md) or aligned text, and dumps tables as CSV files.
package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"treesched/internal/experiments"
)

// Meta describes how a suite run was produced; it heads the report.
// It carries no date or timing, so a regenerated report is
// byte-identical to the committed one when no experiment moved.
type Meta struct {
	Seed  uint64
	Scale float64
}

// WriteMarkdown renders the suite as the EXPERIMENTS.md document.
// Results with errors abort with that error.
func WriteMarkdown(w io.Writer, results []experiments.RunResult, meta Meta) error {
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(w, "Reproduction of Im & Moseley, *Scheduling in Bandwidth Constrained Tree Networks* (SPAA 2015).\n")
	fmt.Fprintf(w, "Generated by `cmd/experiments -seed %d -scale %g`.\n\n", meta.Seed, meta.Scale)
	fmt.Fprintf(w, "The paper is a theory paper (proofs, no measured tables), so every entry validates one claim's *shape*: the paper's prediction, then what the simulator measured. See DESIGN.md §4 for the index.\n\n")
	// Table of contents.
	for _, rr := range results {
		if rr.Err == nil {
			fmt.Fprintf(w, "- **%s** — %s *(%s)*\n", rr.Exp.ID, rr.Exp.Title, rr.Exp.Paper)
		}
	}
	fmt.Fprintln(w)
	for _, rr := range results {
		if rr.Err != nil {
			return fmt.Errorf("report: experiment %s failed: %w", rr.Exp.ID, rr.Err)
		}
		fmt.Fprintf(w, "## %s — %s\n\n**Paper artifact:** %s\n\n", rr.Exp.ID, rr.Exp.Title, rr.Exp.Paper)
		for _, txt := range rr.Output.Texts {
			fmt.Fprintf(w, "**%s**\n\n```\n%s```\n\n", txt.Title, txt.Body)
		}
		for _, tb := range rr.Output.Tables {
			fmt.Fprintln(w, tb.Markdown())
		}
	}
	return nil
}

// WriteText renders the suite as aligned plain text.
func WriteText(w io.Writer, results []experiments.RunResult) error {
	for _, rr := range results {
		if rr.Err != nil {
			return fmt.Errorf("report: experiment %s failed: %w", rr.Exp.ID, rr.Err)
		}
		fmt.Fprintf(w, "=== %s — %s [%s]\n\n", rr.Exp.ID, rr.Exp.Title, rr.Exp.Paper)
		for _, txt := range rr.Output.Texts {
			fmt.Fprintf(w, "%s\n%s\n", txt.Title, txt.Body)
		}
		for _, tb := range rr.Output.Tables {
			fmt.Fprintln(w, tb.Text())
		}
	}
	return nil
}

// WriteCSVDir dumps every table of every result as
// <dir>/<ID>_<index>.csv, creating the directory if needed.
func WriteCSVDir(dir string, results []experiments.RunResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rr := range results {
		if rr.Err != nil {
			return fmt.Errorf("report: experiment %s failed: %w", rr.Exp.ID, rr.Err)
		}
		for i, tb := range rr.Output.Tables {
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_%d.csv", rr.Exp.ID, i)))
			if err != nil {
				return err
			}
			if err := tb.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
