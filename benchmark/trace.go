package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// sampleEvery is the job sampling period of the traced run: spans are
// recorded for jobs whose ID is a multiple of it, plus every ledger
// phase.
const sampleEvery = 1024

func sampled(id int) bool { return id%sampleEvery == 0 }

// span is one traced interval. Spans of one job carry its ID; spans
// that belong to no single job (runs, segments, ledger phases) carry
// -1.
type span struct {
	Name       string
	ID         int
	Parent     int // index of the parent span, -1 for a root
	Start, End time.Duration
}

// tracer keeps spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, so untraced passes run the
// same code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, id, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, id, parent int) int {
	now := time.Now()
	return t.add(name, id, parent, now, now)
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0)
}

// selfTime aggregates the spans of one name: how many, their summed
// duration, and their summed self time (duration minus the part of the
// span its children cover).
type selfTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes returns the per-name aggregates in order of first
// appearance.
func (t *tracer) selfTimes() []selfTime {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var out []selfTime
	at := map[string]int{}
	var iv [][2]time.Duration
	for i, s := range t.spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		dur := s.End - s.Start
		k, ok := at[s.Name]
		if !ok {
			k = len(out)
			at[s.Name] = k
			out = append(out, selfTime{Name: s.Name})
		}
		out[k].Count++
		out[k].Total += dur
		out[k].Self += dur - unionLength(iv)
	}
	return out
}

// unionLength is the total length covered by possibly overlapping
// intervals; it reorders iv.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end time.Duration
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), loadable in chrome://tracing
// and Perfetto. Per-job spans get their own row so they do not break
// the nesting of the run and ledger rows.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.Parent}
		tid := 1
		if s.ID >= 0 {
			args["job"] = s.ID
			tid = 2
		}
		evs[i] = event{Name: s.Name, Ph: "X", Ts: micros(s.Start), Dur: micros(s.End - s.Start), Pid: 1, Tid: tid, Args: args}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
