package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("run", -1, -1, at(0), at(10))
	// Children cover [1,5] and [8,10] of the root (the last one is
	// clipped at the root's end): 6 ms, leaving 4 ms of self time.
	a := tr.add("child", 0, root, at(1), at(3))
	tr.add("child", 1024, root, at(2), at(5))
	tr.add("child", 2048, root, at(8), at(12))
	tr.add("grandchild", 0, a, at(1), at(2))

	want := map[string]selfTime{
		"run":        {Name: "run", Count: 1, Total: 10 * time.Millisecond, Self: 4 * time.Millisecond},
		"child":      {Name: "child", Count: 3, Total: 9 * time.Millisecond, Self: 8 * time.Millisecond},
		"grandchild": {Name: "grandchild", Count: 1, Total: time.Millisecond, Self: time.Millisecond},
	}
	got := tr.selfTimes()
	if len(got) != len(want) || got[0].Name != "run" {
		t.Fatalf("selfTimes = %+v", got)
	}
	for _, st := range got {
		if st != want[st.Name] {
			t.Errorf("selfTimes[%s] = %+v, want %+v", st.Name, st, want[st.Name])
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr := newTracer()
	root := tr.begin("ledger", -1, -1)
	tr.add("ledger.assign", 1024, root, tr.t0.Add(time.Microsecond), tr.t0.Add(3*time.Microsecond))
	tr.end(root)
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "ledger.assign" || e.Ph != "X" || e.Ts != 1 || e.Dur != 2 || e.Tid != 2 || e.Args["job"] != 1024.0 || e.Args["parent"] != 0.0 {
		t.Errorf("job span event = %+v", e)
	}
	if doc.TraceEvents[0].Tid != 1 || doc.TraceEvents[0].Args["parent"] != -1.0 {
		t.Errorf("root span event = %+v", doc.TraceEvents[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if i := tr.begin("x", -1, -1); i != -1 {
		t.Errorf("nil tracer begin = %d, want -1", i)
	}
	tr.end(0)
	if i := tr.add("x", 0, -1, time.Now(), time.Now()); i != -1 {
		t.Errorf("nil tracer add = %d, want -1", i)
	}
}
