package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"treesched"
	"treesched/internal/sim"
)

func TestParseCompletionMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	floats := []float64{0, 1, 0.5, 1e-7, 1.5e-9, 123456789.125, 1e21, 3.0000000000000004, math.MaxFloat64, math.SmallestNonzeroFloat64}
	pick := func() float64 {
		if r.Intn(3) == 0 {
			return floats[r.Intn(len(floats))]
		}
		return r.ExpFloat64() * math.Pow(10, float64(r.Intn(12)-4))
	}
	var line []byte
	for i := 0; i < 5000; i++ {
		m := treesched.JobMetrics{
			ID:         r.Intn(1 << 40),
			Release:    pick(),
			Completion: pick(),
			Flow:       pick(),
			Leaf:       treesched.NodeID(r.Intn(4096)),
			PathWork:   pick(),
			Weight:     pick(),
		}
		var err error
		if line, err = sim.AppendJobMetrics(line[:0], &m); err != nil {
			t.Fatal(err)
		}
		var want treesched.JobMetrics
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		id, c, ok := parseCompletion(line)
		if !ok || id != want.ID || c != want.Completion {
			t.Fatalf("parseCompletion(%s) = %d, %v, %v; encoding/json reads %d, %v", line, id, c, ok, want.ID, want.Completion)
		}
	}
}

func TestParseCompletionRejects(t *testing.T) {
	for _, line := range []string{
		``,
		`{}`,
		`{"ID":x,"Completion":1,"Flow":1}`,
		`{"ID":1,"Release":1}`,
		`{"ID":1,"Completion":1e,"Flow":1}`,
		`{"ID":1,"Completion":2`,
		`["ID",1]`,
	} {
		if _, _, ok := parseCompletion([]byte(line)); ok {
			t.Errorf("parseCompletion(%q) accepted a malformed line", line)
		}
	}
}

func TestSubscriberSplitsLinesAcrossReads(t *testing.T) {
	s := &subscriber{kappa: 1, win: 1e9, lags: make([][]float64, 1)}
	stream := `{"ID":0,"Release":0,"Completion":0,"Flow":0,"Leaf":1,"PathWork":1,"Weight":1}` + "\n" +
		`{"ID":1,"Release":0,"Completion":0,"Flow":0,"Leaf":1,"PathWork":1,"Weight":1}` + "\n"
	for i := 0; i < len(stream); i += 7 {
		s.feed([]byte(stream[i:min(i+7, len(stream))]), s.start)
	}
	if len(s.hashes) != 2 || len(s.lags[0]) != 2 || len(s.carry) != 0 {
		t.Fatalf("got %d lines, %d lags, %d carried bytes; want 2, 2, 0", len(s.hashes), len(s.lags[0]), len(s.carry))
	}
}
