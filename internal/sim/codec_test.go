package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"treesched/internal/tree"
)

// metricsCases are float values that historically trip hand-rolled
// JSON encoders: negative zero, the 'f'/'e' format cutoffs on both
// sides, subnormals, and the largest finite magnitudes.
var metricsFloatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 2.0 / 3.0,
	1e-6, 9.999999999999999e-7, -1e-6, 1e-7,
	1e21, 9.999999999999999e20, -1e21, 1.0000000000000001e21,
	1e-9, 1e-300, 5e-324, -5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	123456789.123456789, 1 / 3.0, 1e20, 1e6,
}

func stdlibLine(t testing.TB, m *JobMetrics) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return b
}

// The byte-identity contract of the serving layer rides on this
// equivalence: the pooled encoder must reproduce encoding/json
// exactly, field order and float formatting included.
func TestMetricsEncodeMatchesStdlib(t *testing.T) {
	for _, f := range metricsFloatCases {
		m := &JobMetrics{
			ID: 7, Release: f, Completion: f, Flow: f,
			Leaf: tree.NodeID(3), PathWork: f / 3, Weight: 1,
		}
		got, err := AppendJobMetrics(nil, m)
		if err != nil {
			t.Fatalf("AppendJobMetrics(%v): %v", f, err)
		}
		if want := stdlibLine(t, m); !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch for %v:\n got  %s\n want %s", f, got, want)
		}
	}
}

func TestMetricsEncodeAppendsToPrefix(t *testing.T) {
	m := &JobMetrics{ID: 1, Release: 0.5, Completion: 1.5, Flow: 1, Weight: 1}
	out, err := AppendJobMetrics([]byte("prefix"), m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, []byte("prefix{")) {
		t.Fatalf("append did not preserve the prefix: %s", out)
	}
}

func TestMetricsEncodeRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := &JobMetrics{ID: 1, Flow: f, Weight: 1}
		if _, err := AppendJobMetrics(nil, m); err == nil {
			t.Fatalf("AppendJobMetrics accepted non-finite %v (encoding/json rejects it)", f)
		}
	}
}

// The sink built on the codec must emit json.Encoder-identical lines
// and settle at zero allocations per job.
func TestNDJSONSinkMatchesEncoder(t *testing.T) {
	ms := []JobMetrics{
		{ID: 0, Release: 0, Completion: 2.5, Flow: 2.5, Leaf: 4, PathWork: 3, Weight: 1},
		{ID: 1, Release: 1e-7, Completion: 1e21, Flow: 1e21, Leaf: 5, PathWork: 0.25, Weight: 2},
	}
	var got, want bytes.Buffer
	sink := NewNDJSONSink(&got)
	enc := json.NewEncoder(&want)
	for i := range ms {
		if err := sink.Emit(&ms[i]); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&ms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sink output differs from json.Encoder:\n got  %q\n want %q", got.Bytes(), want.Bytes())
	}
}

func TestNDJSONSinkSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 16)
	sink := NewNDJSONSink(&buf)
	m := JobMetrics{ID: 42, Release: 1.25, Completion: 3.5, Flow: 2.25, Leaf: 6, PathWork: 4.5, Weight: 1}
	if err := sink.Emit(&m); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sink.Emit(&m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm NDJSONSink.Emit allocates %.1f/op, want 0", allocs)
	}
}

// FuzzMetricsEncode differentially pins the pooled encoder against
// encoding/json over arbitrary finite field values.
func FuzzMetricsEncode(f *testing.F) {
	f.Add(0, 0.0, 0.0, 0.0, int32(0), 0.0, 0.0)
	f.Add(3, 1.5, 2.75, 1.25, int32(4), 3.5, 1.0)
	f.Add(-1, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, int32(-2), 1e21, 9.999999999999999e20)
	f.Add(1<<30, 5e-324, -5e-324, math.MaxFloat64, int32(1<<30), -math.MaxFloat64, 1e-300)
	f.Add(7, 123456789.123456789, 2.0/3.0, 1e20, int32(12), 1e-7, 0.1)
	f.Fuzz(func(t *testing.T, id int, release, completion, flow float64, leaf int32, pathWork, weight float64) {
		m := &JobMetrics{
			ID: id, Release: release, Completion: completion, Flow: flow,
			Leaf: tree.NodeID(leaf), PathWork: pathWork, Weight: weight,
		}
		got, err := AppendJobMetrics(nil, m)
		want, wantErr := json.Marshal(m)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error divergence: codec err=%v, stdlib err=%v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch for %+v:\n got  %s\n want %s", m, got, want)
		}
	})
}
