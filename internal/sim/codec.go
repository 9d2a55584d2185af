// Zero-allocation NDJSON encoding of JobMetrics. The serving layer's
// completion fan-out and the NDJSON sink marshal one JobMetrics per
// completed job; going through encoding/json costs a reflective walk
// and a fresh []byte per job, which benchmarks showed dominating the
// daemon's hot path. AppendJobMetrics writes the exact bytes
// json.Marshal would produce — same field order, same float
// formatting — into a caller-reused buffer instead; its floats go
// through internal/jsonfloat, the shortest-digit kernel it shares
// with workload.AppendJob. The equivalence is not aspirational:
// TestMetricsEncodeMatchesStdlib and FuzzMetricsEncode pin it byte
// for byte, so the daemon's byte-identity contract (completion
// streams == offline RunStream output) survives the codec swap.
package sim

import (
	"fmt"
	"math"
	"strconv"

	"treesched/internal/jsonfloat"
)

// AppendJobMetrics appends m as one compact JSON object — the exact
// bytes json.Marshal(m) produces — and returns the extended buffer.
// No trailing newline. A non-finite float field is an error, mirroring
// encoding/json's refusal to marshal NaN/Inf.
func AppendJobMetrics(dst []byte, m *JobMetrics) ([]byte, error) {
	if !finiteAll(m.Release, m.Completion, m.Flow, m.PathWork, m.Weight) {
		return dst, fmt.Errorf("sim: JobMetrics for job %d has a non-finite field, refusing to encode", m.ID)
	}
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendInt(dst, int64(m.ID), 10)
	dst = append(dst, `,"Release":`...)
	dst = jsonfloat.Append(dst, m.Release)
	dst = append(dst, `,"Completion":`...)
	dst = jsonfloat.Append(dst, m.Completion)
	dst = append(dst, `,"Flow":`...)
	dst = jsonfloat.Append(dst, m.Flow)
	dst = append(dst, `,"Leaf":`...)
	dst = strconv.AppendInt(dst, int64(m.Leaf), 10)
	dst = append(dst, `,"PathWork":`...)
	dst = jsonfloat.Append(dst, m.PathWork)
	dst = append(dst, `,"Weight":`...)
	dst = jsonfloat.Append(dst, m.Weight)
	dst = append(dst, '}')
	return dst, nil
}

func finiteAll(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
