package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/rng"
)

// drain collects a source, failing the test on a source error.
func drain(t *testing.T, src ArrivalSource) []Job {
	t.Helper()
	tr, err := Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return tr.Jobs
}

// The reference implementations below are the materializing loops
// the trace generators ran before they became collected sources, kept
// verbatim (less the dropped Meta map) so a change in any source's
// draw order fails the twin tests.

// refPoisson is the reference for PoissonSource.
func refPoisson(r *rng.Rand, cfg GenConfig) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rate := cfg.Load * cfg.Capacity / cfg.Size.Mean()
	tr := &Trace{}
	t, sr := 0.0, cfg.sizeRand(r)
	for i := 0; i < cfg.N; i++ {
		t += r.Exp(rate)
		tr.Jobs = append(tr.Jobs, Job{ID: i, Release: t, Size: cfg.Size.Sample(sr)})
	}
	return tr, nil
}

// refBursty is the reference for BurstySource.
func refBursty(r *rng.Rand, cfg GenConfig, burstLen int) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if burstLen < 1 {
		return nil, errors.New("workload: burstLen must be >= 1")
	}
	rate := cfg.Load * cfg.Capacity / cfg.Size.Mean() / float64(burstLen)
	tr := &Trace{}
	t, id, sr := 0.0, 0, cfg.sizeRand(r)
	for id < cfg.N {
		t += r.Exp(rate)
		for b := 0; b < burstLen && id < cfg.N; b++ {
			// Distinct arrival times, per the paper's WLOG assumption.
			t += 1e-9
			tr.Jobs = append(tr.Jobs, Job{ID: id, Release: t, Size: cfg.Size.Sample(sr)})
			id++
		}
	}
	return tr, nil
}

// refAdversarial is the reference for AdversarialSource.
func refAdversarial(r *rng.Rand, n int, bigSize float64) *Trace {
	tr := &Trace{}
	t := 0.0
	id := 0
	for id < n {
		// One big job ...
		t += 1e-9
		tr.Jobs = append(tr.Jobs, Job{ID: id, Release: t, Size: bigSize})
		id++
		// ... followed by a flood of unit jobs before it can drain.
		flood := int(bigSize / 2)
		for f := 0; f < flood && id < n; f++ {
			t += 1e-9
			tr.Jobs = append(tr.Jobs, Job{ID: id, Release: t, Size: 1})
			id++
		}
		t += bigSize / 4
	}
	return tr
}

// refMakeRelated is the reference for RelatedSource.
func refMakeRelated(tr *Trace, leafSpeeds []float64) error {
	if len(leafSpeeds) == 0 {
		return errors.New("workload: MakeRelated needs at least one leaf speed")
	}
	for _, s := range leafSpeeds {
		if s <= 0 {
			return fmt.Errorf("workload: non-positive leaf speed %v", s)
		}
	}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		j.LeafSizes = make([]float64, len(leafSpeeds))
		for li, s := range leafSpeeds {
			j.LeafSizes[li] = j.Size / s
		}
	}
	return nil
}

// refRoundTraceToClasses is the reference for ClassRoundSource.
func refRoundTraceToClasses(tr *Trace, eps float64) {
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		j.Size = RoundToClass(j.Size, eps)
		for li := range j.LeafSizes {
			j.LeafSizes[li] = RoundToClass(j.LeafSizes[li], eps)
		}
	}
}

func TestPoissonSourceMatchesPoisson(t *testing.T) {
	cfg := GenConfig{N: 500, Size: ClassRounded{Base: UniformSize{1, 16}, Eps: 0.5}, Load: 0.9, Capacity: 2}
	want, err := refPoisson(rng.New(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPoissonSource(rng.New(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, src); !reflect.DeepEqual(got, want.Jobs) {
		t.Fatal("streamed Poisson jobs differ from materialized trace")
	}
	// Exhausted sources stay exhausted.
	if _, ok := src.Next(); ok {
		t.Fatal("Next after exhaustion returned a job")
	}
}

func TestBurstySourceMatchesBursty(t *testing.T) {
	// 503 is deliberately not a multiple of the burst length: the last
	// burst is truncated in both implementations.
	for _, burst := range []int{1, 4, 7} {
		cfg := GenConfig{N: 503, Size: BimodalSize{Small: 1, Big: 32, PBig: 0.1}, Load: 0.8, Capacity: 3}
		want, err := refBursty(rng.New(11), cfg, burst)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewBurstySource(rng.New(11), cfg, burst)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, src); !reflect.DeepEqual(got, want.Jobs) {
			t.Fatalf("burst=%d: streamed Bursty jobs differ from materialized trace", burst)
		}
	}
	if _, err := NewBurstySource(rng.New(1), GenConfig{N: 1, Size: UniformSize{1, 2}, Load: 1}, 0); err == nil {
		t.Fatal("NewBurstySource accepted burstLen 0")
	}
}

func TestAdversarialSourceMatchesAdversarial(t *testing.T) {
	// bigSize 1.5 exercises the flood==0 edge (int(1.5/2) == 0): the
	// pattern degenerates to big jobs separated by big/4 gaps.
	for _, big := range []float64{32, 5, 1.5} {
		want := refAdversarial(rng.New(1), 200, big)
		src := NewAdversarialSource(200, big)
		if got := drain(t, src); !reflect.DeepEqual(got, want.Jobs) {
			t.Fatalf("bigSize=%g: streamed Adversarial jobs differ from materialized trace", big)
		}
	}
}

func TestTraceSourceRoundTrip(t *testing.T) {
	tr, err := Poisson(rng.New(3), GenConfig{N: 50, Size: UniformSize{1, 4}, Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource(tr)
	if got := drain(t, src); !reflect.DeepEqual(got, tr.Jobs) {
		t.Fatal("TraceSource jobs differ from the wrapped trace")
	}
}

func TestWrappedSourcesMatchTraceTransforms(t *testing.T) {
	cfg := GenConfig{N: 120, Size: UniformSize{1, 16}, Load: 0.9, Capacity: 2}
	speeds := []float64{1, 2, 0.5, 4}

	want, err := refPoisson(rng.New(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := refMakeRelated(want, speeds); err != nil {
		t.Fatal(err)
	}
	refRoundTraceToClasses(want, 0.5)

	base, err := NewPoissonSource(rng.New(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelatedSource(base, speeds)
	if err != nil {
		t.Fatal(err)
	}
	src := NewClassRoundSource(rel, 0.5)
	if got := drain(t, src); !reflect.DeepEqual(got, want.Jobs) {
		t.Fatal("wrapped related+rounded stream differs from trace transforms")
	}

	if _, err := NewRelatedSource(base, nil); err == nil {
		t.Fatal("NewRelatedSource accepted empty speeds")
	}
	if _, err := NewRelatedSource(base, []float64{1, -1}); err == nil {
		t.Fatal("NewRelatedSource accepted a non-positive speed")
	}
}

// Collect sizes a trace once when its source knows how many jobs it
// has left, so no trace keeps append growth's spare capacity (9.6% of
// 200,000 Poisson jobs): every generator, the per-job transforms over
// one, and a partly drained TraceSource.
func TestCollectSizesOnce(t *testing.T) {
	const n = 50_000
	cfg := GenConfig{N: n, Size: UniformSize{1, 16}, Load: 0.9, Capacity: 2}
	poisson, err := Poisson(rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := Bursty(rng.New(1), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewPoissonSource(rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelatedSource(base, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tail := NewTraceSource(poisson)
	tail.Next()
	for _, c := range []struct {
		name string
		jobs []Job
		want int
	}{
		{"poisson", poisson.Jobs, n},
		{"bursty", bursty.Jobs, n},
		{"adversarial", Adversarial(nil, n, 32).Jobs, n},
		{"related+rounded", drain(t, NewClassRoundSource(rel, 0.5)), n},
		{"trace source after one job", drain(t, tail), n - 1},
	} {
		if len(c.jobs) != c.want || cap(c.jobs) != len(c.jobs) {
			t.Errorf("%s: len %d cap %d, want both %d", c.name, len(c.jobs), cap(c.jobs), c.want)
		}
	}
}

func TestStreamNDJSONRoundTrip(t *testing.T) {
	cfg := GenConfig{N: 80, Size: UniformSize{1, 16}, Load: 0.9, Capacity: 2}
	want, err := Poisson(rng.New(9), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	src, err := NewPoissonSource(rng.New(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StreamNDJSON(src, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ws := want.Stats(); st != ws {
		t.Fatalf("online stats %+v differ from trace stats %+v", st, ws)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != cfg.N {
		t.Fatalf("NDJSON has %d lines, want %d", lines, cfg.N)
	}
	var encoded bytes.Buffer
	enc := json.NewEncoder(&encoded)
	for i := range want.Jobs {
		if err := enc.Encode(&want.Jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), encoded.Bytes()) {
		t.Fatal("StreamNDJSON output differs from json.Encoder's")
	}

	back, err := Collect(NewNDJSONSource(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Jobs, want.Jobs) {
		t.Fatal("NDJSON round trip altered the jobs")
	}
}

func TestNDJSONSourceError(t *testing.T) {
	src := NewNDJSONSource(strings.NewReader("{\"ID\":0,\"Size\":1}\nnot json\n"))
	if _, ok := src.Next(); !ok {
		t.Fatal("first line should decode")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("garbage line should stop the source")
	}
	if src.Err() == nil {
		t.Fatal("Err() should report the decode failure")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("failed source should stay stopped")
	}
}

// failNDJSON drains an NDJSON source that must fail, returning the
// error and how many jobs decoded cleanly first.
func failNDJSON(t *testing.T, input string) (error, int) {
	t.Helper()
	src := NewNDJSONSource(strings.NewReader(input))
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	err := src.Err()
	if err == nil {
		t.Fatalf("source drained %d jobs from %q without error", n, input)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("failed source yielded another job")
	}
	return err, n
}

func TestNDJSONSourceTruncatedLine(t *testing.T) {
	// The writer died mid-object: the decode error must surface, not a
	// silent clean EOF after the good prefix.
	err, n := failNDJSON(t, "{\"ID\":0,\"Release\":1,\"Size\":2}\n{\"ID\":1,\"Release\":2,\"Si")
	if n != 1 {
		t.Fatalf("decoded %d jobs before the truncated line, want 1", n)
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("error %q does not name the offending job index", err)
	}
}

func TestNDJSONSourceNonMonotone(t *testing.T) {
	err, n := failNDJSON(t,
		"{\"ID\":0,\"Release\":5,\"Size\":1}\n{\"ID\":1,\"Release\":3,\"Size\":1}\n{\"ID\":2,\"Release\":9,\"Size\":1}\n")
	if n != 1 {
		t.Fatalf("decoded %d jobs before the regression, want 1", n)
	}
	if !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("error %q does not explain the ordering requirement", err)
	}
	// Equal releases are fine (ties are allowed; only regressions fail).
	tr, err2 := Collect(NewNDJSONSource(strings.NewReader(
		"{\"ID\":0,\"Release\":5,\"Size\":1}\n{\"ID\":1,\"Release\":5,\"Size\":1}\n")))
	if err2 != nil {
		t.Fatalf("tied releases rejected: %v", err2)
	}
	if len(tr.Jobs) != 2 {
		t.Fatalf("tied releases yielded %d jobs, want 2", len(tr.Jobs))
	}
}

func TestNDJSONSourceBadUTF8(t *testing.T) {
	err, _ := failNDJSON(t, "{\"ID\":0,\"Release\":1,\"Size\":2}\n\xff\xfe{\"ID\":1}\n")
	if !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("error %q does not name the offending job index", err)
	}
}

func TestTraceSourceExhaustion(t *testing.T) {
	src := NewTraceSource(&Trace{Jobs: []Job{{ID: 0, Release: 1, Size: 2}}})
	if _, ok := src.Next(); !ok {
		t.Fatal("single-job trace yielded nothing")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("drained TraceSource yielded a job")
	}
	if src.Err() != nil {
		t.Fatalf("TraceSource reported an error: %v", src.Err())
	}
	empty := NewTraceSource(&Trace{})
	if _, ok := empty.Next(); ok {
		t.Fatal("empty TraceSource yielded a job")
	}
}

func TestSizeRandSplitsDraws(t *testing.T) {
	// With SizeRand set, interarrival draws come from the main stream
	// alone: the arrival sequence is invariant under a change of size
	// law, which is exactly what the single-stream order cannot offer.
	gen := func(size SizeDist) []Job {
		p := rng.NewPartitioned(3)
		cfg := GenConfig{N: 200, Size: size, Load: 0.9, Capacity: 2, SizeRand: p.Stream("sizes")}
		// Hold the mean fixed so the calibrated rate (and hence the
		// arrival times themselves) cannot differ between size laws.
		tr, err := Poisson(p.Stream("workload"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Jobs
	}
	a := gen(UniformSize{1, 3})
	b := gen(BimodalSize{Small: 1, Big: 3, PBig: 0.5})
	for i := range a {
		if a[i].Release != b[i].Release {
			t.Fatalf("job %d arrival moved (%v -> %v) when only the size law changed", i, a[i].Release, b[i].Release)
		}
	}
	// Streamed twin: bit-identical to the materialized run under the
	// same partition.
	p := rng.NewPartitioned(3)
	cfg := GenConfig{N: 200, Size: UniformSize{1, 3}, Load: 0.9, Capacity: 2, SizeRand: p.Stream("sizes")}
	src, err := NewPoissonSource(p.Stream("workload"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, src); !reflect.DeepEqual(got, a) {
		t.Fatal("streamed partitioned Poisson differs from materialized")
	}
}

// blockingReader yields its prefix, then blocks forever (until Close
// releases the pending Read with io.EOF) — a dead peer in miniature.
type blockingReader struct {
	prefix  []byte
	release chan struct{}
	once    sync.Once
}

func newBlockingReader(prefix string) *blockingReader {
	return &blockingReader{prefix: []byte(prefix), release: make(chan struct{})}
}

func (b *blockingReader) Read(p []byte) (int, error) {
	if len(b.prefix) > 0 {
		n := copy(p, b.prefix)
		b.prefix = b.prefix[n:]
		return n, nil
	}
	<-b.release
	return 0, io.EOF
}

func (b *blockingReader) Close() error {
	b.once.Do(func() { close(b.release) })
	return nil
}

func TestNDJSONSourceLimitedStall(t *testing.T) {
	r := newBlockingReader("{\"ID\":0,\"Release\":1,\"Size\":2}\n")
	defer r.Close()
	src := NewNDJSONSourceLimited(r, SourceLimits{Stall: 20 * time.Millisecond})
	if _, ok := src.Next(); !ok {
		t.Fatalf("prefix job should decode: %v", src.Err())
	}
	start := time.Now()
	if _, ok := src.Next(); ok {
		t.Fatal("stalled stream yielded a job")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall detection took far longer than the timeout")
	}
	if err := src.Err(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Err() = %v, want ErrStalled", err)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("stalled source yielded another job")
	}
}

func TestNDJSONSourceLimitedPartialLineStall(t *testing.T) {
	// The peer died mid-object: the decoder is blocked wanting more
	// bytes of job 1, and the guard must fail it rather than hang.
	r := newBlockingReader("{\"ID\":0,\"Release\":1,\"Size\":2}\n{\"ID\":1,\"Rel")
	defer r.Close()
	src := NewNDJSONSourceLimited(r, SourceLimits{Stall: 20 * time.Millisecond})
	if _, ok := src.Next(); !ok {
		t.Fatalf("complete first job should decode: %v", src.Err())
	}
	if _, ok := src.Next(); ok {
		t.Fatal("half-written job decoded")
	}
	if err := src.Err(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Err() = %v, want ErrStalled", err)
	}
}

func TestNDJSONSourceLimitedLineTooLong(t *testing.T) {
	long := "{\"ID\":1,\"Release\":2,\"Size\":3,\"pad\":\"" + strings.Repeat("x", 4096) + "\"}\n"
	src := NewNDJSONSourceLimited(
		strings.NewReader("{\"ID\":0,\"Release\":1,\"Size\":2}\n"+long),
		SourceLimits{MaxLineBytes: 256})
	if _, ok := src.Next(); !ok {
		t.Fatalf("short first line should decode: %v", src.Err())
	}
	if _, ok := src.Next(); ok {
		t.Fatal("oversized line decoded")
	}
	if err := src.Err(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("Err() = %v, want ErrLineTooLong", err)
	}
}

func TestNDJSONSourceLimitedZeroLimitsPassThrough(t *testing.T) {
	// Zero limits mean no guard: behavior matches the plain source.
	in := "{\"ID\":0,\"Release\":1,\"Size\":2}\n{\"ID\":1,\"Release\":2,\"Size\":3}\n"
	tr, err := Collect(NewNDJSONSourceLimited(strings.NewReader(in), SourceLimits{}))
	if err != nil {
		t.Fatalf("unguarded source failed: %v", err)
	}
	if len(tr.Jobs) != 2 {
		t.Fatalf("collected %d jobs, want 2", len(tr.Jobs))
	}
}
