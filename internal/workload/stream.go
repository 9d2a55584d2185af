// Arrival sources: the one implementation of every arrival process.
// An ArrivalSource yields release-ordered jobs one at a time, so a
// million-job run never materializes a []Job; the trace generators
// (Poisson, Bursty, Adversarial) are these sources' jobs, collected,
// so a streamed workload and its materialized trace are the same jobs
// by construction.
package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"treesched/internal/rng"
)

// ArrivalSource yields the jobs of a workload in release order, one
// at a time. Next returns the next job and true, or a zero Job and
// false when the source is exhausted or failed; after a false, Err
// distinguishes clean exhaustion (nil) from a source error. Sources
// are single-use: once drained they stay drained.
type ArrivalSource interface {
	Next() (Job, bool)
	Err() error
}

// TraceSource adapts a materialized *Trace to the ArrivalSource
// interface, so every consumer of sources also accepts traces.
type TraceSource struct {
	tr *Trace
	i  int
}

// NewTraceSource wraps a trace. The trace is not copied; it must not
// be mutated while the source is in use.
func NewTraceSource(tr *Trace) *TraceSource { return &TraceSource{tr: tr} }

func (s *TraceSource) Next() (Job, bool) {
	if s.i >= len(s.tr.Jobs) {
		return Job{}, false
	}
	j := s.tr.Jobs[s.i]
	s.i++
	return j, true
}

func (s *TraceSource) Err() error { return nil }

func (s *TraceSource) remaining() int { return len(s.tr.Jobs) - s.i }

// PoissonSource is the Poisson arrival process: per job it draws one
// exponential interarrival then one size sample.
type PoissonSource struct {
	r    *rng.Rand
	cfg  GenConfig
	rate float64
	t    float64
	i    int
}

// NewPoissonSource validates cfg and returns the generator.
func NewPoissonSource(r *rng.Rand, cfg GenConfig) (*PoissonSource, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &PoissonSource{r: r, cfg: cfg, rate: cfg.Load * cfg.Capacity / cfg.Size.Mean()}, nil
}

func (s *PoissonSource) Next() (Job, bool) {
	if s.i >= s.cfg.N {
		return Job{}, false
	}
	s.t += s.r.Exp(s.rate)
	j := Job{ID: s.i, Release: s.t, Size: s.cfg.Size.Sample(s.cfg.sizeRand(s.r))}
	s.i++
	return j, true
}

func (s *PoissonSource) Err() error { return nil }

func (s *PoissonSource) remaining() int { return s.cfg.N - s.i }

// BurstySource is the bursty arrival process: one exponential draw
// at each burst start, then per job a fixed jitter and one size
// sample.
type BurstySource struct {
	r        *rng.Rand
	cfg      GenConfig
	rate     float64
	burstLen int
	pos      int // position within the current burst
	t        float64
	i        int
}

// NewBurstySource validates cfg and burstLen and returns the
// generator.
func NewBurstySource(r *rng.Rand, cfg GenConfig, burstLen int) (*BurstySource, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if burstLen < 1 {
		return nil, errors.New("workload: burstLen must be >= 1")
	}
	rate := cfg.Load * cfg.Capacity / cfg.Size.Mean() / float64(burstLen)
	return &BurstySource{r: r, cfg: cfg, rate: rate, burstLen: burstLen}, nil
}

func (s *BurstySource) Next() (Job, bool) {
	if s.i >= s.cfg.N {
		return Job{}, false
	}
	if s.pos == 0 {
		s.t += s.r.Exp(s.rate)
	}
	s.t += 1e-9
	j := Job{ID: s.i, Release: s.t, Size: s.cfg.Size.Sample(s.cfg.sizeRand(s.r))}
	s.i++
	s.pos++
	if s.pos == s.burstLen {
		s.pos = 0
	}
	return j, true
}

func (s *BurstySource) Err() error { return nil }

func (s *BurstySource) remaining() int { return s.cfg.N - s.i }

// AdversarialSource is the adversarial pattern: one big job, a flood
// of bigSize/2 unit jobs, then a bigSize/4 gap, over and over. It
// draws no random numbers.
type AdversarialSource struct {
	n         int
	big       float64
	floodLeft int
	t         float64
	i         int
}

// NewAdversarialSource returns the streaming generator for n jobs
// with the given big-job size.
func NewAdversarialSource(n int, bigSize float64) *AdversarialSource {
	return &AdversarialSource{n: n, big: bigSize}
}

func (s *AdversarialSource) Next() (Job, bool) {
	if s.i >= s.n {
		return Job{}, false
	}
	var j Job
	s.t += 1e-9
	if s.floodLeft == 0 {
		j = Job{ID: s.i, Release: s.t, Size: s.big}
		s.floodLeft = int(s.big / 2)
	} else {
		j = Job{ID: s.i, Release: s.t, Size: 1}
		s.floodLeft--
	}
	if s.floodLeft == 0 {
		s.t += s.big / 4
	}
	s.i++
	return j, true
}

func (s *AdversarialSource) Err() error { return nil }

func (s *AdversarialSource) remaining() int { return s.n - s.i }

// RelatedSource applies MakeRelated per job: every yielded job gets
// LeafSizes[i] = Size/leafSpeeds[i]. The transform is rng-free, so
// wrapping preserves bit-identity with the materialized pipeline.
type RelatedSource struct {
	src    ArrivalSource
	speeds []float64
}

// NewRelatedSource validates the speeds exactly like MakeRelated.
func NewRelatedSource(src ArrivalSource, leafSpeeds []float64) (*RelatedSource, error) {
	if err := checkSpeeds(leafSpeeds); err != nil {
		return nil, err
	}
	return &RelatedSource{src: src, speeds: leafSpeeds}, nil
}

func (s *RelatedSource) Next() (Job, bool) {
	j, ok := s.src.Next()
	if !ok {
		return Job{}, false
	}
	relate(&j, s.speeds)
	return j, true
}

func (s *RelatedSource) Err() error { return s.src.Err() }

func (s *RelatedSource) remaining() int { return remaining(s.src) }

// ClassRoundSource applies RoundTraceToClasses per job: router and
// leaf sizes are rounded up to powers of (1+eps). Rng-free.
type ClassRoundSource struct {
	src ArrivalSource
	eps float64
}

// NewClassRoundSource wraps src; eps must be positive (RoundToClass
// panics otherwise, matching RoundTraceToClasses).
func NewClassRoundSource(src ArrivalSource, eps float64) *ClassRoundSource {
	return &ClassRoundSource{src: src, eps: eps}
}

func (s *ClassRoundSource) Next() (Job, bool) {
	j, ok := s.src.Next()
	if !ok {
		return Job{}, false
	}
	roundJob(&j, s.eps)
	return j, true
}

func (s *ClassRoundSource) Err() error { return s.src.Err() }

func (s *ClassRoundSource) remaining() int { return remaining(s.src) }

// remaining returns how many jobs src has left to yield, or -1 when
// it cannot tell (a decoder, say). The generators know their N, and
// a per-job transform forwards its source's count.
func remaining(src ArrivalSource) int {
	if c, ok := src.(interface{ remaining() int }); ok {
		return c.remaining()
	}
	return -1
}

// Collect drains a source into a Trace (no validation; generators
// emit valid traces by construction and consumers validate on use).
// A materialized trace is its source's jobs, collected. A source that
// knows its length gets a slice sized once, so the trace holds no
// spare capacity and generation copies no job twice.
func Collect(src ArrivalSource) (*Trace, error) {
	tr := &Trace{}
	if n := remaining(src); n > 0 {
		tr.Jobs = make([]Job, 0, n)
	}
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// StreamNDJSON drains a source to w as newline-delimited JSON — one
// compact Job object per line, the bytes json.Encoder would write,
// produced by AppendJob into one reused buffer — accumulating
// TraceStats online so a million-job trace is written without ever
// holding a []Job.
func StreamNDJSON(src ArrivalSource, w io.Writer) (TraceStats, error) {
	bw := bufio.NewWriter(w)
	var line []byte
	var st TraceStats
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		var err error
		if line, err = AppendJob(line[:0], &j); err == nil {
			line = append(line, '\n')
			_, err = bw.Write(line)
		}
		if err != nil {
			return st, fmt.Errorf("workload: encoding job %d: %w", j.ID, err)
		}
		st.add(&j)
	}
	if err := src.Err(); err != nil {
		return st, err
	}
	st.finish()
	return st, bw.Flush()
}

// NDJSONSource streams jobs back from the newline-delimited form
// written by StreamNDJSON. Arrival ordering is checked as jobs are
// decoded — a non-monotone release fails the source immediately, so a
// corrupt or hand-edited file cannot feed an out-of-order sequence to
// the engine or the fleet router. Other per-job validity is the
// consumer's business (the engine's stream injector validates
// incrementally).
type NDJSONSource struct {
	// One object per line, decoded by the reflection-free fast path
	// with a per-line json.Unmarshal fallback (which owns all error
	// and acceptance semantics), reading through br with line as the
	// reused scratch for lines longer than br's buffer.
	br   *bufio.Reader
	line []byte
	err  error
	i    int
	last float64
}

// NewNDJSONSource reads one Job object per line. Blank lines are
// skipped; anything else on a line must be exactly one JSON object,
// and encoding/json decides what that means (the reflection-free
// fast path only accepts lines the stdlib would accept with the same
// result). Equivalent to NewNDJSONSourceLimited with no limits.
func NewNDJSONSource(r io.Reader) *NDJSONSource {
	return &NDJSONSource{br: bufio.NewReader(r)}
}

// ErrStalled reports that the byte stream feeding a limited
// NDJSONSource failed to produce any bytes within the stall timeout.
var ErrStalled = errors.New("workload: NDJSON byte stream stalled")

// ErrLineTooLong reports a single NDJSON line exceeding the
// configured byte limit.
var ErrLineTooLong = errors.New("workload: NDJSON line exceeds the size limit")

// SourceLimits guards the byte stream feeding an NDJSONSource. A
// streaming run pulls jobs on the engine goroutine, so with no guard
// a stalled or malicious byte stream — a client that stops sending
// mid-line, or one enormous line — wedges the whole run (or buffers
// without bound). Zero values disable the corresponding guard.
type SourceLimits struct {
	// MaxLineBytes bounds the bytes between consecutive newlines.
	MaxLineBytes int
	// Stall bounds how long a single read of the underlying stream
	// may block before the source fails with ErrStalled.
	Stall time.Duration
}

// NewNDJSONSourceLimited is the guarded variant of NewNDJSONSource:
// reads that exceed lim.Stall fail the source with ErrStalled, and a
// line longer than lim.MaxLineBytes fails it with ErrLineTooLong
// (both via errors.Is on Err). Decoding is identical to the plain
// source — line framing is what the limits are defined over. The
// stall guard pumps the underlying reader on its own goroutine;
// after a stall that goroutine exits as soon as the abandoned read
// returns, so callers should close the underlying reader (an HTTP
// server closes request bodies when the handler returns).
func NewNDJSONSourceLimited(r io.Reader, lim SourceLimits) *NDJSONSource {
	if lim.Stall > 0 {
		r = newStallReader(r, lim.Stall)
	}
	if lim.MaxLineBytes > 0 {
		r = &lineLimitReader{r: r, max: lim.MaxLineBytes}
	}
	return &NDJSONSource{br: bufio.NewReader(r)}
}

// lineLimitReader fails with ErrLineTooLong once it has passed
// through more than max bytes without seeing a newline.
type lineLimitReader struct {
	r   io.Reader
	max int
	run int // bytes since the last newline
	err error
}

func (l *lineLimitReader) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	n, err := l.r.Read(p)
	// Walk newline-delimited segments with IndexByte instead of a
	// per-byte loop: this guard sits on the daemon's hot admission
	// path and scans every submitted byte.
	rest := p[:n]
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			if l.run += len(rest); l.run > l.max {
				break
			}
			return n, err
		}
		if l.run+i > l.max {
			break
		}
		l.run = 0
		rest = rest[i+1:]
	}
	l.err = fmt.Errorf("workload: NDJSON line longer than %d bytes: %w", l.max, ErrLineTooLong)
	// Surface the bytes read so far so the decoder's position
	// bookkeeping stays meaningful, then fail the next read.
	return n, l.err
}

// stallReader moves the underlying reads onto a pump goroutine so the
// consumer can bound how long any single read may take. The pump owns
// per-chunk buffers (a copy per read) — acceptable overhead for a
// guard whose job is protecting a long-lived daemon from dead peers.
type stallReader struct {
	timeout  time.Duration
	chunks   chan stallChunk
	leftover []byte
	err      error
}

type stallChunk struct {
	data []byte
	err  error
}

func newStallReader(r io.Reader, timeout time.Duration) *stallReader {
	s := &stallReader{timeout: timeout, chunks: make(chan stallChunk, 4)}
	go func() {
		for {
			buf := make([]byte, 16*1024)
			n, err := r.Read(buf)
			s.chunks <- stallChunk{data: buf[:n], err: err}
			if err != nil {
				close(s.chunks)
				return
			}
		}
	}()
	return s
}

func (s *stallReader) Read(p []byte) (int, error) {
	if len(s.leftover) > 0 {
		n := copy(p, s.leftover)
		s.leftover = s.leftover[n:]
		return n, nil
	}
	if s.err != nil {
		return 0, s.err
	}
	t := time.NewTimer(s.timeout)
	defer t.Stop()
	select {
	case c, ok := <-s.chunks:
		if !ok {
			s.err = io.EOF
			return 0, s.err
		}
		n := copy(p, c.data)
		s.leftover = c.data[n:]
		if c.err != nil && len(s.leftover) == 0 {
			s.err = c.err
		}
		if n == 0 && c.err != nil {
			return 0, c.err
		}
		return n, nil
	case <-t.C:
		s.err = fmt.Errorf("workload: no bytes within %v: %w", s.timeout, ErrStalled)
		return 0, s.err
	}
}

// readLine returns the next non-blank line (newline stripped) in
// line mode, reusing s.line as scratch when a line outgrows the
// bufio buffer. A final unterminated line before EOF still counts.
func (s *NDJSONSource) readLine() ([]byte, error) {
	for {
		s.line = s.line[:0]
		var out []byte
		for {
			frag, err := s.br.ReadSlice('\n')
			if err == nil {
				if len(s.line) == 0 {
					out = frag[:len(frag)-1] // hot path: no copy
					break
				}
				s.line = append(s.line, frag[:len(frag)-1]...)
				out = s.line
				break
			}
			if err == bufio.ErrBufferFull {
				s.line = append(s.line, frag...)
				continue
			}
			s.line = append(s.line, frag...)
			if err == io.EOF && len(s.line) > 0 {
				out = s.line
				break
			}
			return nil, err
		}
		blank := true
		for _, c := range out {
			if c != ' ' && c != '\t' && c != '\r' {
				blank = false
				break
			}
		}
		if !blank {
			return out, nil
		}
	}
}

func (s *NDJSONSource) Next() (Job, bool) {
	if s.err != nil {
		return Job{}, false
	}
	var j Job
	line, err := s.readLine()
	if err != nil {
		if err != io.EOF {
			s.err = fmt.Errorf("workload: decoding NDJSON job %d: %w", s.i, err)
		}
		return Job{}, false
	}
	// The slow path lives in its own function so that only its Job
	// escapes (encoding/json takes the address through an interface);
	// the fast path's j stays on the stack, which is what makes the
	// warm admission path allocation-free.
	if !fastParseJob(line, &j) {
		var ok bool
		if j, ok = s.slowParseLine(line); !ok {
			return Job{}, false
		}
	}
	if s.i > 0 && j.Release < s.last {
		s.err = fmt.Errorf("workload: NDJSON job %d arrives at %v, before its predecessor at %v (releases must be non-decreasing)", s.i, j.Release, s.last)
		return Job{}, false
	}
	s.last = j.Release
	s.i++
	return j, true
}

// slowParseLine is the strict-parser fallback: encoding/json owns the
// acceptance and error semantics for every line the fast parser
// declines (escapes, unusual number spellings, unknown fields,
// malformed input).
func (s *NDJSONSource) slowParseLine(line []byte) (Job, bool) {
	var j Job
	if err := json.Unmarshal(line, &j); err != nil {
		s.err = fmt.Errorf("workload: decoding NDJSON job %d: %w", s.i, err)
		return Job{}, false
	}
	return j, true
}

func (s *NDJSONSource) Err() error { return s.err }
