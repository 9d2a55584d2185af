// Package workload defines the job model of the tree network
// scheduling problem and generators for the arrival/size processes
// used by the experiments: Poisson and bursty arrivals, uniform,
// bimodal, Pareto-tailed and class-rounded size distributions, and
// unrelated-endpoint per-leaf processing times. Traces serialize to
// JSON for record/replay.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"treesched/internal/rng"
)

// Job is a unit of work arriving online at the root of the network.
type Job struct {
	// ID is a dense index, unique within a trace, used to break ties.
	ID int
	// Release is the arrival time r_j at the root.
	Release float64
	// Size is p_j: the processing requirement on every router, and on
	// every leaf too in the identical setting.
	Size float64
	// LeafSizes, when non-nil, holds p_{j,v} for every leaf machine,
	// indexed by the tree's leaf index (unrelated endpoint setting).
	// When nil the job is identical: every leaf needs Size.
	LeafSizes []float64
	// Weight is the job's importance for the weighted flow-time
	// objective (zero means 1). The paper studies the unweighted
	// objective; weights power the X3 extension experiment.
	Weight float64
	// Origin optionally names a non-root release node for the
	// arbitrary-origin extension (experiment X1). Zero means the root.
	Origin int32
}

// LeafSize returns the processing requirement of the job on the leaf
// with the given leaf index.
func (j *Job) LeafSize(leafIndex int) float64 {
	if j.LeafSizes == nil {
		return j.Size
	}
	return j.LeafSizes[leafIndex]
}

// Unrelated reports whether the job carries per-leaf sizes.
func (j *Job) Unrelated() bool { return j.LeafSizes != nil }

// AssignWeights draws integer weights in [1, maxWeight] for every job
// in the trace (the weighted flow-time extension).
func AssignWeights(r *rng.Rand, tr *Trace, maxWeight int) {
	if maxWeight < 1 {
		panic("workload: AssignWeights needs maxWeight >= 1")
	}
	for i := range tr.Jobs {
		tr.Jobs[i].Weight = float64(1 + r.Intn(maxWeight))
	}
}

// MaxSize is the largest job size, router or leaf, that Validate
// accepts: 2^53, the range in which float64 holds every integer. A
// size near math.MaxFloat64 would carry the engine clock past it.
const MaxSize = 1 << 53

// Validate checks that the job is well formed: positive sizes of at
// most MaxSize, a finite non-negative release and a finite weight.
func (j *Job) Validate() error {
	if !finite(j.Size) {
		return fmt.Errorf("workload: job %d has non-finite size %v", j.ID, j.Size)
	}
	if j.Size <= 0 {
		return fmt.Errorf("workload: job %d has non-positive size %v", j.ID, j.Size)
	}
	if j.Size > MaxSize {
		return fmt.Errorf("workload: job %d has size %v above MaxSize 2^53", j.ID, j.Size)
	}
	if j.Release < 0 || !finite(j.Release) {
		return fmt.Errorf("workload: job %d has invalid release %v", j.ID, j.Release)
	}
	for li, s := range j.LeafSizes {
		if !finite(s) {
			return fmt.Errorf("workload: job %d has non-finite size %v on leaf index %d", j.ID, s, li)
		}
		if s <= 0 {
			return fmt.Errorf("workload: job %d has non-positive size %v on leaf index %d", j.ID, s, li)
		}
		if s > MaxSize {
			return fmt.Errorf("workload: job %d has size %v above MaxSize 2^53 on leaf index %d", j.ID, s, li)
		}
	}
	if !finite(j.Weight) {
		return fmt.Errorf("workload: job %d has non-finite weight %v", j.ID, j.Weight)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf. NaN fails every
// comparison, so a check like x <= 0 alone lets it through.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Trace is an ordered job sequence (ascending release times).
type Trace struct {
	Jobs []Job
}

// Validate checks ordering, ID density and per-job validity.
func (tr *Trace) Validate() error {
	prev := 0.0
	for i := range tr.Jobs {
		if err := tr.Jobs[i].ValidateAt(i, prev); err != nil {
			return err
		}
		prev = tr.Jobs[i].Release
	}
	return nil
}

// ValidateAt makes Trace.Validate's checks of j as the job at position
// pos of a trace whose previous job was released at prev (0 for the
// first): a dense ID, per-job validity, and a sorted release. Streaming
// consumers apply it to each job as they draw it.
func (j *Job) ValidateAt(pos int, prev float64) error {
	if j.ID != pos {
		return fmt.Errorf("workload: job at position %d has ID %d (IDs must be dense)", pos, j.ID)
	}
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Release < prev {
		return fmt.Errorf("workload: releases not sorted at position %d", pos)
	}
	return nil
}

// TotalWork returns the sum of router sizes of all jobs.
func (tr *Trace) TotalWork() float64 {
	var s float64
	for i := range tr.Jobs {
		s += tr.Jobs[i].Size
	}
	return s
}

// Span returns the release time of the last job (0 for empty traces).
func (tr *Trace) Span() float64 {
	if len(tr.Jobs) == 0 {
		return 0
	}
	return tr.Jobs[len(tr.Jobs)-1].Release
}

// WriteJSON serializes the trace.
func (tr *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tr)
}

// ReadJSON parses a trace previously written with WriteJSON and
// validates it. Keys other than Jobs are ignored, so files that still
// carry the Meta object older versions wrote load unchanged.
func ReadJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}

// SizeDist draws job sizes.
type SizeDist interface {
	Sample(r *rng.Rand) float64
	// Mean returns the distribution's expectation, used to calibrate
	// arrival rates to a target load factor.
	Mean() float64
	Name() string
}

// UniformSize draws sizes uniformly from [Lo, Hi).
type UniformSize struct{ Lo, Hi float64 }

func (u UniformSize) Sample(r *rng.Rand) float64 { return r.Range(u.Lo, u.Hi) }
func (u UniformSize) Mean() float64              { return (u.Lo + u.Hi) / 2 }
func (u UniformSize) Name() string               { return fmt.Sprintf("uniform[%g,%g)", u.Lo, u.Hi) }

// BimodalSize mixes small and large jobs: with probability PBig the
// size is Big, otherwise Small. This is the classic elephants-and-mice
// traffic mix of data center workloads.
type BimodalSize struct {
	Small, Big float64
	PBig       float64
}

func (b BimodalSize) Sample(r *rng.Rand) float64 {
	if r.Bool(b.PBig) {
		return b.Big
	}
	return b.Small
}
func (b BimodalSize) Mean() float64 { return b.PBig*b.Big + (1-b.PBig)*b.Small }
func (b BimodalSize) Name() string {
	return fmt.Sprintf("bimodal(%g|%g,p=%g)", b.Small, b.Big, b.PBig)
}

// ParetoSize draws heavy-tailed sizes, truncated at Cap to keep
// simulations finite. Alpha in (1,2] gives finite mean, infinite-ish
// variance — the regime where size-aware policies matter most.
type ParetoSize struct {
	Min, Alpha, Cap float64
}

func (p ParetoSize) Sample(r *rng.Rand) float64 {
	v := r.Pareto(p.Min, p.Alpha)
	if p.Cap > 0 && v > p.Cap {
		v = p.Cap
	}
	return v
}

func (p ParetoSize) Mean() float64 {
	if p.Alpha <= 1 {
		return p.Cap // truncated mean dominated by the cap
	}
	m := p.Min * p.Alpha / (p.Alpha - 1)
	if p.Cap > 0 && m > p.Cap {
		m = p.Cap
	}
	return m
}
func (p ParetoSize) Name() string { return fmt.Sprintf("pareto(min=%g,a=%g)", p.Min, p.Alpha) }

// ClassRounded wraps a distribution and rounds every sample up to the
// nearest power of (1+Eps), matching the paper's WLOG assumption that
// job sizes are powers of (1+ε). The Lemma validators require this.
type ClassRounded struct {
	Base SizeDist
	Eps  float64
}

func (c ClassRounded) Sample(r *rng.Rand) float64 {
	return RoundToClass(c.Base.Sample(r), c.Eps)
}
func (c ClassRounded) Mean() float64 { return c.Base.Mean() } // approximation; within (1+Eps)
func (c ClassRounded) Name() string  { return fmt.Sprintf("class(%s,eps=%g)", c.Base.Name(), c.Eps) }

// RoundToClass rounds size up to its class value: math.Pow(1+eps, k)
// for the least integer k with Pow(1+eps, k) ≥ size. A class value
// maps to itself, so rounding is idempotent. The ceiling of the log
// ratio x is that k unless x lies within float error above the integer
// below it, as it can for a class value; only then is that class
// tried first, so a size off every class boundary costs one Pow.
func RoundToClass(size, eps float64) float64 {
	if size <= 0 {
		panic("workload: RoundToClass of non-positive size")
	}
	if eps <= 0 {
		panic("workload: RoundToClass with non-positive eps")
	}
	if 1+eps == 1 {
		// Every class would be 1: the search below could never reach a
		// size above 1.
		panic("workload: RoundToClass with eps so small that 1+eps == 1")
	}
	x := math.Log(size) / math.Log(1+eps)
	k := math.Ceil(x)
	if k-x >= 1-classRatioTol*(1+math.Abs(x)) {
		k--
	}
	v := math.Pow(1+eps, k)
	for v < size {
		k++
		v = math.Pow(1+eps, k)
	}
	return v
}

// classRatioTol is RoundToClass's relative allowance for float error in
// the log ratio: far above the few ulps of the two logs and the
// division, and of Pow's error mapped back through the log, for eps
// down to MinClassEps.
const classRatioTol = 1e-9

// MinClassEps is the smallest class ε that RoundToClass's float
// analysis covers (classRatioTol); scenarios reject a smaller one.
const MinClassEps = 1e-6

// ClassOf returns the class index k with (1+eps)^k == size (rounded).
func ClassOf(size, eps float64) int {
	return int(math.Round(math.Log(size) / math.Log(1+eps)))
}

// GenConfig configures the trace generators.
type GenConfig struct {
	N    int      // number of jobs
	Size SizeDist // router size distribution
	// Load is the target utilization of the most contended resource.
	// For Poisson generation, the arrival rate is calibrated as
	// Load*Capacity/E[Size] where Capacity is supplied by the caller
	// (e.g. number of root branches for trees, 1 for a line).
	Load     float64
	Capacity float64
	// SizeRand, when non-nil, is the stream size samples draw from,
	// leaving the main generator stream to the arrival process alone
	// (the partitioned-RNG discipline: adding a size draw cannot shift
	// an interarrival draw). Nil interleaves sizes and arrivals on the
	// one main stream — the legacy single-stream order.
	SizeRand *rng.Rand
}

// sizeRand returns the stream size samples draw from: SizeRand when
// set, otherwise the main stream r.
func (c *GenConfig) sizeRand(r *rng.Rand) *rng.Rand {
	if c.SizeRand != nil {
		return c.SizeRand
	}
	return r
}

func (c *GenConfig) validate() error {
	if c.N <= 0 {
		return errors.New("workload: N must be positive")
	}
	if c.Size == nil {
		return errors.New("workload: Size distribution required")
	}
	if c.Load <= 0 {
		return errors.New("workload: Load must be positive")
	}
	if c.Capacity <= 0 {
		c.Capacity = 1
	}
	return nil
}

// Poisson generates N jobs with exponential interarrival times
// calibrated so that the offered load on a capacity-Capacity resource
// is Load. Release times are strictly increasing (paper WLOG: all
// arrivals distinct). It is PoissonSource's jobs, collected.
func Poisson(r *rng.Rand, cfg GenConfig) (*Trace, error) {
	src, err := NewPoissonSource(r, cfg)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

// Bursty generates jobs in bursts: burst starts form a Poisson process
// and each burst releases BurstLen jobs back-to-back (separated by a
// tiny jitter to keep arrival times distinct). This stresses the
// congestion-awareness of assignment policies. It is BurstySource's
// jobs, collected.
func Bursty(r *rng.Rand, cfg GenConfig, burstLen int) (*Trace, error) {
	src, err := NewBurstySource(r, cfg, burstLen)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

// Adversarial generates the pattern that separates congestion-aware
// assignment from proximity-based assignment: a steady trickle of
// large jobs plus periodic floods of small jobs, all of which conflict
// on the same root branch if assigned naively. The pattern draws
// nothing from r. It is AdversarialSource's jobs, collected.
func Adversarial(r *rng.Rand, n int, bigSize float64) *Trace {
	tr, _ := Collect(NewAdversarialSource(n, bigSize)) // the source never fails
	return tr
}

// UnrelatedConfig controls per-leaf processing time generation.
type UnrelatedConfig struct {
	Leaves int
	// SpeedRange draws an affinity factor f in [Lo,Hi); the leaf size
	// is Size*f. Hi/Lo therefore bounds how "unrelated" machines are.
	Lo, Hi float64
	// PInfeasible is the probability that a leaf is effectively
	// incompatible with the job: its size is multiplied by Penalty.
	PInfeasible float64
	Penalty     float64
}

// MakeUnrelated fills in per-leaf sizes for every job in the trace,
// mutating it. Identical traces become unrelated-endpoint traces.
func MakeUnrelated(r *rng.Rand, tr *Trace, cfg UnrelatedConfig) error {
	if cfg.Leaves <= 0 {
		return errors.New("workload: UnrelatedConfig.Leaves must be positive")
	}
	if cfg.Lo <= 0 || cfg.Hi <= cfg.Lo {
		return errors.New("workload: UnrelatedConfig requires 0 < Lo < Hi")
	}
	if cfg.Penalty == 0 {
		cfg.Penalty = 10
	}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		j.LeafSizes = make([]float64, cfg.Leaves)
		for li := range j.LeafSizes {
			f := r.Range(cfg.Lo, cfg.Hi)
			if cfg.PInfeasible > 0 && r.Bool(cfg.PInfeasible) {
				f *= cfg.Penalty
			}
			j.LeafSizes[li] = j.Size * f
		}
	}
	return nil
}

// MakeRelated fills per-leaf sizes from fixed machine speeds: leaf i
// processes every job at speed leafSpeeds[i], so p_{j,i} = p_j/s_i —
// the related machines model of the paper's introduction, expressed
// as a special case of unrelated endpoints.
func MakeRelated(tr *Trace, leafSpeeds []float64) error {
	if err := checkSpeeds(leafSpeeds); err != nil {
		return err
	}
	for i := range tr.Jobs {
		relate(&tr.Jobs[i], leafSpeeds)
	}
	return nil
}

// checkSpeeds is MakeRelated's and NewRelatedSource's check of the
// leaf speeds: at least one, every one positive.
func checkSpeeds(leafSpeeds []float64) error {
	if len(leafSpeeds) == 0 {
		return errors.New("workload: MakeRelated needs at least one leaf speed")
	}
	for _, s := range leafSpeeds {
		if s <= 0 {
			return fmt.Errorf("workload: non-positive leaf speed %v", s)
		}
	}
	return nil
}

// relate gives j the related-machine leaf sizes p_j/s_i.
func relate(j *Job, leafSpeeds []float64) {
	j.LeafSizes = make([]float64, len(leafSpeeds))
	for li, s := range leafSpeeds {
		j.LeafSizes[li] = j.Size / s
	}
}

// RoundTraceToClasses rounds every size in the trace (router and leaf)
// up to powers of (1+eps), in place.
func RoundTraceToClasses(tr *Trace, eps float64) {
	for i := range tr.Jobs {
		roundJob(&tr.Jobs[i], eps)
	}
}

// roundJob rounds j's router and leaf sizes up to powers of (1+eps).
func roundJob(j *Job, eps float64) {
	j.Size = RoundToClass(j.Size, eps)
	for li := range j.LeafSizes {
		j.LeafSizes[li] = RoundToClass(j.LeafSizes[li], eps)
	}
}

// TraceStats summarizes a trace's shape for logging and sanity
// checks.
type TraceStats struct {
	Jobs          int
	TotalWork     float64
	Span          float64
	MeanSize      float64
	MaxSize       float64
	MeanInterval  float64
	Unrelated     bool
	Weighted      bool
	OfferedPerSec float64 // TotalWork / Span
}

// Stats computes TraceStats.
func (tr *Trace) Stats() TraceStats {
	var st TraceStats
	for i := range tr.Jobs {
		st.add(&tr.Jobs[i])
	}
	st.finish()
	return st
}

// add folds one job, the next in release order, into the running
// stats; finish derives the means once every job is in. Stats and
// StreamNDJSON share the fold, so a trace and its stream summarize
// bit for bit alike.
func (st *TraceStats) add(j *Job) {
	st.Jobs++
	st.TotalWork += j.Size
	st.MeanSize += j.Size
	if j.Size > st.MaxSize {
		st.MaxSize = j.Size
	}
	st.Span = j.Release // releases are sorted: the last one is the span
	if j.LeafSizes != nil {
		st.Unrelated = true
	}
	if j.Weight > 0 && j.Weight != 1 {
		st.Weighted = true
	}
}

func (st *TraceStats) finish() {
	if st.Jobs > 0 {
		st.MeanSize /= float64(st.Jobs)
	}
	if st.Jobs > 1 {
		st.MeanInterval = st.Span / float64(st.Jobs-1)
	}
	if st.Span > 0 {
		st.OfferedPerSec = st.TotalWork / st.Span
	}
}
