package treesched_test

import (
	"runtime"
	"testing"
	"unsafe"

	"treesched"
)

// The constant-memory property of the streaming pipeline: under
// bounded retention a streamed run's peak heap does not grow with the
// job count. A million jobs must stay under a fixed ceiling, generous
// against GC pacing yet far below what materializing them would take,
// and within twice the peak of a run ten times shorter.
func TestStreamPeakHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1.1M jobs")
	}
	const ceiling = 64 << 20
	small := streamPeakHeap(t, 100_000)
	big := streamPeakHeap(t, 1_000_000)
	t.Logf("peak heap %d B at 100k jobs, %d B at 1M jobs", small, big)
	if big > ceiling {
		t.Errorf("1M-job peak heap %d B exceeds the %d B ceiling", big, ceiling)
	}
	if big > 2*small {
		t.Errorf("peak heap grew %.2fx from 100k to 1M jobs (limit 2x)", float64(big)/float64(small))
	}
}

// heapProbe passes an arrival stream through unchanged, sampling the
// heap every 32,768 jobs and keeping the peak.
type heapProbe struct {
	src  treesched.ArrivalSource
	n    int
	peak uint64
}

func (p *heapProbe) Next() (treesched.Job, bool) {
	j, ok := p.src.Next()
	if ok {
		if p.n++; p.n%32768 == 0 {
			p.sample()
		}
	}
	return j, ok
}

func (p *heapProbe) Err() error { return p.src.Err() }

func (p *heapProbe) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.peak = max(p.peak, ms.HeapAlloc)
}

// streamPeakHeap streams jobs Poisson arrivals at load 0.95 through
// greedy dispatch under bounded retention and returns the peak heap.
// The tree runs at speed 1.5 so the load is stable: an overloaded
// tree's backlog of live tasks grows with the job count however
// completions are recycled.
func streamPeakHeap(t *testing.T, jobs int) uint64 {
	t.Helper()
	tr := treesched.FatTree(2, 2, 2).WithUniformSpeed(1.5)
	src, err := treesched.PoissonSource(48, jobs, 0.95, tr)
	if err != nil {
		t.Fatal(err)
	}
	probe := &heapProbe{src: src}
	runtime.GC()
	probe.sample()
	res, err := treesched.RunStream(tr, probe, treesched.NewGreedyIdentical(0.5), treesched.Options{RetainJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != jobs {
		t.Fatalf("streamed run completed %d of %d jobs", res.Stats.Completed, jobs)
	}
	probe.sample()
	return probe.peak
}

// A materialized run holds each job and each per-job record once: the
// built trace shares the scenario's inline jobs, and a Result's Jobs is
// the engine's record buffer, handed over rather than copied. A
// scenario of 200,000 inline jobs in sim-deep's shape (benchmark/), run
// cold and then warm on one ScenarioRunner with only the last Result
// kept, may hold at most 1.25 × (sizeof Job + sizeof JobMetrics) =
// 1.25 × (64 + 56) B per job of live heap above the heap measured
// before the jobs existed. A Build that copies the trace and a Result
// that copies the records would hold about 257 B per job.
func TestMaterializedHeapOneCopyPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 400k jobs")
	}
	const jobs = 200_000
	base := liveHeap()
	sc, err := treesched.ParseScenario([]byte("topo=fattree:2,5,1 speed=1.5 assigner=roundrobin faults=brownouts:20,50,0.5"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := treesched.PoissonTrace(3, jobs, 0.95, treesched.FatTree(2, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 3
	sc.Workload.Jobs = tr.Jobs
	r, err := treesched.NewScenarioRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	cold := res.Stats
	if res, err = r.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Stats != cold || res.Stats.Completed != jobs {
		t.Fatalf("warm run %+v, cold run %+v", res.Stats, cold)
	}
	perJob := float64(liveHeap()-base) / jobs
	runtime.KeepAlive(r)
	runtime.KeepAlive(res)
	limit := 1.25 * float64(unsafe.Sizeof(treesched.Job{})+unsafe.Sizeof(treesched.JobMetrics{}))
	t.Logf("live heap %.1f B per job (limit %.1f)", perJob, limit)
	if perJob > limit {
		t.Errorf("a built scenario and its last Result hold %.1f B per job, want at most %.1f", perJob, limit)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
