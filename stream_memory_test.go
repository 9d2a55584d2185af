package treesched_test

import (
	"runtime"
	"testing"

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
