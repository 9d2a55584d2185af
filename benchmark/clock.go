package main

import "time"

// The shared host's cores change clock in steps of about 4%, up to 12%
// in all, and hold a step for seconds to minutes; a chain of dependent
// multiplies took 4.29 to 4.83 ms over 90 seconds. An offline run is
// CPU-bound, so its raw slice times followed the clock of the moment:
// the fastest 1% of a run's slices still moved by 12% between runs.
// Offline slices are therefore timed against clockSpin, which touches no
// memory and so tracks the core's clock rather than the memory system,
// and reported at the reference clock. Over four sets of ten runs,
// calm and loaded, sim-wide's latency then spread 1.2-2.7% and
// sim-deep's 1.8-5.5%, where raw slice times had spread 7-10% and once
// 26%.

// clockRefMs is clockSpin's time in milliseconds at the usual clock of
// the 2-vCPU host BENCHMARK.json's bounds were set on (about 3 GHz), so
// a scaled slice reads as it would on that host.
const clockRefMs = 0.080

// clockSink keeps clockSpin's result live.
var clockSink uint64

// clockSpin runs a fixed chain of 40,000 dependent integer steps on
// registers and returns how long it took.
func clockSpin() time.Duration {
	t0 := time.Now()
	x := clockSink | 1
	for i := 0; i < 40_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	clockSink = x
	return time.Since(t0)
}

// atRefClock scales a slice's time to the reference clock, given the
// clockSpin runs just before and just after it. A spin is only ever
// lengthened by a preemption, so the shorter of the two is the clock.
func atRefClock(slice, before, after time.Duration) float64 {
	return millis(slice) * clockRefMs / millis(min(before, after))
}

// slicer times consecutive slices of an offline loop at the reference
// clock. A clockSpin runs between slices, outside both, and its time is
// counted in spun so that CPU totals can leave it out.
type slicer struct {
	start time.Time
	spin  time.Duration // the last clockSpin
	ms    []float64     // slice times in milliseconds at the reference clock
	spun  time.Duration
}

// begin starts the first slice.
func (s *slicer) begin() {
	s.spin = clockSpin()
	s.spun += s.spin
	s.start = time.Now()
}

// mark ends the current slice and starts the next.
func (s *slicer) mark() {
	slice := time.Since(s.start)
	spin := clockSpin()
	s.ms = append(s.ms, atRefClock(slice, s.spin, spin))
	s.spin = spin
	s.spun += spin
	s.start = time.Now()
}
