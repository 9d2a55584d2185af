package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time all threads of another process have
// run so far, from the scheduler's per-thread nanosecond counters
// (/proc/<pid>/task/*/schedstat). A thread that exits between the
// directory read and its file read is skipped; Go processes keep their
// threads.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, e.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, e.Name(), err)
		}
		total += v
	}
	return time.Duration(total), nil
}

// peakRSSKiB returns a process's resident-set high-water mark (VmHWM)
// in KiB; proc is a pid or "self". (A child's rusage will not do: Go
// starts children with vfork, and exec carries the parent's high-water
// mark into the child's.)
func peakRSSKiB(proc string) (int64, error) {
	b, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM line", proc)
}

// resetPeakRSS hands freed heap back to the kernel and resets this
// process's VmHWM to its current resident set (proc(5), clear_refs), so
// a peak read afterwards covers only what the process does from here
// on, not its set-up.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return f.Close()
}
