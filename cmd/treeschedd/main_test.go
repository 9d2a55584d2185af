package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/server"
	"treesched/internal/workload"
)

// startDaemon launches run() with an OS-assigned port and waits for
// the bound address, returning the base URL and the exit-code
// channel.
func startDaemon(t *testing.T, extra ...string) (string, chan int, *bytes.Buffer) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	var out, errb bytes.Buffer
	args := append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	code := make(chan int, 1)
	go func() { code <- run(args, &out, &errb) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return "http://" + strings.TrimSpace(string(b)), code, &errb
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address; stderr: %s", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	base, code, errb := startDaemon(t)
	cl := &server.Client{Base: base}
	ctx := context.Background()

	jobs := make([]workload.Job, 50)
	for i := range jobs {
		jobs[i] = workload.Job{Release: float64(i) * 0.5, Size: float64(1 + i%7)}
	}
	res, err := cl.Submit(ctx, jobs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Accepted != len(jobs) {
		t.Fatalf("accepted %d of %d", res.Accepted, len(jobs))
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Accepted != len(jobs) {
		t.Fatalf("stats accepted = %d, want %d", st.Accepted, len(jobs))
	}
	final, err := cl.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if final.Completed != len(jobs) {
		t.Fatalf("drained %d of %d jobs", final.Completed, len(jobs))
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("exit code %d, stderr: %s", c, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after drain; stderr: %s", errb.String())
	}
}

func TestDaemonScenarioFile(t *testing.T) {
	dir := t.TempDir()
	scFile := filepath.Join(dir, "serve.txt")
	if err := os.WriteFile(scFile, []byte("topo=star:4 policy=srpt serve\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, code, errb := startDaemon(t, "-scenario", scFile)
	cl := &server.Client{Base: base}
	ctx := context.Background()
	if _, err := cl.Submit(ctx, []workload.Job{{Release: 0, Size: 2}}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cl.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit code %d, stderr: %s", c, errb.String())
	}
}

func TestDaemonRejectsOfflineScenarioFile(t *testing.T) {
	dir := t.TempDir()
	scFile := filepath.Join(dir, "offline.txt")
	if err := os.WriteFile(scFile, []byte("topo=star:4 n=10 size=uniform:1,4 load=0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if c := run([]string{"-scenario", scFile, "-listen", "127.0.0.1:0"}, &out, &errb); c != 1 {
		t.Fatalf("exit code %d for an offline scenario, want 1; stderr: %s", c, errb.String())
	}
	if !strings.Contains(errb.String(), "serve") {
		t.Fatalf("error does not mention serve mode: %s", errb.String())
	}
}

// syncBuf is a locked buffer for output the test reads while the
// daemon goroutine is still writing.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestDaemonPprofFlag(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	var out, errb syncBuf
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-listen", "127.0.0.1:0", "-addr-file", addrFile,
			"-pprof", "127.0.0.1:0",
		}, &out, &errb)
	}()

	// The pprof address is OS-assigned; scrape it from the startup log.
	var pprofBase string
	deadline := time.Now().Add(10 * time.Second)
	for pprofBase == "" {
		s := out.String()
		if i := strings.Index(s, "pprof on http://"); i >= 0 {
			rest := s[i+len("pprof on http://"):]
			if j := strings.Index(rest, "/debug/pprof/"); j >= 0 {
				pprofBase = "http://" + rest[:j]
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced the pprof listener; stdout: %s stderr: %s", out.String(), errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(pprofBase + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d, want 200", resp.StatusCode)
	}

	// The profiling surface must not leak onto the serving address.
	b, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	mainBase := "http://" + strings.TrimSpace(string(b))
	resp, err = http.Get(mainBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof handlers exposed on the serving address")
	}

	cl := &server.Client{Base: mainBase}
	if _, err := cl.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit code %d, stderr: %s", c, errb.String())
	}
}

// A negative setting fails at startup, naming the field, instead of
// starting a daemon that misreads it.
func TestDaemonRejectsNegativeSetting(t *testing.T) {
	var out, errb bytes.Buffer
	code := make(chan int, 1)
	go func() { code <- run([]string{"-listen", "127.0.0.1:0", "-stall-timeout", "-1s"}, &out, &errb) }()
	select {
	case c := <-code:
		if c != 1 {
			t.Fatalf("exit code %d for -stall-timeout -1s, want 1; stderr: %s", c, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon started with -stall-timeout -1s")
	}
	if want := "treeschedd: server: config.StallTimeout is -1s, want >= 0\n"; errb.String() != want {
		t.Fatalf("stderr %q, want %q", errb.String(), want)
	}
}

func TestDaemonFlagError(t *testing.T) {
	var out, errb bytes.Buffer
	if c := run([]string{"-bogus"}, &out, &errb); c != 2 {
		t.Fatalf("exit code %d for a flag error, want 2", c)
	}
}
