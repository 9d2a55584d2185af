package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/rng"
	"treesched/internal/scenario"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

func serveScenario(t *testing.T, compact string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.ParseCompact(compact)
	if err != nil {
		t.Fatalf("ParseCompact(%q): %v", compact, err)
	}
	return sc
}

// startDaemon builds a Server over an httptest listener and returns
// it with a client.
func startDaemon(t *testing.T, cfg Config) (*Server, *Client, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	return srv, &Client{Base: ts.URL}, ts
}

// offlineNDJSON replays trace through sim.RunStream on a fresh build
// of the same serve scenario, returning the per-job NDJSON bytes the
// offline pipeline writes.
func offlineNDJSON(t *testing.T, sc *scenario.Scenario, trace *workload.Trace) []byte {
	t.Helper()
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("offline Build: %v", err)
	}
	var buf bytes.Buffer
	opts := in.Opts
	opts.RetainJobs = 1
	opts.Sink = sim.NewNDJSONSink(&buf)
	if _, err := sim.RunStream(in.Tree, workload.NewTraceSource(trace), in.Assigner, opts); err != nil {
		t.Fatalf("offline RunStream: %v", err)
	}
	return buf.Bytes()
}

// poissonJobs generates a dense release-ordered trace for submission.
func poissonJobs(t *testing.T, n int, load, capacity float64, seed uint64) []workload.Job {
	t.Helper()
	tr, err := workload.Poisson(rng.New(seed), workload.GenConfig{
		N: n, Size: workload.UniformSize{Lo: 1, Hi: 16}, Load: load, Capacity: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Jobs
}

// The determinism contract: jobs accepted by the daemon produce
// per-job NDJSON byte-identical to an offline RunStream of the same
// trace through the same scenario.
func TestCompletionsByteIdentical(t *testing.T) {
	sc := serveScenario(t, "topo=fattree:2,2,2 speed=1.5 policy=srpt serve")
	_, cl, _ := startDaemon(t, Config{Scenario: sc})

	jobs := poissonJobs(t, 400, 0.9, 3, 11)

	stream, err := cl.Completions(context.Background())
	if err != nil {
		t.Fatalf("Completions: %v", err)
	}
	var got bytes.Buffer
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		io.Copy(&got, stream)
	}()

	// Submit in several batches to exercise cross-batch admission.
	for i := 0; i < len(jobs); i += 150 {
		end := i + 150
		if end > len(jobs) {
			end = len(jobs)
		}
		res, err := cl.Submit(context.Background(), jobs[i:end])
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if res.Accepted != end-i || res.Shed != 0 {
			t.Fatalf("batch [%d:%d): accepted %d shed %d", i, end, res.Accepted, res.Shed)
		}
		if res.FirstID != i {
			t.Fatalf("batch [%d:%d): first dense ID %d, want %d", i, end, res.FirstID, i)
		}
	}

	final, err := cl.Drain(context.Background())
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if final.Completed != len(jobs) || final.Accepted != len(jobs) {
		t.Fatalf("drained completed=%d accepted=%d, want %d", final.Completed, final.Accepted, len(jobs))
	}
	if !final.Drained || !final.Draining {
		t.Fatalf("final stats not marked drained: %+v", final)
	}
	rd.Wait()

	want := offlineNDJSON(t, sc, &workload.Trace{Jobs: jobs})
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("daemon completions differ from offline RunStream:\n daemon  %d bytes\n offline %d bytes", got.Len(), len(want))
	}

	// Per-leaf tallies survive into the final stats view.
	var leafJobs int
	for _, lt := range final.PerLeaf {
		leafJobs += lt.Jobs
	}
	if leafJobs != len(jobs) {
		t.Fatalf("per-leaf tallies sum to %d jobs, want %d", leafJobs, len(jobs))
	}
}

// Overload: an unstable offered load must surface as monotone shed
// counts and 429s with Retry-After, with the heap bounded — and the
// accepted subset must still drain cleanly and replay byte-identically
// offline.
func TestOverloadShedsAndDrainsClean(t *testing.T) {
	// Speed-1 fattree: root capacity 2. Unit jobs every 0.1 time
	// units offer rate 10 — hopelessly unstable.
	sc := serveScenario(t, "topo=fattree:2,2,2 serve")
	srv, cl, _ := startDaemon(t, Config{Scenario: sc, ShedBacklog: 20})

	mkBatch := func(start int, n int) []workload.Job {
		jobs := make([]workload.Job, n)
		for i := range jobs {
			jobs[i] = workload.Job{ID: i, Release: float64(start+i) * 0.1, Size: 1}
		}
		return jobs
	}

	var accepted []workload.Job
	sawShed := false
	prevShed := 0
	// Collect earlier tests' garbage so the peak is this daemon's.
	runtime.GC()
	var peak uint64
	for b := 0; b < 10; b++ {
		batch := mkBatch(b*20, 20)
		res, err := cl.Submit(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		accepted = append(accepted, batch[:res.Accepted]...)
		if res.Shed > 0 {
			sawShed = true
		}
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if st.Shed < prevShed {
			t.Fatalf("shed count went backwards: %d -> %d", prevShed, st.Shed)
		}
		prevShed = st.Shed
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	if !sawShed {
		t.Fatal("unstable load never shed")
	}
	t.Logf("peak heap %d B under overload", peak)
	if peak > 64<<20 {
		t.Fatalf("peak heap %d B under overload exceeds the 64 MiB ceiling", peak)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Stable {
		t.Fatalf("offered rate 5x capacity reported stable: %+v", st)
	}
	if st.Shedding != true {
		t.Fatalf("not in shedding state under sustained overload: %+v", st)
	}

	// A quiet period (much later release) drains the fluid backlog
	// below the hysteresis floor and admission reopens.
	late := []workload.Job{{Release: 1000, Size: 1}}
	res, err := cl.Submit(context.Background(), late)
	if err != nil {
		t.Fatalf("late submit: %v", err)
	}
	if res.Accepted != 1 {
		t.Fatalf("admission did not reopen after the backlog drained: %+v", res)
	}
	accepted = append(accepted, late...)

	final, err := cl.Drain(context.Background())
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if final.Completed != len(accepted) || final.Accepted != len(accepted) {
		t.Fatalf("drain completed=%d accepted=%d, want %d (every accepted job, no shed job)",
			final.Completed, final.Accepted, len(accepted))
	}
	if final.Shed == 0 {
		t.Fatal("final stats lost the shed count")
	}
	_ = srv

	// The accepted subset, re-IDed densely, replays byte-identically.
	dense := make([]workload.Job, len(accepted))
	copy(dense, accepted)
	for i := range dense {
		dense[i].ID = i
	}
	// Collect the daemon's lines post-hoc via a second identical run:
	// here we just pin the offline replay completes with the same
	// count — byte identity itself is pinned by the test above and by
	// TestShedRunByteIdentical below.
	want := offlineNDJSON(t, sc, &workload.Trace{Jobs: dense})
	if n := bytes.Count(want, []byte("\n")); n != len(accepted) {
		t.Fatalf("offline replay of the accepted subset completed %d jobs, want %d", n, len(accepted))
	}
}

// The shed run's accepted subset must replay byte-identically: this
// run subscribes to completions while shedding is happening.
func TestShedRunByteIdentical(t *testing.T) {
	sc := serveScenario(t, "topo=fattree:2,2,2 serve")
	_, cl, _ := startDaemon(t, Config{Scenario: sc, ShedBacklog: 10, SubscriberBuffer: 4096})

	stream, err := cl.Completions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		io.Copy(&got, stream)
	}()

	var accepted []workload.Job
	for b := 0; b < 8; b++ {
		batch := make([]workload.Job, 25)
		for i := range batch {
			batch[i] = workload.Job{Release: float64(b*25+i) * 0.05, Size: 2}
		}
		res, err := cl.Submit(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		accepted = append(accepted, batch[:res.Accepted]...)
	}
	if len(accepted) == 0 || len(accepted) == 8*25 {
		t.Fatalf("want a proper accepted subset, got %d of %d", len(accepted), 8*25)
	}
	if _, err := cl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rd.Wait()

	dense := make([]workload.Job, len(accepted))
	copy(dense, accepted)
	for i := range dense {
		dense[i].ID = i
	}
	want := offlineNDJSON(t, sc, &workload.Trace{Jobs: dense})
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("shed-run completions differ from offline replay of the accepted subset:\n daemon  %d bytes\n offline %d bytes", got.Len(), len(want))
	}
}

// The warm clean path (NDJSON decode, batched admission, engine,
// completion fan-out) stays under half a malloc per admitted job,
// counted process-wide, client included, across one 2,000-job POST on
// a stable daemon after a warm-up POST. Skipped under the race
// detector, which makes sync.Pool drop items at random (0.58 mallocs
// per job there).
func TestCleanPathAllocsPerJob(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
	sc := serveScenario(t, "topo=fattree:2,2,2 speed=1.5 retain=1 serve")
	_, cl, _ := startDaemon(t, Config{Scenario: sc, QueueDepth: 8000})
	ctx := context.Background()

	// Unit jobs a full time unit apart on the speed-1.5 tree: each
	// completes before the next arrives, so the daemon is in the same
	// steady state throughout. Each submission waits until the engine
	// has consumed the queue, so the count brackets the whole path.
	submit := func(base float64, n int) {
		t.Helper()
		jobs := make([]workload.Job, n)
		for i := range jobs {
			jobs[i] = workload.Job{Release: base + float64(i), Size: 1}
		}
		res, err := cl.Submit(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != n {
			t.Fatalf("admitted %d of %d jobs", res.Accepted, n)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			st, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.QueueLen == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("engine queue never drained (len %d)", st.QueueLen)
			}
		}
	}
	// The warm-up grows the batch pool, the fan-out buffer and the
	// client's connections to their steady state.
	submit(0, 500)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit(500, 2000)
	runtime.ReadMemStats(&after)
	perJob := float64(after.Mallocs-before.Mallocs) / 2000
	t.Logf("%.3f mallocs per admitted job", perJob)
	if perJob > 0.5 {
		t.Fatalf("warm clean path allocates %.2f mallocs per admitted job (ceiling 0.5)", perJob)
	}
}

func TestRetryAfterHeader(t *testing.T) {
	sc := serveScenario(t, "topo=fattree:2,2,2 serve")
	_, _, ts := startDaemon(t, Config{Scenario: sc, ShedBacklog: 1, RetryAfter: 3 * time.Second})

	var body bytes.Buffer
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&body, `{"Release":%g,"Size":5}`+"\n", float64(i)*0.01)
	}
	resp, err := http.Post(ts.URL+"/jobs", ndjsonType, &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	var res AdmitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Shed != 1 || res.Accepted == 0 {
		t.Fatalf("shed response %+v: want the accepted prefix plus shed=1", res)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	srv, cl, ts := startDaemon(t, Config{Scenario: sc})

	if _, err := cl.Submit(context.Background(), []workload.Job{{Release: 0, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if !srv.Ready() {
		t.Fatal("daemon not ready before drain")
	}
	if _, err := cl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(context.Background(), []workload.Job{{Release: 1, Size: 1}}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit after drain: %v, want HTTP 503", err)
	}
	// Drain is idempotent.
	if _, err := cl.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 503} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s after drain = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestAdmissionValidation(t *testing.T) {
	sc := serveScenario(t, "topo=fattree:2,2,2 serve")
	_, _, ts := startDaemon(t, Config{Scenario: sc, MaxLineBytes: 512})

	post := func(body string) (int, AdmitResult) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", ndjsonType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res AdmitResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, res
	}

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"garbage", "not json\n", http.StatusBadRequest},
		{"zero size", `{"Release":1,"Size":0}` + "\n", http.StatusBadRequest},
		{"nan size", `{"Release":1,"Size":null}` + "\n", http.StatusBadRequest},
		{"bad leaf count", `{"Release":1,"Size":1,"LeafSizes":[1,2]}` + "\n", http.StatusBadRequest},
		{"bad origin", `{"Release":1,"Size":1,"Origin":999}` + "\n", http.StatusBadRequest},
		{"oversized line", `{"Release":1,"Size":1,"pad":"` + strings.Repeat("x", 2048) + `"}` + "\n", http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if status, _ := post(c.body); status != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, status, c.status)
		}
	}

	// Partial admission: a batch that goes bad mid-way keeps its good
	// prefix and reports it.
	status, res := post(`{"Release":5,"Size":1}` + "\n" + `{"Release":6,"Size":1}` + "\n" + `{"Release":2,"Size":1}` + "\n")
	if status != http.StatusBadRequest || res.Accepted != 2 {
		t.Fatalf("mid-batch regression: status %d result %+v, want 400 with accepted=2", status, res)
	}
	// Cross-batch monotonicity: the frontier is at 6 now.
	if status, _ := post(`{"Release":3,"Size":1}` + "\n"); status != http.StatusBadRequest {
		t.Fatalf("pre-frontier release accepted: status %d", status)
	}
	if status, res := post(`{"Release":7,"Size":1}` + "\n"); status != http.StatusOK || res.Accepted != 1 {
		t.Fatalf("at-frontier release: status %d result %+v", status, res)
	}
}

// A mid-batch zero-size job: NaN via JSON null is covered above; this
// pins that nothing before the bad job is lost and IDs stay dense.
func TestDenseIDsAcrossPartialBatches(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	_, cl, _ := startDaemon(t, Config{Scenario: sc})

	r1, err := cl.Submit(context.Background(), []workload.Job{{Release: 0, Size: 1}, {Release: 1, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.Submit(context.Background(), []workload.Job{{ID: 999, Release: 2, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.FirstID != 0 || r2.FirstID != 2 {
		t.Fatalf("dense IDs: first batch %d, second batch %d (client ID must be ignored)", r1.FirstID, r2.FirstID)
	}
}

func TestClientRetryHonorsRetryAfter(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "2")
			writeJSON(w, http.StatusTooManyRequests, AdmitResult{Accepted: 1, FirstID: 0, Shed: 1})
			return
		}
		writeJSON(w, http.StatusOK, AdmitResult{Accepted: 2, FirstID: 1})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	cl := &Client{Base: ts.URL, Retries: 2, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	res, err := cl.Submit(context.Background(), []workload.Job{
		{Release: 0, Size: 1}, {Release: 1, Size: 1}, {Release: 2, Size: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Shed != 0 || res.Attempts != 2 || res.FirstID != 0 {
		t.Fatalf("retry result %+v, want all 3 accepted over 2 attempts", res)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want one 2s backoff from Retry-After", slept)
	}
}

func TestClientRetriesExhaustedReportShed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, AdmitResult{FirstID: -1, Shed: 1})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := &Client{Base: ts.URL, Retries: 1, Sleep: func(time.Duration) {}}
	res, err := cl.Submit(context.Background(), []workload.Job{{Release: 0, Size: 1}, {Release: 1, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 || res.Accepted != 0 || res.Attempts != 2 {
		t.Fatalf("exhausted retries: %+v, want both jobs reported shed after 2 attempts", res)
	}
}

func TestNewRejectsOfflineScenario(t *testing.T) {
	sc := serveScenario(t, "topo=star:4")
	sc.Workload = scenario.Workload{N: 10, Size: scenario.NewSpec("uniform", 1, 4), Load: 0.5}
	if _, err := New(Config{Scenario: sc}); err == nil {
		t.Fatal("New accepted a non-serve scenario")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil scenario")
	}
}

// New rejects a negative size or duration and a negative or NaN
// watermark, naming the field; 0 keeps each default.
func TestNewRejectsBadConfig(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{QueueDepth: -1}, "server: config.QueueDepth is -1, want >= 0"},
		{Config{ShedBacklog: -20}, "server: config.ShedBacklog is -20, want >= 0"},
		{Config{ShedBacklog: math.NaN()}, "server: config.ShedBacklog is NaN, want >= 0"},
		{Config{RetryAfter: -time.Second}, "server: config.RetryAfter is -1s, want >= 0"},
		{Config{MaxLineBytes: -1}, "server: config.MaxLineBytes is -1, want >= 0"},
		{Config{StallTimeout: -time.Second}, "server: config.StallTimeout is -1s, want >= 0"},
		{Config{SubscriberBuffer: -1}, "server: config.SubscriberBuffer is -1, want >= 0"},
		{Config{FlushLines: -64}, "server: config.FlushLines is -64, want >= 0"},
	} {
		c.cfg.Scenario = sc
		srv, err := New(c.cfg)
		if err == nil {
			srv.Drain()
			t.Errorf("New accepted %s", c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("New: got %q, want %q", err, c.want)
		}
	}
	srv, err := New(Config{Scenario: sc})
	if err != nil {
		t.Fatalf("New with every default: %v", err)
	}
	srv.Drain()
}

func TestStallGuardFailsDeadSubmission(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	_, _, ts := startDaemon(t, Config{Scenario: sc, StallTimeout: 50 * time.Millisecond})

	pr, pw := io.Pipe()
	done := make(chan struct{})
	var status int
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/jobs", ndjsonType, pr)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
	}()
	// Half a job, then silence: the daemon must 408 instead of
	// holding the handler forever.
	io.WriteString(pw, `{"Release":1,`)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled submission never timed out")
	}
	pw.Close()
	if status != http.StatusRequestTimeout {
		t.Fatalf("stalled submission status %d, want 408", status)
	}
}
