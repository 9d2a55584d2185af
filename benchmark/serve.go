package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"treesched"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

const (
	// serveScenario is the daemon's scenario: greedy dispatch and SJF
	// on an 8-leaf tree at speed 1.5 (at speed 1 the queues grow
	// without bound).
	serveScenario = "topo=fattree:2,2,2 speed=1.5 serve"
	// serveQueue is the daemon's admission queue depth, deep enough
	// that the offered rates never shed.
	serveQueue = 65536
	// load is the offered load against the tree's root capacity, on
	// every workload.
	load = 0.95
	// serveSetups is how many times a run starts the daemon to time
	// its set-up. One start takes a few milliseconds and varies by a
	// third from one to the next, so the median needs many.
	serveSetups = 45
	// serveSessions is how many daemon sessions a serve pass runs, one
	// after another, each with a fresh daemon and the same jobs, and
	// serveWindows how many equal stretches of due time each session is
	// cut into. The daemon's CPU time per job varied by up to 30%
	// between sessions of the same code; over several sessions the low
	// quantile of the windows sees past an unlucky one.
	serveSessions = 4
	serveWindows  = 10
)

// serveSpec is one open-loop traffic mix.
type serveSpec struct {
	rate  float64 // offered jobs per second
	batch int     // jobs per POST
}

var (
	// servePaced makes per-request cost dominate: many small POSTs.
	servePaced = serveSpec{rate: 100_000, batch: 32}
	// serveBulk spends the same layers per job: few large POSTs at a
	// higher rate. At 200,000 jobs/s the daemon used three quarters of a
	// core, and a slower phase of the host pushed it to saturation: the
	// lag's spread over ten runs was 12% against 4% at 150,000, runs of
	// both interleaved.
	serveBulk = serveSpec{rate: 150_000, batch: 256}
)

// hashSeed keys the per-line completion hashes compared within one
// process.
var hashSeed = maphash.MakeSeed()

// serveBench drives the treeschedd daemon as a subprocess with an
// open loop of jobs at a fixed rate and one completion subscriber.
type serveBench struct {
	cfg  *config
	spec serveSpec
	n    int // jobs per session
	inst *treesched.Instance
	// kappa maps virtual time to wall time: virtual time r is due at
	// start + r·kappa seconds, which makes the jobs' mean arrival rate
	// the offered rate.
	kappa float64
	// body holds the request bodies, encoded before any session so the
	// generator spends no CPU time encoding while it measures: batch i
	// is body[ends[i-1]:ends[i]], due at start + dues[i], when its last
	// job's release is due.
	body []byte
	ends []int
	dues []time.Duration
	// ref holds the hash of each line an untimed offline run of the
	// jobs writes, which every session's completion stream must match,
	// and refFlow that run's mean flow, which the ledger's engine replay
	// must reproduce.
	ref     []uint64
	refFlow float64
}

func newServe(cfg *config, spec serveSpec) (bench, error) {
	if cfg.daemon == "" {
		return nil, errors.New("the serve workloads need -daemon, a treeschedd binary (run.sh builds one)")
	}
	sc, err := treesched.ParseScenario([]byte(serveScenario))
	if err != nil {
		return nil, err
	}
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}
	b := &serveBench{cfg: cfg, spec: spec, n: int(math.Round(spec.rate * cfg.seconds / serveSessions)), inst: inst}
	if b.n < 1 {
		return nil, fmt.Errorf("-seconds %v leaves no jobs", cfg.seconds)
	}
	if err := b.encode(); err != nil {
		return nil, err
	}
	if b.ref, b.refFlow, err = b.reference(); err != nil {
		return nil, err
	}
	return b, nil
}

// encode builds the request bodies the way a client does
// (workload.AppendJob, one line per job), sets kappa, and works out
// when each body is due.
func (b *serveBench) encode() error {
	src, err := b.source()
	if err != nil {
		return err
	}
	var releases []float64 // of each batch's last job
	for i := 0; ; i++ {
		j, ok := src.Next()
		if !ok {
			break
		}
		if b.body, err = workload.AppendJob(b.body, &j); err != nil {
			return err
		}
		b.body = append(b.body, '\n')
		if (i+1)%b.spec.batch == 0 || i == b.n-1 {
			b.ends = append(b.ends, len(b.body))
			releases = append(releases, j.Release)
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	b.kappa = float64(b.n) / b.spec.rate / releases[len(releases)-1]
	for _, r := range releases {
		b.dues = append(b.dues, time.Duration(r*b.kappa*float64(time.Second)))
	}
	return nil
}

// source yields the workload's jobs; every call yields the same ones.
func (b *serveBench) source() (treesched.ArrivalSource, error) {
	return treesched.PoissonSource(b.cfg.seed, b.n, load, b.inst.Tree)
}

func (b *serveBench) path() []string {
	return []string{mDecode, mAdmit, mAssign, mAdvance, mInject, mDrain, mEncode}
}

// setup times the daemon from exec until /readyz answers 200.
func (b *serveBench) setup() (setupS, buildS []float64, err error) {
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		sc, err := treesched.ParseScenario([]byte(serveScenario))
		if err != nil {
			return nil, nil, err
		}
		if _, err := sc.Build(); err != nil {
			return nil, nil, err
		}
		buildS = append(buildS, time.Since(t0).Seconds())

		client := newClient()
		d, took, err := startDaemon(b.cfg.daemon, client)
		if err != nil {
			return nil, nil, err
		}
		err = d.stop(client)
		client.CloseIdleConnections()
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	return setupS, buildS, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}}
}

// daemon is one treeschedd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	// stdoutDone is closed once the daemon's standard output reaches
	// EOF; Wait must not run before.
	stdoutDone chan struct{}
	waited     bool
}

// startDaemon execs treeschedd on a free port and returns once
// /readyz answers 200, with the time that took.
func startDaemon(bin string, client *http.Client) (*daemon, time.Duration, error) {
	d := &daemon{stdoutDone: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-scenario", "/dev/stdin", "-queue", strconv.Itoa(serveQueue))
	d.cmd.Stdin = strings.NewReader(serveScenario)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(stdout)
	line, readErr := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		close(d.stdoutDone)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "treeschedd: serving on ")
	if readErr != nil || !ok {
		d.kill()
		return nil, 0, fmt.Errorf("treeschedd did not start (%q): %s", line, strings.TrimSpace(d.stderr.String()))
	}
	d.base = addr
	resp, err := client.Get(d.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz: HTTP %d", resp.StatusCode)
		}
	}
	took := time.Since(t0)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, took, nil
}

// wait waits for the daemon to exit and fails unless it exited 0.
func (d *daemon) wait() (*os.ProcessState, error) {
	<-d.stdoutDone
	err := d.cmd.Wait()
	d.waited = true
	if err != nil {
		return d.cmd.ProcessState, fmt.Errorf("treeschedd: %v: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return d.cmd.ProcessState, nil
}

// stop drains the daemon through POST /drain, after which it exits,
// and waits for it. (A signal could arrive before the daemon installs
// its handler, and kill it.)
func (d *daemon) stop(client *http.Client) error {
	if err := post(context.Background(), client, d.base+"/drain"); err != nil {
		d.kill()
		return err
	}
	_, err := d.wait()
	return err
}

// kill ends the daemon if it is still running; for error paths.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	d.cmd.Process.Kill()
	d.wait()
}

// jobSample is the timeline of one sampled job, for the trace.
// Submission writes due and posted; the subscriber writes recv.
type jobSample struct {
	due, posted, recv time.Time
}

// session is what one daemon session saw.
type session struct {
	postErr        error
	windows        []window
	cpu, own, wall time.Duration
	rssKiB         int64
	failed         int64
	hashes         []uint64
	lags, posts    []float64
	late           []float64
	reads          int64
	start, end     time.Time
	samples        []jobSample
}

func (b *serveBench) measure(tr *tracer) (*pass, error) {
	p := &pass{}
	var lags, posts, late, rss []float64
	var lines, reads int64
	var own time.Duration
	var postErr error
	for k := 0; k < serveSessions; k++ {
		s, err := b.session(tr != nil)
		if err != nil {
			return nil, err
		}
		p.windows = append(p.windows, s.windows...)
		p.jobs += int64(b.n)
		p.cpu += s.cpu
		p.wall += s.wall
		rss = append(rss, float64(s.rssKiB))
		p.attempted += int64(b.n)
		p.failed += s.failed
		if postErr == nil {
			postErr = s.postErr
		}
		if s.failed == 0 {
			p.failed += b.compare(s.hashes)
		}
		for _, h := range s.hashes {
			p.digest = (p.digest ^ h) * 1099511628211
		}
		lags, posts, late = append(lags, s.lags...), append(posts, s.posts...), append(late, s.late...)
		lines += int64(len(s.hashes))
		reads += s.reads
		own += s.own
		if tr != nil {
			root := tr.add(fmt.Sprintf("session %d", k), -1, -1, s.start, s.end)
			for i, js := range s.samples {
				if js.recv.IsZero() || js.posted.IsZero() {
					continue
				}
				job := tr.add("job", i*sampleEvery, root, js.due, js.recv)
				tr.add("post", i*sampleEvery, job, js.due, js.posted)
			}
		}
	}
	// A session's peak depends on when the collector ran; the median
	// session is the daemon's peak.
	p.rssKiB = int64(median(rss))
	p.meanFlow = b.refFlow
	p.latency = latency(p.windows, 0.5)
	lags, posts, late = sortedCopy(lags), sortedCopy(posts), sortedCopy(late)
	p.diag = []string{
		fmt.Sprintf("lag_p99_ms=%.4f", percentile(lags, 0.99)),
		fmt.Sprintf("lag_samples=%d", len(lags)),
		fmt.Sprintf("post_p50_ms=%.4f", percentile(posts, 0.5)),
		fmt.Sprintf("post_p99_ms=%.4f", percentile(posts, 0.99)),
		fmt.Sprintf("late_p50_ms=%.4f", percentile(late, 0.5)),
		fmt.Sprintf("late_max_ms=%.4f", percentile(late, 1)),
		fmt.Sprintf("posts_per_s=%.1f", float64(len(posts))/p.wall.Seconds()),
		fmt.Sprintf("lines_per_read=%.2f", float64(lines)/float64(reads)),
		fmt.Sprintf("daemon_cores=%.3f", p.cpu.Seconds()/p.wall.Seconds()),
		fmt.Sprintf("generator_cores=%.3f", own.Seconds()/p.wall.Seconds()),
	}
	if postErr != nil {
		p.diag = append(p.diag, fmt.Sprintf("first_post_error=%q", postErr.Error()))
	}
	return p, nil
}

// session starts a daemon, subscribes to its completions, offers it
// the jobs as an open loop, drains it and waits for it to exit.
func (b *serveBench) session(traced bool) (*session, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	d, _, err := startDaemon(b.cfg.daemon, client)
	if err != nil {
		return nil, err
	}
	defer d.kill()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/completions", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/completions: HTTP %d", resp.StatusCode)
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	var samples []jobSample
	if traced {
		samples = make([]jobSample, b.n/sampleEvery+1)
	}
	start := time.Now().Add(10 * time.Millisecond)
	own0 := selfCPU()
	sub := &subscriber{start: start, kappa: b.kappa, win: b.windowLen(), samples: samples,
		lags: make([][]float64, serveWindows), hashes: make([]uint64, 0, b.n)}
	subDone := make(chan error, 1)
	go func() { subDone <- sub.consume(resp.Body) }()
	ld, loadErr := b.submit(ctx, client, d, start, samples)
	if loadErr == nil {
		loadErr = post(ctx, client, d.base+"/drain")
	}
	if loadErr != nil {
		cancel()
		<-subDone
		return nil, loadErr
	}
	if err := <-subDone; err != nil {
		return nil, fmt.Errorf("completion stream: %w", err)
	}
	own := selfCPU() - own0
	ps, err := d.wait()
	if err != nil {
		return nil, err
	}

	s := &session{
		windows: make([]window, serveWindows),
		cpu:     ps.UserTime() + ps.SystemTime() - cpu0,
		own:     own,
		wall:    sub.end.Sub(start),
		rssKiB:  ld.rssKiB,
		failed:  ld.failed,
		postErr: ld.postErr,
		hashes:  sub.hashes,
		posts:   ld.posts,
		late:    ld.late,
		reads:   sub.reads,
		start:   start,
		end:     sub.end,
		samples: samples,
	}
	for k := range s.windows {
		s.windows[k].lat = sub.lags[k]
		s.lags = append(s.lags, sub.lags[k]...)
		if k+1 < len(ld.marks) {
			s.windows[k].jobs = ld.marks[k+1].jobs - ld.marks[k].jobs
			s.windows[k].cpu = ld.marks[k+1].cpu - ld.marks[k].cpu
		}
	}
	return s, nil
}

// loadStats is what the open loop saw: per-POST round trips and send
// lateness, both from when the batch was due, in milliseconds; the
// daemon's CPU time at the start of each window and after the last
// POST; and its peak resident set then.
type loadStats struct {
	posts, late []float64
	failed      int64
	// postErr explains the first failed POST.
	postErr error
	marks   []cpuMark
	rssKiB  int64
}

// cpuMark is the daemon's CPU time when jobs had been posted.
type cpuMark struct {
	jobs int64
	cpu  time.Duration
}

// windowLen is the due-time length of one window.
func (b *serveBench) windowLen() time.Duration {
	return time.Duration(float64(b.n) / b.spec.rate / serveWindows * float64(time.Second))
}

// submit posts the request bodies as an open loop: each is sent when
// it is due or, if the previous POST is still out, as soon as that
// returns. A refused, shed or failed job counts as failed.
func (b *serveBench) submit(ctx context.Context, client *http.Client, d *daemon, start time.Time, samples []jobSample) (*loadStats, error) {
	ld := &loadStats{}
	win := b.windowLen()
	from := 0
	for i, to := range b.ends {
		due := start.Add(b.dues[i])
		sleepUntil(due)
		if len(ld.marks) < serveWindows && b.dues[i] >= time.Duration(len(ld.marks))*win {
			cpu, err := procCPU(d.cmd.Process.Pid)
			if err != nil {
				return nil, err
			}
			ld.marks = append(ld.marks, cpuMark{int64(i * b.spec.batch), cpu})
		}
		sent := time.Now()
		accepted, err := postJobs(ctx, client, d.base, b.body[from:to])
		done := time.Now()
		from = to
		first, jobs := i*b.spec.batch, min(b.spec.batch, b.n-i*b.spec.batch)
		if accepted != jobs {
			ld.failed += int64(jobs - accepted)
			if ld.postErr == nil {
				ld.postErr = err
			}
			continue
		}
		ld.posts = append(ld.posts, millis(done.Sub(due)))
		ld.late = append(ld.late, millis(sent.Sub(due)))
		if samples != nil {
			for id := (first + sampleEvery - 1) / sampleEvery * sampleEvery; id < first+jobs; id += sampleEvery {
				samples[id/sampleEvery].due = due
				samples[id/sampleEvery].posted = done
			}
		}
	}
	cpu, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ld.marks = append(ld.marks, cpuMark{int64(b.n), cpu})
	ld.rssKiB, err = peakRSSKiB(strconv.Itoa(d.cmd.Process.Pid))
	return ld, err
}

// sleepUntil blocks until t. It sleeps in the kernel rather than with
// time.Sleep, whose wake-ups come up to a millisecond late once the
// runtime idles in its network poller: that would add the timer's
// slack, not the daemon's, to every lag at these sub-millisecond batch
// intervals.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// postJobs POSTs one NDJSON body to /jobs and returns how many jobs
// the daemon admitted.
func postJobs(ctx context.Context, client *http.Client, base string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	var ar treesched.ServerAdmitResult
	if err := json.Unmarshal(data, &ar); err != nil {
		return 0, fmt.Errorf("/jobs: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return ar.Accepted, fmt.Errorf("/jobs: HTTP %d: %s", resp.StatusCode, ar.Error)
	}
	return ar.Accepted, nil
}

// post sends an empty POST and fails unless it answers 200.
func post(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// subscriber reads the completion stream: it hashes every line for the
// byte comparison and times each against when its completion was due.
type subscriber struct {
	start   time.Time
	kappa   float64
	win     time.Duration
	samples []jobSample
	lags    [][]float64 // ms, by window of due time
	hashes  []uint64
	reads   int64
	carry   []byte
	end     time.Time
}

func (s *subscriber) consume(r io.Reader) error {
	buf := make([]byte, 256<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			s.reads++
			s.feed(buf[:n], time.Now())
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	s.end = time.Now()
	if len(s.carry) > 0 {
		return fmt.Errorf("stream ended inside a line (%d bytes)", len(s.carry))
	}
	return nil
}

// feed splits a read into lines, carrying a partial last line over to
// the next read.
func (s *subscriber) feed(b []byte, now time.Time) {
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			s.carry = append(s.carry, b...)
			return
		}
		line := b[:i]
		if len(s.carry) > 0 {
			s.carry = append(s.carry, line...)
			line = s.carry
		}
		s.line(line, now)
		s.carry = s.carry[:0]
		b = b[i+1:]
	}
}

func (s *subscriber) line(line []byte, now time.Time) {
	s.hashes = append(s.hashes, maphash.Bytes(hashSeed, line))
	id, c, ok := parseCompletion(line)
	if !ok {
		// Unparsable: the byte comparison counts it as failed.
		return
	}
	offset := time.Duration(c * s.kappa * float64(time.Second))
	k := min(int(offset/s.win), len(s.lags)-1)
	s.lags[k] = append(s.lags[k], millis(now.Sub(s.start.Add(offset))))
	if s.samples != nil && sampled(id) && id/sampleEvery < len(s.samples) {
		s.samples[id/sampleEvery].recv = now
	}
}

// parseCompletion reads the ID and Completion fields of one completion
// line as sim.AppendJobMetrics writes it:
//
//	{"ID":7,"Release":1.5,"Completion":9.25,"Flow":7.75,...}
//
// It looks only at those two fields, by position, so it keeps up with
// the stream; any other shape reports !ok.
func parseCompletion(line []byte) (id int, completion float64, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte(`{"ID":`))
	if !found {
		return 0, 0, false
	}
	i := bytes.IndexByte(rest, ',')
	if i < 0 {
		return 0, 0, false
	}
	id, err := strconv.Atoi(string(rest[:i]))
	if err != nil {
		return 0, 0, false
	}
	_, rest, found = bytes.Cut(rest[i:], []byte(`,"Completion":`))
	if !found {
		return 0, 0, false
	}
	if i = bytes.IndexByte(rest, ','); i < 0 {
		return 0, 0, false
	}
	completion, err = strconv.ParseFloat(string(rest[:i]), 64)
	return id, completion, err == nil
}

// reference runs the jobs through an untimed offline RunStream on the
// same serve scenario and returns the hash of every NDJSON line it
// writes, in order, and its mean flow.
func (b *serveBench) reference() ([]uint64, float64, error) {
	src, err := b.source()
	if err != nil {
		return nil, 0, err
	}
	asg, err := b.inst.NewAssigner()
	if err != nil {
		return nil, 0, err
	}
	lh := &lineHashes{}
	opts := b.inst.Opts
	opts.RetainJobs = 1
	opts.Sink = lh
	res, err := treesched.RunStream(b.inst.Tree, src, asg, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("reference run: %w", err)
	}
	return lh.hashes, res.AvgFlow(), nil
}

// compare counts the received completion lines that differ from the
// reference at the same position, are missing, or are extra.
func (b *serveBench) compare(got []uint64) int64 {
	diff := int64(max(len(got), len(b.ref)) - min(len(got), len(b.ref)))
	for i := 0; i < min(len(got), len(b.ref)); i++ {
		if got[i] != b.ref[i] {
			diff++
		}
	}
	return diff
}

// lineHashes is a sink keeping the hash of each completion line.
type lineHashes struct {
	hashes []uint64
	buf    []byte
}

func (k *lineHashes) Emit(m *treesched.JobMetrics) error {
	var err error
	if k.buf, err = sim.AppendJobMetrics(k.buf[:0], m); err != nil {
		return err
	}
	k.hashes = append(k.hashes, maphash.Bytes(hashSeed, k.buf))
	return nil
}

func (b *serveBench) ledger(tr *tracer) (*ledger, error) {
	src, err := b.source()
	if err != nil {
		return nil, err
	}
	asg, err := b.inst.NewAssigner()
	if err != nil {
		return nil, err
	}
	opts := b.inst.Opts
	opts.RetainJobs = 1
	opts.Sink = &appendSink{}
	l, err := runLedger(ledgerInput{tree: b.inst.Tree, opts: opts, asg: asg, src: src, batch: b.spec.batch}, tr)
	if err != nil {
		return nil, err
	}
	if flow := l.stats.TotalFlow / float64(l.stats.Completed); flow != b.refFlow {
		l.mismatched += l.jobs
	}
	return l, nil
}
