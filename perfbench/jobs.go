package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"popsim"
	"popsim/internal/protocols"
	"popsim/internal/report"
	"popsim/internal/serve"
)

// jobKind is one kind of request in the popsimd-jobs mix.
type jobKind int

const (
	coldCounts jobKind = iota // OR on the counts backend, a fresh seed
	coldSim                   // OR through the SID simulator on the vector backend, a fresh seed
	cacheHit                  // an exact resubmission of an earlier cold job
)

// mixBlock is the designed mix of every 10 consecutive requests; the seed
// shuffles the order inside each block. 3 in 10 requests are cache hits.
var mixBlock = []jobKind{coldCounts, coldCounts, coldCounts, coldCounts, coldSim, coldSim, coldSim, cacheHit, cacheHit, cacheHit}

const (
	// jobsRate is the open-loop submission rate. On a 2-core AMD EPYC box a
	// cold counts job takes about 9 ms from due time to result, a cold SID
	// job about 7 ms and a hit about 1 ms, so one popsimd worker serves at
	// most about 160 requests/s of the mix; 80/s offers about half that
	// capacity.
	jobsRate = 80.0
	// hitLag is how far back a cache hit's cold job was due, so the cold
	// result is in the cache by the time the hit arrives.
	hitLag = time.Second
	// warmJobs is the number of cold jobs of each kind the warm-up submits.
	warmJobs = 5
	// maxConns bounds the generator's connections (nproc of the 2-core box).
	maxConns = 2
)

func countsDoc(seed int64) string {
	return fmt.Sprintf(`{"protocol":"or","n":65536,"backend":"counts","seed":%d}`, seed)
}

func simDoc(seed int64) string {
	return fmt.Sprintf(`{"protocol":"or","sim":"sid","model":"IO","n":32,"backend":"vector","seed":%d}`, seed)
}

// request is one scheduled submission and what became of it.
type request struct {
	due    time.Duration // offset from the schedule's start
	kind   jobKind
	doc    string
	target *request // the cold job a cache hit resubmits

	sent    time.Time     // when the POST started
	lag     time.Duration // sent − due
	submit  time.Duration // POST /jobs until the 202
	latency time.Duration // due until /jobs/{id}/stream closed
	elapsed float64       // JobStatus.elapsed_sec (traced phase only)
	line    []byte        // the one result line of the stream
	err     error
}

// schedule builds the fixed request list for dur at jobsRate. Cold seeds
// count up per kind in next, so the set of (spec, seed) pairs depends only on
// the length; the seed shuffles each block and picks hit targets.
func schedule(seed int64, dur time.Duration, next map[jobKind]int64, warm []*request) []*request {
	rng := rand.New(rand.NewSource(seed))
	n := int(jobsRate*dur.Seconds()) / len(mixBlock) * len(mixBlock)
	reqs := make([]*request, 0, n)
	var colds []*request
	for len(reqs) < n {
		kinds := slices.Clone(mixBlock)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			r := &request{due: time.Duration(float64(len(reqs)) / jobsRate * float64(time.Second)), kind: k}
			switch k {
			case coldCounts:
				r.doc = countsDoc(next[k])
				next[k]++
				colds = append(colds, r)
			case coldSim:
				r.doc = simDoc(next[k])
				next[k]++
				colds = append(colds, r)
			case cacheHit:
				var due []*request
				for _, c := range colds {
					if c.due <= r.due-hitLag {
						due = append(due, c)
					}
				}
				if len(due) == 0 {
					due = warm
				}
				r.target = due[rng.Intn(len(due))]
				r.doc = r.target.doc
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// popsimd is a running server child.
type popsimd struct {
	cmd  *exec.Cmd
	base string
	logs *tailBuffer
	http *http.Client
	done chan error
}

// tailBuffer keeps the last max bytes written to it (the server's logs, for
// error messages).
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startPopsimd starts the built binary with one job worker and one seed
// worker, and returns once /readyz answers 200.
func startPopsimd(bin string) (*popsimd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &popsimd{
		cmd:  exec.Command(bin, "-addr", addr, "-workers", "1", "-seed-workers", "1"),
		base: "http://" + addr,
		logs: &tailBuffer{max: 8 << 10},
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}},
		done: make(chan error, 1),
	}
	s.cmd.Stdout, s.cmd.Stderr = s.logs, s.logs
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("popsimd exited before ready: %v\n%s", err, s.logs)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("popsimd not ready after 10 s\n%s", s.logs)
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// after 10 s.
func (s *popsimd) stop() error {
	s.http.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("popsimd did not drain within 10 s")
	}
}

// cacheCounts reads the result-cache lookups from GET /metrics.
func (s *popsimd) cacheCounts() (hits, misses int64, err error) {
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var m serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, 0, err
	}
	return m.CacheHits, m.CacheMisses, nil
}

// do submits one request and follows its stream to the end. Latency runs
// from the request's due time, so a late generator or a busy connection
// counts against it.
func (s *popsimd) do(r *request, start time.Time, status bool) {
	due := start.Add(r.due)
	r.sent = time.Now()
	r.lag = r.sent.Sub(due)
	resp, err := s.http.Post(s.base+"/jobs", "application/json", strings.NewReader(r.doc))
	if err != nil {
		r.err = err
		return
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("POST /jobs: %s", resp.Status)
		return
	}
	if err != nil {
		r.err = fmt.Errorf("POST /jobs: %w", err)
		return
	}
	r.submit = time.Since(r.sent)
	resp, err = s.http.Get(s.base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		r.err = err
		return
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if !bytes.HasPrefix(sc.Bytes(), []byte(`{"progress"`)) {
			lines = append(lines, bytes.Clone(sc.Bytes()))
		}
	}
	err = sc.Err()
	resp.Body.Close()
	r.latency = time.Since(due)
	if err != nil {
		r.err = fmt.Errorf("stream: %w", err)
		return
	}
	if len(lines) != 1 {
		r.err = fmt.Errorf("stream of %s carried %d result lines, want 1", st.ID, len(lines))
		return
	}
	r.line = lines[0]
	if status {
		resp, err = s.http.Get(s.base + "/jobs/" + st.ID)
		if err != nil {
			r.err = err
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			r.err = fmt.Errorf("GET /jobs/{id}: %w", err)
			return
		}
		r.elapsed = st.ElapsedSec
	}
}

// drive runs the open-loop schedule: one goroutine per request, started at
// its due time whatever the earlier requests are doing.
func (s *popsimd) drive(reqs []*request, status bool) time.Time {
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for _, r := range reqs {
		time.Sleep(time.Until(start.Add(r.due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.do(r, start, status)
		}()
	}
	wg.Wait()
	return start
}

// jobsPhase is one driven schedule and its server-side totals.
type jobsPhase struct {
	reqs         []*request
	start        time.Time
	wall         time.Duration
	serverCPU    time.Duration
	hits, misses int64
}

// runPhase drives a schedule and reads the server's CPU and cache counters
// around it.
func (s *popsimd) runPhase(reqs []*request, status bool) (jobsPhase, error) {
	h0, m0, err := s.cacheCounts()
	if err != nil {
		return jobsPhase{}, err
	}
	c0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return jobsPhase{}, err
	}
	t0 := time.Now()
	start := s.drive(reqs, status)
	wall := time.Since(t0)
	c1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return jobsPhase{}, err
	}
	h1, m1, err := s.cacheCounts()
	if err != nil {
		return jobsPhase{}, err
	}
	return jobsPhase{reqs: reqs, start: start, wall: wall, serverCPU: c1 - c0, hits: h1 - h0, misses: m1 - m0}, nil
}

// jobStats are the figures of one phase after its output checks.
type jobStats struct {
	coldMS, hitMS, submitMS, lagMS, elapsedMS, waitMS []float64
	coldSteps                                         int
	coldSeconds                                       float64
}

// check verifies every output of a phase and gathers its figures: each
// request got a 202 and one result line with pass=true; each cache-hit line
// equals its cold line apart from the "cache=hit" note; the server's cache
// counters match the designed mix.
func (p jobsPhase) check(out *outcome) jobStats {
	var st jobStats
	kindMS := map[jobKind][]float64{}
	defer func() {
		out.note("cold latency p50 by kind: counts %.3f ms, sim %.3f ms",
			quantile(kindMS[coldCounts], 0.5), quantile(kindMS[coldSim], 0.5))
	}()
	var wantHits int64
	for _, r := range p.reqs {
		out.Attempted++
		if r.kind == cacheHit {
			wantHits++
		}
		if r.err != nil {
			out.Failed++
			out.problem("%s: %v", r.doc, r.err)
			continue
		}
		var line report.Line
		if err := json.Unmarshal(r.line, &line); err != nil {
			out.Failed++
			out.problem("%s: result line: %v", r.doc, err)
			continue
		}
		if !line.Pass {
			out.Failed++
			out.problem("%s: result pass=false: %s", r.doc, r.line)
			continue
		}
		st.submitMS = append(st.submitMS, msOf(r.submit))
		st.lagMS = append(st.lagMS, msOf(r.lag))
		if r.kind == cacheHit {
			st.hitMS = append(st.hitMS, msOf(r.latency))
			checkHit(out, r, line)
			continue
		}
		steps, err := lineSteps(line)
		if err != nil {
			out.problem("%s: %v", r.doc, err)
			continue
		}
		out.record(r.doc, steps)
		st.coldMS = append(st.coldMS, msOf(r.latency))
		kindMS[r.kind] = append(kindMS[r.kind], msOf(r.latency))
		st.coldSteps += steps
		st.coldSeconds += r.latency.Seconds()
		if r.elapsed > 0 {
			st.elapsedMS = append(st.elapsedMS, r.elapsed*1e3)
			st.waitMS = append(st.waitMS, msOf(r.latency-r.submit)-r.elapsed*1e3)
		}
	}
	if p.hits != wantHits || p.hits+p.misses != int64(len(p.reqs)) {
		out.problem("server counted %d cache hits and %d misses; the mix designs %d hits in %d requests",
			p.hits, p.misses, wantHits, len(p.reqs))
	}
	return st
}

// checkHit compares a cache-hit line with its cold line.
func checkHit(out *outcome, r *request, line report.Line) {
	i := slices.Index(line.Notes, "cache=hit")
	if i < 0 {
		out.problem("%s: resubmission was not served from the cache", r.doc)
		return
	}
	line.Notes = slices.Delete(line.Notes, i, i+1)
	got, err := report.Marshal(line)
	if err != nil || r.target.line == nil {
		out.problem("%s: cannot compare the hit with its cold line", r.doc)
		return
	}
	var cold report.Line
	if err := json.Unmarshal(r.target.line, &cold); err != nil {
		out.problem("%s: cold line: %v", r.doc, err)
		return
	}
	want, _ := report.Marshal(cold)
	if !bytes.Equal(got, want) {
		out.problem("%s: cache-hit line %s differs from cold line %s", r.doc, got, want)
	}
}

// lineSteps reads the interactions a result line reports in its notes.
func lineSteps(l report.Line) (int, error) {
	for _, n := range l.Notes {
		if v, ok := strings.CutPrefix(n, "steps="); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, fmt.Errorf("result line has no steps= note")
}

// jobsWarmUp submits warmJobs cold jobs of each kind and one resubmission
// of each kind, one at a time, untimed. It returns the cold requests, the
// hit targets of the schedule's first second.
func jobsWarmUp(s *popsimd) ([]*request, error) {
	var warm []*request
	for i := int64(1); i <= warmJobs; i++ {
		warm = append(warm, &request{kind: coldCounts, doc: countsDoc(i)}, &request{kind: coldSim, doc: simDoc(i)})
	}
	all := append(slices.Clone(warm), &request{kind: cacheHit, doc: warm[0].doc}, &request{kind: cacheHit, doc: warm[1].doc})
	for _, r := range all {
		s.do(r, time.Now(), false)
		if r.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", r.doc, r.err)
		}
	}
	return warm, nil
}

func runPopsimdJobs(cfg config) (*outcome, error) {
	if cfg.popsimd == "" {
		return nil, errors.New("-popsimd names no binary")
	}
	out := newOutcome()
	var srv *popsimd
	var warm []*request
	reps := setupCount(cfg)
	var setups []float64
	for i := 0; i < reps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startPopsimd(cfg.popsimd); err != nil {
			return nil, err
		}
		if warm, err = jobsWarmUp(srv); err != nil {
			srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := srv.stop(); err != nil {
			out.problem("popsimd shutdown: %v", err)
		}
	}()
	setupS := quantile(setups, 0.5)

	seconds := cfg.seconds
	if cfg.smoke {
		seconds = 1.5
	}
	next := map[jobKind]int64{coldCounts: 1000, coldSim: 1000}
	if !cfg.trace {
		p, err := srv.runPhase(schedule(cfg.seed, secondsOf(seconds), next, warm), false)
		if err != nil {
			return nil, err
		}
		st := p.check(out)
		p50, p90 := quantile(st.coldMS, 0.5), quantile(st.coldMS, 0.9)
		out.set("setup_s", setupS, "s")
		out.set("latency_ms_p50", p50, "ms")
		out.set("latency_ms_p90", p90, "ms")
		out.set("interactions_per_s", ratio(float64(st.coldSteps), st.coldSeconds), "1/s")
		out.set("cpu_ms_per_op", ratio(msOf(p.serverCPU), float64(len(p.reqs))), "ms")
		rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		out.set("peak_rss_mb", rss, "MB")
		out.note("%d requests at %.0f/s over %.1f s: %d cold (%d beyond p90), %d cache hits, hit latency p50 %.3f ms, generator lag p99 %.3f ms",
			len(p.reqs), jobsRate, p.wall.Seconds(), len(st.coldMS), beyond(st.coldMS, p90), len(st.hitMS),
			quantile(st.hitMS, 0.5), quantile(st.lagMS, 0.99))
		out.note("setup %.3f s (median of %d server starts)", setupS, reps)
		return out, nil
	}

	// Traced run: half the time untraced, half traced (fresh cold seeds),
	// for the tracing overhead; the traced half also reads each job's status.
	plain, err := srv.runPhase(schedule(cfg.seed, secondsOf(seconds/2), next, warm), false)
	if err != nil {
		return nil, err
	}
	plainStats := plain.check(out)
	p, err := srv.runPhase(schedule(cfg.seed, secondsOf(seconds/2), next, warm), true)
	if err != nil {
		return nil, err
	}
	st := p.check(out)
	tr := jobSpans(p)
	out.set("bench.trace_overhead_ratio", ratio(quantile(st.coldMS, 0.5), quantile(plainStats.coldMS, 0.5)), "ratio")
	out.set("serve.submit_ms", quantile(st.submitMS, 0.5), "ms")
	out.set("serve.job_elapsed_ms", quantile(st.elapsedMS, 0.5), "ms")
	out.set("serve.queue_wait_ms", quantile(st.waitMS, 0.5), "ms")
	out.set("serve.cache_hit_ratio", ratio(float64(p.hits), float64(p.hits+p.misses)), "ratio")
	out.set("serve.hit_latency_ms_p50", quantile(st.hitMS, 0.5), "ms")
	out.set("bench.generator_lag_ms_p99", quantile(st.lagMS, 0.99), "ms")
	if err := serveLayers(out, p.reqs); err != nil {
		return nil, err
	}
	if err := checkpointLayers(out, cfg.smoke); err != nil {
		return nil, err
	}
	return out, finishLayers(cfg, out, tr)
}

// jobSpans turns the traced phase's recorded times into spans: one op per
// request, with the submit and stream calls under it.
func jobSpans(p jobsPhase) *tracer {
	tr := &tracer{t0: p.start}
	at := func(t time.Time) int64 { return t.Sub(p.start).Nanoseconds() }
	for i, r := range p.reqs {
		if r.err != nil {
			continue
		}
		due := p.start.Add(r.due)
		end := due.Add(r.latency)
		root := len(tr.spans)
		tr.spans = append(tr.spans,
			span{Name: "op", Op: i, Parent: -1, Start: at(due), End: at(end), Busy: r.latency.Nanoseconds(), Calls: 1},
			span{Name: "serve.submit", Op: i, Parent: root, Start: at(r.sent), End: at(r.sent.Add(r.submit)), Busy: r.submit.Nanoseconds(), Calls: 1},
			span{Name: "serve.stream", Op: i, Parent: root, Start: at(r.sent.Add(r.submit)), End: at(end), Busy: end.Sub(r.sent.Add(r.submit)).Nanoseconds(), Calls: 1})
	}
	return tr
}

// serveLayers times the request path's pure functions in-process on the
// mix's own documents: spec parsing, the cache key, and result-line
// encoding.
func serveLayers(out *outcome, reqs []*request) error {
	docs := [][]byte{[]byte(countsDoc(7)), []byte(simDoc(7))}
	const calls = 2000
	var specs []*serve.Spec
	var parse, key float64
	for _, d := range docs {
		spec, err := serve.ParseSpec(d)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		parse += perCall(calls, func() {
			if _, err := serve.ParseSpec(d); err != nil {
				panic(err)
			}
		})
	}
	for _, spec := range specs {
		key += perCall(calls, func() {
			k, _ := spec.CacheKey(7)
			sink += int64(len(k))
		})
	}
	out.set("serve.parse_spec_us", parse/float64(len(docs))/1e3, "us")
	out.set("serve.cache_key_us", key/float64(len(specs))/1e3, "us")
	for _, r := range reqs {
		if r.err != nil || r.kind == cacheHit {
			continue
		}
		var line report.Line
		if err := json.Unmarshal(r.line, &line); err != nil {
			return err
		}
		out.set("report.marshal_us", perCall(calls, func() {
			b, _ := report.Marshal(line)
			sink += int64(len(b))
		})/1e3, "us")
		return nil
	}
	return errors.New("no cold result line to encode")
}

// checkpointLayers times CountsJob.Checkpoint at popsimd's default cadence
// of 2²⁰ interactions, on a counts-native majority run of 10⁶ agents.
func checkpointLayers(out *outcome, smoke bool) error {
	n, rounds := int64(1_000_000), 16
	if smoke {
		n, rounds = 100_000, 4
	}
	sys, err := popsim.NewSystem(popsim.SystemSpec{Model: popsim.TW, Protocol: protocols.Majority{}, Seed: 1,
		InitialCounts: []popsim.CountedState{{State: protocols.StrongA, Count: n * 55 / 100}, {State: protocols.StrongB, Count: n - n*55/100}}})
	if err != nil {
		return err
	}
	job, err := sys.NewCountsJob()
	if err != nil {
		return err
	}
	var total time.Duration
	var size int
	for i := 0; i < rounds; i++ {
		if err := job.RunSteps(1 << 20); err != nil {
			return err
		}
		t0 := time.Now()
		ck, err := job.Checkpoint()
		if err != nil {
			return err
		}
		total += time.Since(t0)
		size = ck.SizeBytes()
	}
	out.set("engine.checkpoint_us", float64(total.Nanoseconds())/float64(rounds)/1e3, "us")
	out.set("engine.checkpoint_bytes", float64(size), "bytes")
	return nil
}
