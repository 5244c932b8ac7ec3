package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"popsim"
	"popsim/internal/obs"
	"popsim/internal/par"
	"popsim/internal/report"
)

// Submission errors. The HTTP layer maps ErrQueueFull and ErrDraining to
// 429 + Retry-After (backpressure), everything else to 400.
var (
	ErrQueueFull    = errors.New("serve: job queue full")
	ErrDraining     = errors.New("serve: server draining")
	ErrUnknownJob   = errors.New("serve: unknown job")
	ErrNotResumable = errors.New("serve: job is not interrupted")
)

// errInterrupted marks a seed run stopped by cancellation/drain/timeout —
// the job parks as JobInterrupted (resumable) instead of failing.
var errInterrupted = errors.New("serve: run interrupted")

// JobState is a job's lifecycle position.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing seed runs.
	JobRunning JobState = "running"
	// JobDone: every seed run completed (terminal).
	JobDone JobState = "done"
	// JobFailed: a seed run errored (terminal).
	JobFailed JobState = "failed"
	// JobInterrupted: stopped by drain, cancel or timeout; completed seed
	// results are retained, in-flight counts runs parked as O(|Q|)
	// checkpoints. Resumable via Manager.Resume (terminal until then).
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state ends a (possibly resumable) run.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobInterrupted
}

// Job is one submitted scenario: Spec.Runs seed runs fanned out on the
// per-job pool, each producing one report.Line. Results append in seed order
// and stream live, so a cached resubmission replays its cold run byte for
// byte; an interrupted job retains them plus per-seed checkpoints, and
// Resume continues exactly where it stopped — bit-identically for
// counts-backend seeds, from scratch for vector seeds.
type Job struct {
	// ID is the job handle: "j<seq>-<spec hash>". Unique per submission, so
	// resubmitting a scenario makes a new job whose seed runs are served
	// from the result cache.
	ID string
	// Spec is the normalized scenario.
	Spec *Spec

	mu          sync.Mutex
	state       JobState
	errMsg      string
	lines       []report.Line
	held        map[int64]report.Line // finished ahead of an earlier seed
	doneSeeds   map[int64]bool
	checkpoints map[int64]*popsim.CountCheckpoint
	// probes holds one live-progress probe per seed run that has started
	// simulating (cache-served seeds never arm one). Probes persist across
	// interrupt/resume — the same probe follows the seed's whole history —
	// and stay readable after the job is terminal.
	probes   map[int64]*obs.RunProbe
	cancel   context.CancelFunc
	notify   chan struct{}
	created  time.Time
	finished time.Time
}

// CheckpointStatus describes one parked seed checkpoint in a job status.
type CheckpointStatus struct {
	Seed      int64 `json:"seed"`
	Steps     int   `json:"steps"`
	States    int   `json:"states"`
	SizeBytes int   `json:"size_bytes"`
}

// JobStatus is the JSON form of GET /jobs/{id}.
type JobStatus struct {
	ID          string             `json:"id"`
	State       JobState           `json:"state"`
	Spec        *Spec              `json:"spec"`
	Runs        int                `json:"runs"`
	Completed   int                `json:"completed"`
	Passed      int                `json:"passed"`
	Error       string             `json:"error,omitempty"`
	Checkpoints []CheckpointStatus `json:"checkpoints,omitempty"`
	ElapsedSec  float64            `json:"elapsed_sec"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Runs:      j.Spec.Runs,
		Completed: len(j.doneSeeds),
	}
	for _, l := range j.lines {
		if l.Pass {
			st.Passed++
		}
	}
	for _, l := range j.held {
		if l.Pass {
			st.Passed++
		}
	}
	st.Error = j.errMsg
	for seed, ck := range j.checkpoints {
		st.Checkpoints = append(st.Checkpoints, CheckpointStatus{
			Seed: seed, Steps: ck.Steps(), States: ck.States(), SizeBytes: ck.SizeBytes(),
		})
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedSec = end.Sub(j.created).Seconds()
	return st
}

// Lines returns the completed result lines (append-only; safe shared
// snapshot) and whether the job is terminal.
func (j *Job) Lines() ([]report.Line, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines[:len(j.lines):len(j.lines)], j.state.Terminal()
}

// Watch returns a channel closed at the next job change (new line or state
// transition); callers re-Watch after each wake.
func (j *Job) Watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notify
}

// changed wakes watchers; callers hold j.mu.
func (j *Job) changed() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendLine records a finished seed run. Lines are emitted in seed order:
// one that finishes ahead of an earlier seed is held back until that seed's
// line arrives. (held stays nil while lines arrive in order: jobs are kept
// for the server's lifetime.)
func (j *Job) appendLine(seed int64, line report.Line) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.doneSeeds[seed] = true
	delete(j.checkpoints, seed)
	if seed != j.Spec.Seed+int64(len(j.lines)) {
		if j.held == nil {
			j.held = make(map[int64]report.Line)
		}
		j.held[seed] = line
	} else {
		j.lines = append(j.lines, line)
		for {
			next := j.Spec.Seed + int64(len(j.lines))
			l, ok := j.held[next]
			if !ok {
				break
			}
			j.lines = append(j.lines, l)
			delete(j.held, next)
		}
		if len(j.held) == 0 {
			j.held = nil
		}
	}
	j.changed()
}

func (j *Job) seedDone(seed int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doneSeeds[seed]
}

func (j *Job) checkpointFor(seed int64) *popsim.CountCheckpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoints[seed]
}

func (j *Job) storeCheckpoint(seed int64, ck *popsim.CountCheckpoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.checkpoints[seed] = ck
	j.changed()
}

// probeFor returns the seed run's live-progress probe, arming one on first
// use. Resumed runs get the probe their interrupted predecessor published
// into, so steps/batch totals continue rather than restart.
func (j *Job) probeFor(seed int64) *obs.RunProbe {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.probes[seed]
	if p == nil {
		p = obs.NewRunProbe()
		j.probes[seed] = p
	}
	return p
}

// SeedProgress is one seed run's live probe view inside a JobProgress.
type SeedProgress struct {
	Seed  int64        `json:"seed"`
	Probe obs.Snapshot `json:"probe"`
}

// JobProgress is the JSON form of GET /jobs/{id}/progress: a point-in-time
// view of a job mid-flight, assembled from the per-seed probes the engines
// publish into at their existing boundaries. Steps and InteractionsSec sum
// the per-seed views; Seeds carries the full breakdown (backend tier, batch
// stats, checkpoint age, worker barrier waits) per seed that has started
// simulating.
type JobProgress struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Runs      int      `json:"runs"`
	Completed int      `json:"completed"`
	// Steps is the total interactions applied across seed runs so far
	// (live runs included — it grows while the job runs).
	Steps int64 `json:"steps"`
	// InteractionsSec sums the per-seed windowed (EWMA) rates; ~0 for
	// idle/terminal jobs.
	InteractionsSec float64        `json:"interactions_per_sec"`
	Seeds           []SeedProgress `json:"seeds,omitempty"`
	ElapsedSec      float64        `json:"elapsed_sec"`
}

// Progress snapshots the job's live progress. Safe to call at scrape cadence
// while seed runs execute: probes are read with atomic loads on the caller's
// clock, never blocking the simulation hot loops.
func (j *Job) Progress() JobProgress {
	j.mu.Lock()
	pr := JobProgress{
		ID:        j.ID,
		State:     j.state,
		Runs:      j.Spec.Runs,
		Completed: len(j.doneSeeds),
	}
	seeds := make([]int64, 0, len(j.probes))
	probes := make([]*obs.RunProbe, 0, len(j.probes))
	for s := range j.probes {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	for _, s := range seeds {
		probes = append(probes, j.probes[s])
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	pr.ElapsedSec = end.Sub(j.created).Seconds()
	j.mu.Unlock()
	// Snapshot outside j.mu: each probe serializes its own EWMA window.
	for i, p := range probes {
		snap := p.Snapshot()
		pr.Steps += snap.Steps
		pr.InteractionsSec += snap.InteractionsSec
		pr.Seeds = append(pr.Seeds, SeedProgress{Seed: seeds[i], Probe: snap})
	}
	return pr
}

func (j *Job) setState(s JobState, errMsg string, cancel context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.cancel = cancel
	if s == JobFailed {
		// No earlier line will come: release the held ones, still in seed
		// order. (An interrupted job keeps them for its resume.)
		seeds := make([]int64, 0, len(j.held))
		for seed := range j.held {
			seeds = append(seeds, seed)
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		for _, seed := range seeds {
			j.lines = append(j.lines, j.held[seed])
		}
		j.held = nil
	}
	if s.Terminal() {
		j.finished = time.Now()
	}
	j.changed()
}

// Cancel interrupts a queued or running job (no-op once terminal).
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Options tunes a Manager.
type Options struct {
	// Workers is the number of concurrent jobs (default 2).
	Workers int
	// QueueCap bounds the queued-not-running backlog; submissions past it
	// bounce with ErrQueueFull (default 16).
	QueueCap int
	// CacheEntries bounds the result cache (default 4096; ≤ 0 with
	// DisableCache disables it).
	CacheEntries int
	// DisableCache turns the result cache off.
	DisableCache bool
	// JobTimeout caps each job's wall-clock run time; expired jobs park as
	// interrupted, checkpoints in hand (0 = none).
	JobTimeout time.Duration
	// CheckpointEvery is the counts-backend snapshot cadence in
	// interactions: between slices of this size a run stores a fresh O(|Q|)
	// checkpoint and honors cancellation (default 1<<20).
	CheckpointEvery int
	// SeedWorkers bounds each job's per-seed fan-out (0 = GOMAXPROCS).
	SeedWorkers int
	// Logger receives structured job-lifecycle events (submit, start,
	// done/failed/interrupted, resume, drain). nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.DisableCache {
		o.CacheEntries = 0
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Manager owns the job queue, the worker pool, the result cache and the
// metrics — the server behind the HTTP API. Jobs flow
// queued → running → done|failed|interrupted; interrupted jobs re-enter the
// queue via Resume.
type Manager struct {
	opts    Options
	metrics *Metrics
	cache   *Cache

	mu       sync.Mutex
	jobs     map[string]*Job
	queue    chan *Job
	seq      int64
	draining bool

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewManager starts a manager and its workers.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		opts:    opts,
		metrics: NewMetrics(),
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, opts.QueueCap),
	}
	m.cache = NewCache(opts.CacheEntries, m.metrics)
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range m.queue {
				m.runJob(job)
			}
		}()
	}
	return m
}

// Metrics returns the manager's counter set.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Cache returns the result cache.
func (m *Manager) Cache() *Cache { return m.cache }

// Submit validates nothing further (the spec is already normalized) and
// enqueues a new job, bouncing with ErrQueueFull/ErrDraining under
// backpressure.
func (m *Manager) Submit(spec *Spec) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.metrics.JobsRejected.Add(1)
		return nil, ErrDraining
	}
	m.seq++
	job := &Job{
		ID:          fmt.Sprintf("j%d-%s", m.seq, spec.Hash()),
		Spec:        spec,
		state:       JobQueued,
		doneSeeds:   make(map[int64]bool),
		checkpoints: make(map[int64]*popsim.CountCheckpoint),
		probes:      make(map[int64]*obs.RunProbe),
		notify:      make(chan struct{}),
		created:     time.Now(),
	}
	select {
	case m.queue <- job:
		m.jobs[job.ID] = job
		m.metrics.JobsSubmitted.Add(1)
		m.metrics.QueueDepth.Add(1)
		m.opts.Logger.Info("job submitted", "job", job.ID,
			"protocol", spec.Protocol, "n", spec.N, "runs", spec.Runs,
			"backend", spec.Backend)
		return job, nil
	default:
		m.seq--
		m.metrics.JobsRejected.Add(1)
		m.opts.Logger.Warn("job rejected", "reason", "queue full",
			"protocol", spec.Protocol, "n", spec.N)
		return nil, ErrQueueFull
	}
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Resume re-enqueues an interrupted job: completed seed results stay, parked
// counts checkpoints continue bit-identically, seeds that never got a
// checkpoint restart.
func (m *Manager) Resume(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.metrics.JobsRejected.Add(1)
		return nil, ErrDraining
	}
	job, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.mu.Lock()
	resumable := job.state == JobInterrupted
	if resumable {
		job.state = JobQueued
		job.errMsg = ""
		job.changed()
	}
	job.mu.Unlock()
	if !resumable {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotResumable, id, job.Status().State)
	}
	select {
	case m.queue <- job:
		m.metrics.QueueDepth.Add(1)
		m.opts.Logger.Info("job resumed", "job", job.ID)
		return job, nil
	default:
		job.setState(JobInterrupted, "", nil)
		m.metrics.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
}

// Drain stops accepting work, interrupts running jobs (counts runs park
// their checkpoints) and waits for the workers, bounded by ctx — the
// SIGTERM path of cmd/popsimd.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	var active []*Job
	for _, j := range m.jobs {
		active = append(active, j)
	}
	if !already {
		close(m.queue)
	}
	m.mu.Unlock()
	if !already {
		m.opts.Logger.Info("draining", "jobs", len(active))
	}
	for _, j := range active {
		j.Cancel()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with no deadline (tests; prefer Drain with a ctx in servers).
func (m *Manager) Close() { _ = m.Drain(context.Background()) }

// Draining reports whether Drain has begun — the readiness signal behind
// GET /readyz (a draining server still answers /healthz OK: the process is
// live, it just must not receive new work).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// runningJobs lists the currently running jobs, ID-sorted — the per-job
// gauge set of the Prometheus exposition.
func (m *Manager) runningJobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		running := j.state == JobRunning
		j.mu.Unlock()
		if running {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// runJob executes one job on a worker.
func (m *Manager) runJob(job *Job) {
	m.metrics.QueueDepth.Add(-1)
	if m.Draining() {
		// Never started: fully resumable, nothing to checkpoint.
		job.setState(JobInterrupted, "server draining", nil)
		m.metrics.JobsInterrupted.Add(1)
		m.opts.Logger.Info("job interrupted", "job", job.ID, "reason", "server draining")
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if m.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), m.opts.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	defer cancel()
	job.setState(JobRunning, "", cancel)
	m.metrics.Running.Add(1)
	defer m.metrics.Running.Add(-1)
	m.opts.Logger.Info("job started", "job", job.ID, "runs", job.Spec.Runs)
	start := time.Now()

	results := par.Ensemble(ctx, job.Spec.Seeds(), m.opts.SeedWorkers, func(ctx context.Context, seed int64) (struct{}, error) {
		return struct{}{}, m.runSeed(ctx, job, seed)
	})
	var interrupted bool
	var firstErr error
	for _, r := range results {
		switch {
		case r.Err == nil:
		case errors.Is(r.Err, errInterrupted), errors.Is(r.Err, context.Canceled), errors.Is(r.Err, context.DeadlineExceeded):
			interrupted = true
		case firstErr == nil:
			firstErr = fmt.Errorf("seed %d: %w", r.Seed, r.Err)
		}
	}
	elapsed := time.Since(start)
	switch {
	case firstErr != nil:
		job.setState(JobFailed, firstErr.Error(), nil)
		m.metrics.JobsFailed.Add(1)
		m.opts.Logger.Error("job failed", "job", job.ID, "err", firstErr, "elapsed", elapsed)
	case interrupted:
		msg := "interrupted"
		if ctx.Err() == context.DeadlineExceeded {
			msg = fmt.Sprintf("job timeout (%s) exceeded", m.opts.JobTimeout)
		}
		job.setState(JobInterrupted, msg, nil)
		m.metrics.JobsInterrupted.Add(1)
		m.opts.Logger.Info("job interrupted", "job", job.ID, "reason", msg, "elapsed", elapsed)
	default:
		job.setState(JobDone, "", nil)
		m.metrics.JobsDone.Add(1)
		m.opts.Logger.Info("job done", "job", job.ID, "elapsed", elapsed)
	}
}

// runSeed completes one seed run: cache lookup first, then simulation on the
// backend the spec selects. Counts-backend runs execute in CheckpointEvery
// slices, storing a fresh checkpoint and honoring cancellation between
// slices; on interruption the final checkpoint parks in the job.
func (m *Manager) runSeed(ctx context.Context, job *Job, seed int64) error {
	if job.seedDone(seed) {
		return nil
	}
	key, err := job.Spec.CacheKey(seed)
	if err != nil {
		return err
	}
	if line, ok := m.cache.Get(key); ok {
		line.Notes = append(line.Notes[:len(line.Notes):len(line.Notes)], "cache=hit")
		job.appendLine(seed, line)
		return nil
	}
	line, err := m.simulateSeed(ctx, job, seed)
	if err != nil {
		return err
	}
	m.cache.Put(key, line)
	job.appendLine(seed, line)
	return nil
}

func (m *Manager) simulateSeed(ctx context.Context, job *Job, seed int64) (report.Line, error) {
	spec := job.Spec
	sysSpec, w, err := spec.Build(seed)
	if err != nil {
		return report.Line{}, err
	}
	sys, err := popsim.NewSystem(sysSpec)
	if err != nil {
		return report.Line{}, err
	}
	if spec.UseCountsBackend() {
		return m.runCountsSeed(ctx, job, seed, sys, w)
	}
	return m.runVectorSeed(ctx, job, seed, sys, w)
}

func (m *Manager) runCountsSeed(ctx context.Context, job *Job, seed int64, sys *popsim.System, w Workload) (report.Line, error) {
	spec := job.Spec
	var cj *popsim.CountsJob
	var err error
	if ck := job.checkpointFor(seed); ck != nil {
		cj, err = sys.ResumeCountsJob(ck)
	} else {
		cj, err = sys.NewCountsJob()
	}
	if err != nil {
		return report.Line{}, err
	}
	cj.SetProbe(job.probeFor(seed))
	pred := w.CountsDone(spec.N)
	start := cj.Steps()
	hit, converged := 0, false
	for {
		if ctx.Err() != nil {
			ck, ckErr := cj.Checkpoint()
			if ckErr != nil {
				return report.Line{}, ckErr
			}
			job.storeCheckpoint(seed, ck)
			m.metrics.Interactions.Add(int64(cj.Steps() - start))
			return report.Line{}, errInterrupted
		}
		remaining := spec.Horizon - cj.Steps()
		if remaining <= 0 {
			break
		}
		slice := min(m.opts.CheckpointEvery, remaining)
		hit, converged, err = cj.Run(pred, 0, slice)
		if err != nil {
			return report.Line{}, err
		}
		if converged {
			break
		}
		// Periodic snapshot: even a hard kill loses at most one slice.
		ck, ckErr := cj.Checkpoint()
		if ckErr != nil {
			return report.Line{}, ckErr
		}
		job.storeCheckpoint(seed, ck)
	}
	steps := cj.Steps()
	if converged {
		steps = hit
	}
	m.metrics.Interactions.Add(int64(cj.Steps() - start))
	return m.resultLine(spec, seed, cj.Backend(), steps, converged, cj.SimEvents()), nil
}

func (m *Manager) runVectorSeed(ctx context.Context, job *Job, seed int64, sys *popsim.System, w Workload) (report.Line, error) {
	spec := job.Spec
	sys.SetProbe(job.probeFor(seed))
	pred := w.Done(spec.N)
	const every = 64
	quantum := 16 * every
	steps, converged := 0, false
	for steps < spec.Horizon {
		// Vector runs are not checkpointable; interruption restarts the
		// seed on resume.
		if ctx.Err() != nil {
			m.metrics.Interactions.Add(int64(steps))
			return report.Line{}, errInterrupted
		}
		chunk := min(quantum, spec.Horizon-steps)
		hit, ok, err := sys.RunUntilEvery(pred, every, chunk)
		if err != nil {
			m.metrics.Interactions.Add(int64(steps))
			return report.Line{}, err
		}
		if ok {
			steps += hit
			converged = true
			break
		}
		steps += chunk
	}
	m.metrics.Interactions.Add(int64(steps))
	return m.resultLine(spec, seed, BackendVector, steps, converged, sys.SimulatedSteps()), nil
}

// resultLine renders one completed seed run in the shared JSON-lines schema
// — the same shape `experiments -json` emits, cross-checked by tests on
// both sides.
func (m *Manager) resultLine(spec *Spec, seed int64, backend string, steps int, converged bool, simEvents int) report.Line {
	claim := fmt.Sprintf("%s converges (model %s, n=%d)", spec.Protocol, spec.Model, spec.N)
	if spec.Sim != "" {
		claim = fmt.Sprintf("%s via %s simulator converges (model %s, n=%d)", spec.Protocol, spec.Sim, spec.Model, spec.N)
	}
	if spec.Topology != "" {
		claim = fmt.Sprintf("%s [topology %s]", claim, spec.Topology)
	}
	tbl := report.NewTable("run", "protocol", "model", "n", "backend", "steps", "converged")
	tbl.AddRow(spec.Protocol, spec.Model, spec.N, backend, steps, converged)
	notes := []string{"backend=" + backend, fmt.Sprintf("steps=%d", steps)}
	if spec.Topology != "" {
		notes = append(notes, "topology="+spec.Topology)
	}
	if spec.Sim != "" {
		notes = append(notes, fmt.Sprintf("simulated_events=%d", simEvents))
	}
	return report.Line{
		ID:     fmt.Sprintf("seed=%d", seed),
		Claim:  claim,
		Pass:   converged,
		Seed:   seed,
		Notes:  notes,
		Tables: []report.TableJSON{report.FromTable(tbl)},
	}
}
