package serve

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"popsim/internal/report"
)

func waitTerminal(t *testing.T, job *Job, timeout time.Duration) JobState {
	t.Helper()
	deadline := time.After(timeout)
	for {
		watch := job.Watch()
		if _, terminal := job.Lines(); terminal {
			return job.Status().State
		}
		select {
		case <-watch:
		case <-deadline:
			t.Fatalf("job %s not terminal after %s (state %s)", job.ID, timeout, job.Status().State)
		}
	}
}

func mustSpec(t *testing.T, s Spec) *Spec {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return &s
}

func stepsOf(t *testing.T, l report.Line) int {
	t.Helper()
	for _, n := range l.Notes {
		if v, ok := strings.CutPrefix(n, "steps="); ok {
			steps, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad steps note %q: %v", n, err)
			}
			return steps
		}
	}
	t.Fatalf("no steps note in %v", l.Notes)
	return 0
}

// TestManagerVectorEnsemble runs a small vector-backend ensemble to
// completion and checks results, metrics and the cache round trip on an
// identical resubmission.
func TestManagerVectorEnsemble(t *testing.T) {
	m := NewManager(Options{Workers: 2, QueueCap: 8})
	defer m.Close()
	spec := mustSpec(t, Spec{Protocol: "or", N: 256, Runs: 3, Seed: 7})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job, 30*time.Second); st != JobDone {
		t.Fatalf("state %s, err %q", st, job.Status().Error)
	}
	lines, _ := job.Lines()
	if len(lines) != 3 {
		t.Fatalf("%d result lines, want 3", len(lines))
	}
	seen := map[int64]bool{}
	for _, l := range lines {
		if !l.Pass {
			t.Fatalf("seed %d did not converge: %v", l.Seed, l.Notes)
		}
		if len(l.Tables) != 1 || len(l.Tables[0].Rows) != 1 {
			t.Fatalf("seed %d tables: %+v", l.Seed, l.Tables)
		}
		seen[l.Seed] = true
	}
	if !seen[7] || !seen[8] || !seen[9] {
		t.Fatalf("seeds covered: %v", seen)
	}
	if got := m.Metrics().Snapshot(); got.JobsDone != 1 || got.CacheMisses != 3 || got.Interactions == 0 {
		t.Fatalf("metrics after cold run: %+v", got)
	}

	// Identical resubmission: a fresh job, every seed served from cache.
	again, err := m.Submit(mustSpec(t, Spec{Protocol: "or", N: 256, Runs: 3, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == job.ID {
		t.Fatal("resubmission reused the job ID")
	}
	if st := waitTerminal(t, again, 30*time.Second); st != JobDone {
		t.Fatalf("resubmission state %s", st)
	}
	cached, _ := again.Lines()
	for i, l := range cached {
		if l.Notes[len(l.Notes)-1] != "cache=hit" {
			t.Fatalf("line %d not cache-served: %v", i, l.Notes)
		}
	}
	snap := m.Metrics().Snapshot()
	if snap.CacheHits != 3 || snap.CacheHitRate <= 0 {
		t.Fatalf("cache hits after resubmission: %+v", snap)
	}
	// Cached and cold results agree.
	for i := range lines {
		if stepsOf(t, lines[i]) != stepsOf(t, cached[i]) {
			t.Fatalf("cached steps diverge at %d", i)
		}
	}
}

// TestManagerCountsBackendSelected pins the backend policy: forced counts,
// and auto at the counts threshold.
func TestManagerCountsBackendSelected(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueCap: 4})
	defer m.Close()
	for _, s := range []Spec{
		{Protocol: "or", N: 4096, Backend: BackendCounts, Seed: 3},
		{Protocol: "or", N: 1 << 16, Seed: 3}, // auto → counts at DefaultCountsBackendN
	} {
		job, err := m.Submit(mustSpec(t, s))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job, 60*time.Second); st != JobDone {
			t.Fatalf("state %s, err %q", st, job.Status().Error)
		}
		lines, _ := job.Lines()
		if got := lines[0].Notes[0]; got != "backend=counts" {
			t.Fatalf("n=%d: %v", s.N, lines[0].Notes)
		}
	}
}

// TestManagerBatchBackendReported: a seed run on the batch tier reports the
// tier that ran, the name RunUntilCounts and the run's probe use.
func TestManagerBatchBackendReported(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueCap: 4})
	defer m.Close()
	job, err := m.Submit(mustSpec(t, Spec{Protocol: "or", N: 4096, Backend: BackendCounts, Batch: "on", Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job, 60*time.Second); st != JobDone {
		t.Fatalf("state %s, err %q", st, job.Status().Error)
	}
	lines, _ := job.Lines()
	if got := lines[0].Notes[0]; got != "backend=counts-batch" {
		t.Fatalf("batch seed notes: %v", lines[0].Notes)
	}
	if tier := job.Progress().Seeds[0].Probe.Backend; tier != "counts-batch" {
		t.Fatalf("probe tier %q", tier)
	}
}

// TestManagerBackpressure fills the bounded queue behind a slow job and
// checks ErrQueueFull, then drains and checks ErrDraining.
func TestManagerBackpressure(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueCap: 1, CheckpointEvery: 1 << 16})
	// A long counts run (≥ tens of millions of interactions) occupies the
	// single worker while the test probes the queue.
	blocker := mustSpec(t, Spec{Protocol: "majority", N: 1 << 20, Backend: BackendCounts, Seed: 1})
	bjob, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has dequeued the blocker, freeing the queue slot.
	deadline := time.After(30 * time.Second)
	for {
		watch := bjob.Watch()
		if bjob.Status().State != JobQueued {
			break
		}
		select {
		case <-watch:
		case <-deadline:
			t.Fatal("blocker never started")
		}
	}
	small := Spec{Protocol: "majority", N: 64, Seed: 2}
	if _, err := m.Submit(mustSpec(t, small)); err != nil {
		t.Fatalf("queue slot 1: %v", err)
	}
	if _, err := m.Submit(mustSpec(t, small)); err != ErrQueueFull {
		t.Fatalf("over-cap submit: %v, want ErrQueueFull", err)
	}
	if m.Metrics().Snapshot().JobsRejected != 1 {
		t.Fatalf("rejection not counted: %+v", m.Metrics().Snapshot())
	}
	m.Close()
	if _, err := m.Submit(mustSpec(t, small)); err != ErrDraining {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	// The drain parked the blocker resumably (a checkpoint when the cancel
	// caught it mid-simulation; none if it landed before the first slice).
	if st := bjob.Status(); !st.State.Terminal() {
		t.Fatalf("blocker not terminal after drain: %+v", st)
	}
}

// TestManagerInterruptResumeBitIdentical is the serving-layer half of the
// checkpoint determinism story: a million-agent counts job cancelled mid-run
// parks an O(|Q|) checkpoint, and Resume continues it to the exact hitting
// step an uninterrupted run reports.
func TestManagerInterruptResumeBitIdentical(t *testing.T) {
	testManagerInterruptResume(t, Spec{Protocol: "or", N: 1 << 20, Backend: BackendCounts, Seed: 11})
}

// TestManagerInterruptResumeBatch pins the same interrupt/resume contract on
// the collision-aware batch tier: a batch-dynamics job cancelled mid-run
// parks a run-boundary checkpoint and resumes to the identical exact hitting
// step (batch mode is run identity — the checkpoint records it).
func TestManagerInterruptResumeBatch(t *testing.T) {
	testManagerInterruptResume(t, Spec{Protocol: "or", N: 1 << 20, Backend: BackendCounts, Batch: "on", Seed: 11})
}

func testManagerInterruptResume(t *testing.T, spec Spec) {
	t.Helper()

	// Uninterrupted reference (cache off so both runs really simulate).
	ref := NewManager(Options{Workers: 1, QueueCap: 2, DisableCache: true})
	refJob, err := ref.Submit(mustSpec(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, refJob, 120*time.Second); st != JobDone {
		t.Fatalf("reference state %s, err %q", st, refJob.Status().Error)
	}
	refLines, _ := refJob.Lines()
	refSteps := stepsOf(t, refLines[0])
	ref.Close()

	// Interrupted run: cancel as soon as the first periodic checkpoint
	// lands, then resume (repeatedly, in case a resume gets cancelled by
	// nothing — it won't — or parks again) until done.
	m := NewManager(Options{Workers: 1, QueueCap: 2, DisableCache: true, CheckpointEvery: 1 << 18})
	defer m.Close()
	job, err := m.Submit(mustSpec(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(120 * time.Second)
	for {
		watch := job.Watch()
		st := job.Status()
		if len(st.Checkpoints) > 0 || st.State.Terminal() {
			break
		}
		select {
		case <-watch:
		case <-deadline:
			t.Fatal("no checkpoint appeared")
		}
	}
	job.Cancel()
	if st := waitTerminal(t, job, 120*time.Second); st == JobInterrupted {
		st := job.Status()
		if len(st.Checkpoints) != 1 || st.Checkpoints[0].Steps == 0 {
			t.Fatalf("interrupted without a usable checkpoint: %+v", st)
		}
		if st.Checkpoints[0].SizeBytes > 1<<16 {
			t.Fatalf("checkpoint not O(|Q|): %d bytes for n=2^20", st.Checkpoints[0].SizeBytes)
		}
		for tries := 0; ; tries++ {
			if _, err := m.Resume(job.ID); err != nil {
				t.Fatal(err)
			}
			if s := waitTerminal(t, job, 120*time.Second); s == JobDone {
				break
			}
			if tries > 8 {
				t.Fatalf("job never completed across resumes: %+v", job.Status())
			}
		}
	} else if st != JobDone {
		t.Fatalf("state %s, err %q", st, job.Status().Error)
	}
	lines, _ := job.Lines()
	if got := stepsOf(t, lines[0]); got != refSteps {
		t.Fatalf("resumed hitting step %d, uninterrupted %d", got, refSteps)
	}
	if !lines[0].Pass {
		t.Fatal("resumed run did not converge")
	}

	// Resume on a finished job is rejected.
	if _, err := m.Resume(job.ID); err == nil {
		t.Fatal("resume of a done job accepted")
	}
}

// TestManagerDrainParksQueuedJobs checks drain marks never-started jobs
// interrupted (fully resumable) rather than losing them.
func TestManagerDrainParksQueuedJobs(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueCap: 4, CheckpointEvery: 1 << 16})
	blocker, err := m.Submit(mustSpec(t, Spec{Protocol: "majority", N: 1 << 20, Backend: BackendCounts, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(mustSpec(t, Spec{Protocol: "majority", N: 64, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if st := queued.Status().State; st != JobInterrupted && st != JobDone {
		t.Fatalf("queued job state after drain: %s", st)
	}
	if st := blocker.Status().State; !st.Terminal() {
		t.Fatalf("blocker state after drain: %s", st)
	}
	if m.Metrics().Snapshot().Running != 0 {
		t.Fatal("running gauge nonzero after drain")
	}
}
