package popsim

import (
	"errors"

	"popsim/internal/engine"
	"popsim/internal/pp"
)

// CountCheckpoint is an O(|Q|) resumable snapshot of a counts-backend run:
// the interner table, the counts vector and the sampler stream position —
// a few hundred bytes for a million-agent majority run. Checkpoints are
// passive values; pair one with a System built from the same spec (model,
// protocol, simulator) to resume, via System.ResumeCountsJob. See
// engine.CountCheckpoint for the underlying contract.
type CountCheckpoint struct {
	ck *engine.CountCheckpoint
}

// Steps returns the number of interactions applied when the snapshot was
// taken.
func (c *CountCheckpoint) Steps() int { return c.ck.Steps }

// States returns the number of distinct interned states the snapshot covers.
func (c *CountCheckpoint) States() int { return len(c.ck.States) }

// N returns the population size.
func (c *CountCheckpoint) N() int64 { return c.ck.N() }

// SimEvents returns the simulation-event total carried by the snapshot
// (simulator systems; 0 otherwise).
func (c *CountCheckpoint) SimEvents() int { return c.ck.EventCount }

// SizeBytes estimates the snapshot's serialized footprint — O(|Q|),
// independent of the population size.
func (c *CountCheckpoint) SizeBytes() int { return c.ck.SizeBytes() }

// Batch reports whether the snapshot came from a batch-dynamics run (engine
// mode is run identity: a batch checkpoint resumes in batch mode).
func (c *CountCheckpoint) Batch() bool { return c.ck.Batch }

// CountsJob is an interruptible counts-backend run: the same O(|Q|)
// execution RunUntilCounts selects for large populations, exposed as a
// stateful job that can be driven in slices, checkpointed between slices,
// and resumed — bit-identically — from a checkpoint by a later System built
// from the same spec. It is the execution surface of the simulation job
// server (internal/serve); unlike RunUntilCounts it never degrades to the
// batched engine (a checkpointable run must stay on the backend whose state
// snapshots in O(|Q|)), so state-space overflow surfaces as an error.
//
// Like every counts-backend execution, a CountsJob is a detached run from
// the owning System's current configuration: the System's own engine,
// scheduler position and trace are untouched. Not safe for concurrent use.
type CountsJob struct {
	ce      *engine.CountEngine
	view    *StateCounts
	project bool
}

// NewCountsJob builds an interruptible counts-backend run from the system's
// current configuration. Specs carrying a custom Scheduler or an Adversary
// are outside the counts contract (ErrCountsSpec), exactly as for
// RunUntilCounts; unlike RunUntilCounts there is no population threshold —
// the caller chose the backend explicitly.
func (s *System) NewCountsJob() (*CountsJob, error) {
	if s.spec.Scheduler != nil || s.spec.Adversary != nil {
		return nil, ErrCountsSpec
	}
	protocol := s.spec.Protocol
	if s.spec.Simulate != nil {
		protocol = s.spec.Simulate.Protocol
	}
	var ce *engine.CountEngine
	var err error
	if s.countsNative() {
		ce, err = engine.NewCountEngineFromCounts(s.spec.Model, protocol, s.cstates, s.ccounts, s.spec.Seed, s.countOptions())
	} else {
		ce, err = engine.NewCountEngine(s.spec.Model, protocol, s.eng.Config(), s.spec.Seed, s.countOptions())
	}
	if err != nil {
		return nil, err
	}
	return &CountsJob{ce: ce, view: &StateCounts{}, project: s.spec.Simulate != nil}, nil
}

// ResumeCountsJob reconstructs an interruptible counts-backend run from a
// checkpoint. The system supplies the workload identity (model, protocol,
// simulator) — it must be built from the same spec as the run the checkpoint
// came from; its Initial configuration and Seed are ignored in favor of the
// checkpoint's counts and stream position. The resumed run continues the
// snapshotted one bit-identically.
func (s *System) ResumeCountsJob(ck *CountCheckpoint) (*CountsJob, error) {
	if s.spec.Scheduler != nil || s.spec.Adversary != nil {
		return nil, ErrCountsSpec
	}
	if ck == nil || ck.ck == nil {
		return nil, errors.Join(ErrCountsSpec, errors.New("nil checkpoint"))
	}
	protocol := s.spec.Protocol
	if s.spec.Simulate != nil {
		protocol = s.spec.Simulate.Protocol
	}
	ce, err := engine.ResumeCountEngine(s.spec.Model, protocol, ck.ck, engine.CountOptions{
		MaxStates: s.spec.MaxFastStates,
		Topology:  s.spec.Topology,
	})
	if err != nil {
		return nil, err
	}
	return &CountsJob{ce: ce, view: &StateCounts{}, project: s.spec.Simulate != nil}, nil
}

// Run drives the job until pred holds on the (projected, for simulator
// systems) counts or maxSteps further interactions have been applied.
// every is a minimum interval between predicate checks (every < 1 means
// 64): checks happen at block boundaries, or run closes on the batch tier,
// at the first one at or after every interactions since the previous check.
// On convergence, hit is the ABSOLUTE exact hitting step (interactions since
// the job's initial configuration, checkpoints included) for absorbing
// predicates — identical for interrupted-and-resumed and uninterrupted runs;
// a non-absorbing predicate is observed only at boundaries. After a hit the
// job stops at the boundary that closed the hitting quantum, so Steps may
// exceed hit and a Checkpoint taken there needs no boundary fill. Run may be
// called repeatedly; each call continues where the previous one
// stopped, so callers interleave slices with Checkpoint and cancellation
// checks. The view passed to pred aliases live engine state and is valid
// only during the call.
func (j *CountsJob) Run(pred func(*StateCounts) bool, every, maxSteps int) (hit int, converged bool, err error) {
	if every < 1 {
		every = 64
	}
	if pred == nil {
		err := j.ce.RunSteps(maxSteps)
		return j.ce.Steps(), false, err
	}
	before := j.ce.Steps()
	consumed, ok, err := j.ce.RunUntil(func(c pp.Counts) bool {
		refreshView(j.view, j.ce.Interner(), c)
		if j.project {
			return pred(j.view.Projected())
		}
		return pred(j.view)
	}, every, maxSteps)
	return before + consumed, ok, err
}

// RunSteps applies exactly k further interactions.
func (j *CountsJob) RunSteps(k int) error { return j.ce.RunSteps(k) }

// Checkpoint snapshots the job into a resumable CountCheckpoint — O(|Q|).
// If the sampler sits mid-block the snapshot position is first rounded up to
// the next block boundary (at most BlockLen−1 additional interactions, which
// an uninterrupted run would have applied identically); read the actual
// position from the checkpoint's Steps.
func (j *CountsJob) Checkpoint() (*CountCheckpoint, error) {
	ck, err := j.ce.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &CountCheckpoint{ck: ck}, nil
}

// Probe returns the job's live-progress probe, arming one on first call.
// Safe to Snapshot from another goroutine while the job runs; the engine
// publishes at block/run boundaries and on every Checkpoint.
func (j *CountsJob) Probe() *RunProbe { return j.ce.Probe() }

// SetProbe attaches an existing probe to the job's engine; nil disarms.
func (j *CountsJob) SetProbe(probe *RunProbe) { j.ce.SetProbe(probe) }

// Steps returns the total interactions applied since the job's initial
// configuration (checkpoint-resume continues the counter).
func (j *CountsJob) Steps() int { return j.ce.Steps() }

// Backend names the counts tier the job runs: "counts", or "counts-batch"
// for the batch dynamics — the name RunUntilCounts reports in
// CountsRunResult.Backend.
func (j *CountsJob) Backend() string { return countsBackendName(j.ce) }

// BlockLen returns the sampler's block length (1 = exact per-pair mode).
func (j *CountsJob) BlockLen() int { return j.ce.BlockLen() }

// Batch reports whether the job runs the collision-aware batch dynamics
// (SystemSpec.CountBatch; automatic at DefaultCountBatchN agents).
func (j *CountsJob) Batch() bool { return j.ce.Batch() }

// InternedStates returns |Q| — the number of distinct states seen so far.
func (j *CountsJob) InternedStates() int { return j.ce.InternedStates() }

// SimEvents returns the simulation events emitted so far (simulator systems;
// 0 otherwise).
func (j *CountsJob) SimEvents() int { return j.ce.EventCount() }

// Counts returns a detached snapshot of the job's current counts, projected
// onto simulated states for simulator systems (matching what Run's predicate
// observes).
func (j *CountsJob) Counts() *StateCounts {
	sc := newStateCounts(j.ce.Interner(), j.ce.Counts())
	if j.project {
		sc = sc.Projected()
	}
	return sc
}
