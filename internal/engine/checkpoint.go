// Counts-backend checkpoint/resume: a CountEngine's complete execution state
// is O(|Q|) — the interner table (one canonical representative per dense ID),
// the counts vector, and a single uint64 of sampler stream position — so a
// million-agent run snapshots into a few hundred bytes and resumes
// bit-identically. This is the substrate of the serving layer's
// checkpoint/resume (internal/serve): interrupted jobs park their engines as
// CountCheckpoints and continue later as if never stopped.
//
// The contract leans on two existing invariants. First, the sampler's
// without-replacement pool is a pure function of the live counts at every
// block-reload boundary (sched.CountScheduler reloads it there anyway), so a
// checkpoint taken at a boundary needs no pool state at all — Checkpoint
// steps forward to the next boundary (at most BlockLen−1 interactions, zero
// in exact mode) rather than serializing three pool representations. Second,
// SplitMix64 stream positions are single counters (sched.BufStream.Snapshot),
// so the RNG restores exactly. Everything else — the memoized transition
// table, the chunk-bisection scratch — is a cache rebuilt on demand with no
// effect on the pair stream.
package engine

import (
	"fmt"

	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
)

// CountCheckpoint is a resumable snapshot of a CountEngine: O(|Q|) storage,
// independent of the population size. States holds the interner table in
// dense-ID order (index == ID) — states whose count has dropped to zero are
// retained deliberately, so the resumed interner assigns every future state
// the same ID the uninterrupted run would, keeping the two runs' counts
// vectors byte-comparable, not merely multiset-equal.
//
// A checkpoint is passive data: it shares no mutable state with the engine it
// came from and stays valid after that engine steps on. Resuming requires the
// same (model, protocol) the original engine ran — the checkpoint carries
// execution position, not the workload definition; pairing it with the wrong
// workload is detected only insofar as the state table fails validation.
type CountCheckpoint struct {
	// Steps is the number of interactions applied when the snapshot was
	// taken (after the boundary fill — see CountEngine.Checkpoint).
	Steps int
	// BlockLen is the sampler's block length; determinism is per
	// (seed, BlockLen), so the resumed engine must and does reuse it. Zero
	// for batch-mode checkpoints (batch has no fixed block).
	BlockLen int
	// Batch records that the run executed the collision-aware batch dynamics
	// (engine mode is run identity, like BlockLen). Batch snapshots are taken
	// at run boundaries, where the scheduler's whole state is the RNG word.
	Batch bool `json:"batch,omitempty"`
	// RNG is the sampler's logical SplitMix64 stream state at the snapshot
	// point (sched.CountScheduler.StreamState).
	RNG uint64
	// EventCount carries the simulation-event total of TrackEvents runs.
	EventCount int
	// TrackEvents records whether the run counted simulation events; the
	// resumed engine inherits it (the option changes the transition cache's
	// aux channel, so it is part of run identity, not tuning).
	TrackEvents bool
	// States is the interner table in dense-ID order.
	States []pp.State
	// Counts is the configuration vector, indexed by dense ID.
	Counts pp.Counts
}

// N returns the population size described by the checkpoint.
func (ck *CountCheckpoint) N() int64 { return ck.Counts.N() }

// SizeBytes estimates the checkpoint's serialized footprint: the state keys,
// the counts vector and the fixed header — the "a few hundred bytes for a
// million-agent run" number the serving layer reports per job.
func (ck *CountCheckpoint) SizeBytes() int {
	n := 8 + 8 + 8 + 8 // steps, blockLen, rng, eventCount
	for _, s := range ck.States {
		n += len(s.Key()) + 1
	}
	return n + 8*len(ck.Counts)
}

// Checkpoint snapshots the engine into a resumable CountCheckpoint. To keep
// the snapshot O(|Q|) it is taken at a sampler block boundary: if the engine
// sits mid-block, Checkpoint first applies the remaining interactions of the
// current block (at most BlockLen−1; zero in exact mode) — the same
// interactions an uninterrupted run would apply next, so the fill never
// perturbs the execution, it only rounds the snapshot position up. Read the
// actual snapshot position from the returned Steps.
func (ce *CountEngine) Checkpoint() (*CountCheckpoint, error) {
	// Batch mode's boundary is a run boundary: fill the active run's owed
	// interactions (its un-applied expanded pairs plus the terminating
	// collision), after which the scheduler's whole state is one stream word.
	if rem := ce.pendingSteps(); rem > 0 {
		if err := ce.RunSteps(rem); err != nil {
			return nil, fmt.Errorf("checkpoint boundary fill: %w", err)
		}
	}
	ck := &CountCheckpoint{
		Steps:       ce.steps,
		Batch:       ce.batch,
		EventCount:  ce.eventCount,
		TrackEvents: ce.trackEvents,
		States:      make([]pp.State, ce.in.Len()),
		Counts:      ce.counts.Clone(),
	}
	if ce.batch {
		ck.RNG = ce.bs.StreamState()
	} else {
		ck.BlockLen = ce.cs.BlockLen()
		ck.RNG = ce.cs.StreamState()
	}
	for i := range ck.States {
		ck.States[i] = ce.in.State(uint32(i))
	}
	ce.probe.PublishCheckpoint(int64(ck.Steps))
	return ck, nil
}

// ResumeCountEngine reconstructs a CountEngine from a checkpoint of a run of
// protocol p under model k. The resumed engine's pair stream, counts vector
// indexing, step counter and event counter continue the snapshotted run
// bit-identically (the checkpoint determinism suite pins final counts and
// exact hitting steps against uninterrupted runs for every protocol × mode).
// CountOptions.BlockLen and TrackEvents are taken from the checkpoint, not
// opts — they are run identity; MaxStates remains a tuning knob.
func ResumeCountEngine(k model.Kind, p any, ck *CountCheckpoint, opts CountOptions) (*CountEngine, error) {
	if len(ck.States) == 0 || len(ck.States) != len(ck.Counts) {
		return nil, fmt.Errorf("%w: checkpoint table %d states vs %d counts", ErrConfig, len(ck.States), len(ck.Counts))
	}
	if k.OneWay() {
		if _, ok := p.(pp.OneWay); !ok {
			return nil, fmt.Errorf("%w: model %v needs a pp.OneWay protocol", ErrConfig, k)
		}
	} else if _, ok := p.(pp.TwoWay); !ok {
		return nil, fmt.Errorf("%w: model %v needs a pp.TwoWay protocol", ErrConfig, k)
	}
	table := pp.Configuration(ck.States)
	wrapped := sim.AnyWrapped(table)
	if wrapped && !sim.Canonicalized(table) {
		return nil, fmt.Errorf("%w: checkpoint carries wrapped states without canonical keys (sim.CanonicalKeyed)", ErrConfig)
	}
	if err := opts.topologyErr(); err != nil {
		return nil, err
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxFastStates
		if wrapped {
			maxStates = DefaultMaxWrappedStates
		}
	}
	if len(ck.States) > maxStates {
		return nil, fmt.Errorf("%w: %d distinct states > %d (checkpoint table)", ErrStateSpace, len(ck.States), maxStates)
	}
	in := pp.NewInterner()
	for i, s := range ck.States {
		if id := in.Intern(s); id != uint32(i) {
			return nil, fmt.Errorf("%w: checkpoint state %d interns as %d (duplicate key %q)", ErrConfig, i, id, s.Key())
		}
	}
	var aux model.AuxFunc
	if ck.TrackEvents {
		aux = sim.EventAux
	}
	cache := model.NewTransitionCache(k, p, in, aux)
	cache.SetMaxStride(256)
	ce := &CountEngine{
		kind:        k,
		protocol:    p,
		in:          in,
		cache:       cache,
		counts:      ck.Counts.Clone(),
		n:           int(ck.Counts.N()),
		steps:       ck.Steps,
		maxStates:   maxStates,
		trackEvents: ck.TrackEvents,
		eventCount:  ck.EventCount,
	}
	if ce.n < 2 {
		return nil, fmt.Errorf("%w: checkpoint population size %d < 2", ErrConfig, ce.n)
	}
	if ck.Batch {
		ce.batch = true
		ce.bs = sched.ResumeBatchScheduler(ck.RNG, ce.n)
		ce.bused = make([]int64, len(ce.counts))
	} else {
		ce.cs = sched.ResumeCountScheduler(ck.RNG, ck.BlockLen)
		ce.exact = ck.BlockLen == 1
	}
	return ce, nil
}
