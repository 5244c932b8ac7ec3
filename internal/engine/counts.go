// Counts backend: the engine's third execution mode, after stepwise and
// batched-agent-vector. A CountEngine holds the population as a
// configuration vector (pp.Counts — agents per interned state) instead of a
// per-agent ID vector, samples interactions at the state level
// (sched.CountScheduler), and applies memoized transitions
// (model.TransitionCache) as count deltas. Stepping never touches per-agent
// storage — the working set is O(|Q|), cache-resident at any population
// size — and observation (count predicates, convergence checks, hitting-time
// bisection) is O(|Q|) instead of the agent paths' O(n) materialization.
// This is what makes million-agent convergence runs cheap: the batched
// agent-vector path pays two random accesses into a multi-megabyte ID vector
// per interaction, the counts backend a few operations on a vector that fits
// in L1.
//
// The contract mirrors the hybrid runner's, not the batched fast path's:
// counts execution is a DISTINCT execution mode. Determinism is per
// (seed, block length); equivalence with the sequential scheduler is exact
// in distribution below the block threshold (per-pair sampling — the count
// process of the agent chain is itself a Markov chain, which the sampler
// realizes literally) and statistical above it (collision-free block
// sampling, perturbation O(1/√n) per interaction; see the contract note in
// internal/sched/counts.go). Agent identity does not exist at all in this
// mode: there are no interaction traces, no per-agent event provenance, no
// adversaries and no scripted schedules — runs needing any of those stay on
// the agent-vector paths.
package engine

import (
	"errors"
	"fmt"

	"popsim/internal/model"
	"popsim/internal/obs"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
)

// ErrStateSpace is returned when a counts run's interned state space
// outgrows its configured bound (CountOptions.MaxStates): the counts vector,
// the sampler pool and the transition table all scale with |Q|, so an
// unbounded state space erodes exactly the O(|Q|) advantage the backend
// exists for. Callers that can should finish such runs on the batched
// agent-vector engine (popsim.System does so automatically, reporting the
// reason), mirroring the slow-path fallback of WithFastLimits.
var ErrStateSpace = errors.New("engine: state space exceeds the counts-backend bound")

// ErrTopology is returned when a counts run names an interaction topology
// the counts backend cannot aggregate. Counts collapse the population to
// per-state multiplicities, which is only a faithful chain when every agent
// is exchangeable — on vertex-transitive families (complete, cycle, grid,
// random d-regular) under the annealed contract below, but never on graphs
// with distinguishable vertex classes (ring-of-cliques, power-law), where
// which *vertices* hold a state changes the reachable transitions. Callers
// should finish such runs on the agent-vector backends, which execute the
// quenched graph exactly (popsim.System routes there automatically).
var ErrTopology = errors.New("engine: topology is not counts-aggregable (not vertex-transitive)")

const (
	// DefaultCountExactN is the population threshold below which the counts
	// backend samples per pair (block length 1) — the exact sequential count
	// chain. At small n the O(1/√n) block perturbation is not yet
	// negligible, and neither is the performance gap worth it.
	DefaultCountExactN = 4096
	// DefaultMaxCountBlock caps the sampler's block length regardless of
	// population size, bounding the pair buffer and the bisection log chunk.
	DefaultMaxCountBlock = 1024
	// DefaultCountBatchN is the population threshold at which auto mode
	// switches from collision-free block sampling to the collision-aware
	// batch dynamics (sched.BatchScheduler): aggregate runs of E[L] ≈ 0.63·√n
	// interactions resolved in O(|Q|²) sampler draws each. Below it the
	// block sampler's fixed ≤1024-pair blocks are already cheap and the
	// aggregate bookkeeping isn't worth its constant; above it batch mode's
	// per-interaction cost falls toward a few float ops.
	DefaultCountBatchN = 1 << 22
)

// BatchMode selects the counts backend's batch (collision-aware aggregate)
// sampling tier.
type BatchMode int

const (
	// BatchAuto enables batch dynamics for populations of at least
	// DefaultCountBatchN agents, unless an explicit BlockLen pins the run to
	// the block sampler.
	BatchAuto BatchMode = iota
	// BatchOn forces batch dynamics at any population size (the equivalence
	// and checkpoint suites exercise small populations this way).
	BatchOn
	// BatchOff pins the run to the exact/block samplers.
	BatchOff
)

// CountOptions tune a CountEngine. The zero value picks defaults.
type CountOptions struct {
	// MaxStates bounds the interned state space before the run fails with
	// ErrStateSpace (0 = DefaultMaxFastStates, or DefaultMaxWrappedStates
	// for canonically keyed wrapped configurations — the same defaults the
	// batched fast path applies).
	MaxStates int
	// BlockLen overrides the sampler's block length (0 = auto: 1 below
	// DefaultCountExactN agents, √n/2 capped at DefaultMaxCountBlock above).
	// Setting it explicitly also pins auto batch selection off.
	BlockLen int
	// Batch selects the collision-aware aggregate sampling tier (see
	// BatchMode). Batch mode is a DISTINCT execution mode like block mode:
	// deterministic per seed, statistically equivalent to — never
	// byte-identical with — the block and exact samplers, checkpointable at
	// run boundaries.
	Batch BatchMode
	// TrackEvents counts the simulation events of wrapped simulator states,
	// like the hybrid runner's option of the same name: one counter, no
	// event values built or retained. Read the total with EventCount.
	TrackEvents bool
	// Topology names the interaction graph family. The zero value (complete)
	// is the backend's native setting and changes nothing. Other
	// vertex-transitive families are accepted under the ANNEALED contract:
	// the engine models the graph's mean-field (per-step re-randomized
	// embedding) dynamics, under which picking a degree-proportional starter
	// and a uniform neighbor is distributed exactly like the complete-graph
	// ordered pair — so stepping is unchanged and stays O(|Q|). Quenched
	// (fixed-embedding) graph dynamics need an agent-vector backend.
	// Non-vertex-transitive topologies are rejected with ErrTopology.
	Topology model.Topology
}

// topologyErr validates the counts-aggregation contract of opts.Topology.
func (o CountOptions) topologyErr() error {
	if !o.Topology.VertexTransitive() {
		return fmt.Errorf("%w: %s", ErrTopology, o.Topology)
	}
	return nil
}

// batchFor reports whether the options select batch dynamics for a
// population of n agents.
func (o CountOptions) batchFor(n int) bool {
	switch o.Batch {
	case BatchOn:
		return true
	case BatchOff:
		return false
	}
	return o.BlockLen == 0 && n >= DefaultCountBatchN
}

// blockLenFor picks the auto block length for a population of n agents.
func blockLenFor(n int) int {
	if n < DefaultCountExactN {
		return 1
	}
	b := 1
	for (b+1)*(b+1) <= n/4 { // b = ⌊√(n/4)⌋ = ⌊√n/2⌋
		b++
	}
	if b > DefaultMaxCountBlock {
		b = DefaultMaxCountBlock
	}
	return b
}

// CountEngine executes one system (protocol, model, population) on the
// counts backend. Build it with NewCountEngine; not safe for concurrent use.
type CountEngine struct {
	kind        model.Kind
	protocol    any
	in          *pp.Interner
	cache       *model.TransitionCache
	cs          *sched.CountScheduler
	counts      pp.Counts
	n           int
	steps       int
	exact       bool // block length 1: sampler pool mirrors counts
	maxStates   int
	trackEvents bool
	eventCount  int

	// Chunk instrumentation for RunUntil's exact-hitting-time bisection:
	// while logging, applied pairs are appended to chunkLog, their result
	// pairs to chunkRes, and snap holds the counts vector as of the chunk
	// start — O(|Q|), where the agent-vector engine's equivalent
	// (fastPath.snap) is O(n). Memoizing the result pairs makes bisection
	// replays pure count arithmetic: four array updates per logged pair, no
	// transition-cache re-probing and no miss branch.
	logging  bool
	chunkLog []sched.CountPair
	chunkRes []sched.CountPair
	snap     pp.Counts
	bisect   pp.Counts

	// Batch-mode state (see batch.go). The active run's unconsumed tail
	// lives either implicitly in the scheduler (aggregate path) or, after a
	// truncation, as expanded pairs in bpend; bused accumulates the run's
	// used agents' post-state multiset for the collision draw.
	batch    bool
	bs       *sched.BatchScheduler
	bpend    []sched.CountPair
	bpendAt  int
	bcollide bool
	btwoL    int64
	bused    []int64

	// probe is the run's pull-based progress surface (nil = unarmed);
	// publishes happen only at sampling boundaries — a block in block mode,
	// a run close in batch mode, the end of a RunSteps call in exact mode —
	// never per interaction. bstat* are the batch tier's draw totals (runs
	// drawn, summed collision-free length, collisions), engine-owned plain
	// counters so RunUntil's rewind-and-replay can snapshot and restore them
	// alongside steps and eventCount.
	probe     *obs.RunProbe
	bstatRuns int64
	bstatLen  int64
	bstatColl int64
}

// NewCountEngine builds a counts-backend engine for protocol p under model
// k, starting from initial, sampling from the documented count stream of
// seed. Wrapped simulator states must declare canonical behavioral keys
// (sim.CanonicalKeyed) — the backend is interned end to end, and
// per-agent-provenance keys would both defeat the counting and garble event
// attribution.
func NewCountEngine(k model.Kind, p any, initial pp.Configuration, seed int64, opts CountOptions) (*CountEngine, error) {
	if len(initial) < 2 {
		return nil, fmt.Errorf("%w: population size %d < 2", ErrConfig, len(initial))
	}
	if k.OneWay() {
		if _, ok := p.(pp.OneWay); !ok {
			return nil, fmt.Errorf("%w: model %v needs a pp.OneWay protocol", ErrConfig, k)
		}
	} else if _, ok := p.(pp.TwoWay); !ok {
		return nil, fmt.Errorf("%w: model %v needs a pp.TwoWay protocol", ErrConfig, k)
	}
	wrapped := sim.AnyWrapped(initial)
	if wrapped && !sim.Canonicalized(initial) {
		return nil, fmt.Errorf("%w: wrapped states without canonical keys (sim.CanonicalKeyed) cannot run on the counts backend", ErrConfig)
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
	blockLen := opts.BlockLen
	if blockLen <= 0 {
		blockLen = blockLenFor(len(initial))
	}
	if blockLen > len(initial)/4 && blockLen > 1 {
		blockLen = len(initial) / 4
		if blockLen < 1 {
			blockLen = 1
		}
	}
	in := pp.NewInterner()
	var aux model.AuxFunc
	if opts.TrackEvents {
		aux = sim.EventAux
	}
	cache := model.NewTransitionCache(k, p, in, aux)
	// Same sizing rationale as the batched fast path: a small dense table by
	// default (typical count workloads have tiny |Q|); the overflow map
	// serves the long tail of wide wrapped spaces at map-lookup speed.
	cache.SetMaxStride(256)
	ce := &CountEngine{
		kind:        k,
		protocol:    p,
		in:          in,
		cache:       cache,
		n:           len(initial),
		maxStates:   maxStates,
		trackEvents: opts.TrackEvents,
	}
	if opts.batchFor(len(initial)) {
		ce.batch = true
		ce.bs = sched.NewBatchScheduler(seed, len(initial))
	} else {
		ce.cs = sched.NewCountScheduler(seed, blockLen)
		ce.exact = blockLen == 1
	}
	ce.counts = in.CountConfig(initial, nil)
	if in.Len() > maxStates {
		return nil, fmt.Errorf("%w: %d distinct states > %d (initial configuration)", ErrStateSpace, in.Len(), maxStates)
	}
	if ce.batch {
		ce.bused = make([]int64, len(ce.counts))
	}
	return ce, nil
}

// N returns the population size.
func (ce *CountEngine) N() int { return ce.n }

// Steps returns the number of interactions applied so far.
func (ce *CountEngine) Steps() int { return ce.steps }

// BlockLen returns the effective sampler block length (1 = exact mode;
// 0 = batch mode, which has no fixed block).
func (ce *CountEngine) BlockLen() int {
	if ce.batch {
		return 0
	}
	return ce.cs.BlockLen()
}

// Batch reports whether the engine runs the collision-aware batch dynamics.
func (ce *CountEngine) Batch() bool { return ce.batch }

// InternedStates returns the number of distinct states interned so far.
func (ce *CountEngine) InternedStates() int { return ce.in.Len() }

// EventCount returns the total number of simulation events the run has
// emitted so far (TrackEvents runs; 0 otherwise).
func (ce *CountEngine) EventCount() int { return ce.eventCount }

// Interner returns the engine's interner: Counts indices are its IDs.
func (ce *CountEngine) Interner() *pp.Interner { return ce.in }

// Probe returns the engine's progress probe, arming one on first call — a
// pull-based observation surface safe to Snapshot from other goroutines
// while the engine runs. An unarmed engine pays one predicted branch per
// sampling boundary; an armed one a handful of atomic stores per boundary.
func (ce *CountEngine) Probe() *obs.RunProbe {
	if ce.probe == nil {
		ce.SetProbe(obs.NewRunProbe())
	}
	return ce.probe
}

// SetProbe attaches an existing probe — how a resumed engine continues the
// interrupted run's probe, and how the facade threads one probe through the
// detached engines it builds. A nil probe disarms.
func (ce *CountEngine) SetProbe(probe *obs.RunProbe) {
	ce.probe = probe
	if probe == nil {
		return
	}
	if ce.batch {
		probe.SetTier(obs.TierCountsBatch)
	} else {
		probe.SetTier(obs.TierCounts)
	}
	ce.publishProbe()
}

// publishProbe mirrors the engine's counters into the armed probe. Called at
// sampling boundaries only; the nil check is the entire probes-off cost.
func (ce *CountEngine) publishProbe() {
	p := ce.probe
	if p == nil {
		return
	}
	p.PublishSteps(int64(ce.steps))
	p.PublishStates(int64(ce.in.Len()))
	if ce.trackEvents {
		p.PublishEvents(int64(ce.eventCount))
	}
	if ce.batch {
		p.PublishBatch(ce.bstatRuns, ce.bstatLen, ce.bstatColl)
	}
}

// Counts returns the live configuration vector (shared; treat as read-only
// and only valid between Run calls).
func (ce *CountEngine) Counts() pp.Counts { return ce.counts }

// Config materializes the counts into a full configuration of canonical
// representatives in state-ID order — an O(n) observation-boundary
// convenience; counts-level consumers should stay on Counts. Agent positions
// are synthetic (this mode has no agent identity): treat the result as a
// multiset.
func (ce *CountEngine) Config() pp.Configuration {
	return ce.in.MaterializeCounts(ce.counts, nil)
}

// RunSteps applies exactly k interactions as count deltas (k ≤ 0 is a
// no-op). Interactions are sampled in blocks (see sched.CountScheduler);
// executions are deterministic per (seed, block length) and invariant under
// call chunking.
func (ce *CountEngine) RunSteps(k int) error {
	if ce.batch {
		_, err := ce.runBatchSteps(k, k)
		return err
	}
	tab, stride := ce.cache.Dense()
	st64 := uint64(stride)
	counts := ce.counts
	for consumed := 0; consumed < k; {
		live := counts
		if !ce.exact {
			// Trailing zeros must not pick a reload's pool representation:
			// RunUntil's rewound replay sees the state table its pass grew.
			for len(live) > 1 && live[len(live)-1] == 0 {
				live = live[:len(live)-1]
			}
		}
		pairs := ce.cs.Block(live, k-consumed)
		if len(pairs) == 0 {
			return fmt.Errorf("%w: count sampler starved (population %d)", ErrConfig, ce.n)
		}
		if ce.logging {
			ce.chunkLog = append(ce.chunkLog, pairs...)
		}
		for _, pr := range pairs {
			s, r := pr.S, pr.R
			var ent uint64
			if uint64(s|r) < st64 {
				ent = tab[uint64(s)*st64+uint64(r)]
			}
			if ent == 0 {
				var err error
				ent, err = ce.cache.Apply(s, r, pp.OmissionNone)
				if err != nil {
					ce.counts = counts
					return fmt.Errorf("apply (%d,%d): %w", s, r, err)
				}
				tab, stride = ce.cache.Dense()
				st64 = uint64(stride)
				if ce.in.Len() > ce.maxStates {
					// The offending pair has not been applied yet, so the
					// counts are a consistent configuration a caller can
					// resume from on another backend.
					ce.counts = counts
					return fmt.Errorf("%w: %d distinct states > %d (step %d)", ErrStateSpace, ce.in.Len(), ce.maxStates, ce.steps)
				}
				for len(counts) < ce.in.Len() {
					counts = append(counts, 0)
				}
			}
			ns, nr := model.EntryStarter(ent), model.EntryReactor(ent)
			if ce.logging {
				ce.chunkRes = append(ce.chunkRes, sched.CountPair{S: ns, R: nr})
			}
			counts[s]--
			counts[r]--
			counts[ns]++
			counts[nr]++
			if aux := model.EntryAux(ent); aux != 0 {
				if aux&sim.AuxStarterEvent != 0 {
					ce.eventCount++
				}
				if aux&sim.AuxReactorEvent != 0 {
					ce.eventCount++
				}
			}
			if ce.exact {
				ce.cs.ApplyDelta(ns, nr)
			}
			ce.steps++
		}
		consumed += len(pairs)
		if !ce.exact {
			// Block boundary: publish progress. Exact mode (block length 1)
			// publishes once per call instead — per-pair publishing would
			// tax the ~20 ns/op inner loop the perf budgets pin.
			ce.publishProbe()
		}
	}
	ce.counts = counts
	if ce.exact {
		ce.publishProbe()
	}
	return nil
}

// RunUntil runs until pred holds on the counts vector or maxSteps
// interactions have been applied. It returns the number of interactions this
// call consumed up to and including the first one after which pred held (0
// when pred held on entry), or the total consumed when ok is false.
//
// pred is checked once up front and then only at the engine's own sampling
// boundaries — a block boundary in block mode, a run close in batch mode,
// any interaction in exact mode: every is a minimum interval between checks
// (every < 1 means 1), and each check happens at the first boundary at or
// after every interactions since the previous one. A call entered mid-block
// or mid-run first drains to that boundary, logging the drained pairs, and
// checks there. A quantum never runs past maxSteps; one cut short by it
// ends mid-block or mid-run.
//
// The hitting time is exact for absorbing (once true, stays true)
// predicates at any every: when pred flips, the engine rewinds to the
// quantum's starting boundary — an O(|Q|) counts copy plus the scheduler's
// stream word and the counters, from which the samplers rebuild — replays
// the quantum with per-pair logging and bisects it. A non-absorbing
// predicate is observed only at boundaries. After a hit the engine stops at
// the boundary that closed the hitting quantum, so Steps() may exceed the
// hit and a Checkpoint taken there needs no boundary fill.
func (ce *CountEngine) RunUntil(pred func(pp.Counts) bool, every, maxSteps int) (int, bool, error) {
	if every < 1 {
		every = 1
	}
	if pred(ce.counts) {
		return 0, true, nil
	}
	consumed := 0
	if rem := min(ce.pendingSteps(), maxSteps); rem > 0 {
		// Mid-block or mid-run there is no rewind point: log the drain.
		ce.snap = append(ce.snap[:0], ce.counts...)
		if err := ce.runLogged(rem); err != nil {
			return 0, false, err
		}
		if pred(ce.counts) {
			return ce.bisectChunk(pred, rem), true, nil
		}
		consumed = rem
	}
	for consumed < maxSteps {
		m := ce.mark()
		q, err := ce.runQuantum(every, maxSteps-consumed)
		if err != nil {
			return consumed, false, err
		}
		consumed += q
		if pred(ce.counts) {
			// Replay with the probe detached: the first pass already
			// published the quantum's end, and a concurrent scraper must
			// never observe steps moving backwards.
			ce.rewind(m)
			probe := ce.probe
			ce.probe = nil
			err := ce.runLogged(q)
			ce.probe = probe
			if err != nil {
				return consumed - q, false, err
			}
			return consumed - q + ce.bisectChunk(pred, q), true, nil
		}
	}
	return consumed, false, nil
}

// pendingSteps returns how many interactions remain before the next
// sampling boundary: the rest of the block, or the active run's un-applied
// expanded pairs plus its owed collision (zero at a boundary).
func (ce *CountEngine) pendingSteps() int {
	if !ce.batch {
		return ce.cs.BlockRemaining()
	}
	p := len(ce.bpend) - ce.bpendAt
	if ce.bcollide {
		p++
	}
	return p
}

// runQuantum applies whole sampling quanta from a boundary — blocks in block
// mode, runs closed by their collision in batch mode, single interactions in
// exact mode — until at least atLeast interactions are applied, never more
// than atMost, and returns the number applied.
func (ce *CountEngine) runQuantum(atLeast, atMost int) (int, error) {
	if ce.batch {
		return ce.runBatchSteps(atMost, atLeast)
	}
	k := atLeast
	if b := ce.cs.BlockLen(); k%b != 0 {
		k += b - k%b
	}
	if k > atMost || k < 0 {
		k = atMost
	}
	return k, ce.RunSteps(k)
}

// runLogged applies k interactions pair by pair, recording them in
// chunkLog/chunkRes for bisectChunk.
func (ce *CountEngine) runLogged(k int) error {
	ce.chunkLog = ce.chunkLog[:0]
	ce.chunkRes = ce.chunkRes[:0]
	ce.logging = true
	err := ce.RunSteps(k)
	ce.logging = false
	return err
}

// boundaryMark is RunUntil's rewind point at a sampling boundary: with the
// counts, kept in snap, the engine's whole state there.
type boundaryMark struct {
	rng                 uint64
	steps, events       int
	runs, runLen, colls int64
}

// mark snapshots the engine at a sampling boundary.
func (ce *CountEngine) mark() boundaryMark {
	ce.snap = append(ce.snap[:0], ce.counts...)
	m := boundaryMark{steps: ce.steps, events: ce.eventCount, runs: ce.bstatRuns, runLen: ce.bstatLen, colls: ce.bstatColl}
	if ce.batch {
		m.rng = ce.bs.StreamState()
	} else {
		m.rng = ce.cs.StreamState()
	}
	return m
}

// rewind restores the engine to a mark, rebuilding the scheduler from its
// stream word. States interned since the mark keep their IDs at zero count.
func (ce *CountEngine) rewind(m boundaryMark) {
	ce.counts = append(ce.counts[:0], ce.snap...)
	for len(ce.counts) < ce.in.Len() {
		ce.counts = append(ce.counts, 0)
	}
	ce.steps, ce.eventCount = m.steps, m.events
	ce.bstatRuns, ce.bstatLen, ce.bstatColl = m.runs, m.runLen, m.colls
	if !ce.batch {
		ce.cs = sched.ResumeCountScheduler(m.rng, ce.cs.BlockLen())
		return
	}
	ce.bs = sched.ResumeBatchScheduler(m.rng, ce.n)
	ce.bpend, ce.bpendAt, ce.bcollide, ce.btwoL = ce.bpend[:0], 0, false, 0
	ce.bused = make([]int64, len(ce.counts))
}

// bisectChunk finds the exact hitting step within the just-applied chunk:
// pred was false on the chunk-start snapshot and true after all `applied`
// pairs, so a binary search over prefix lengths returns the smallest m with
// pred true — exact for absorbing predicates. Replays are pure count
// arithmetic against the memoized input (chunkLog) and result (chunkRes)
// pairs recorded when the chunk was applied — four array updates per pair,
// branch-free, no transition-cache re-probing; the engine's own counts,
// sampler and counters stay untouched.
func (ce *CountEngine) bisectChunk(pred func(pp.Counts) bool, applied int) int {
	lo, hi := 1, applied
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ce.bisect = append(ce.bisect[:0], ce.snap...)
		for len(ce.bisect) < len(ce.counts) {
			ce.bisect = append(ce.bisect, 0)
		}
		bisect := ce.bisect
		res := ce.chunkRes[:mid]
		for j, pr := range ce.chunkLog[:mid] {
			bisect[pr.S]--
			bisect[pr.R]--
			bisect[res[j].S]++
			bisect[res[j].R]++
		}
		if pred(bisect) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
