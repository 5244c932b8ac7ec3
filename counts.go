package popsim

import (
	"errors"

	"popsim/internal/engine"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
	"popsim/internal/trace"
)

// StateCounts is the facade's configuration-vector view: how many agents are
// in each distinct state, without materializing per-agent storage. It is the
// observation surface of the counts backend — predicates over a StateCounts
// run in O(|Q|) regardless of the population size — and is also available as
// a snapshot of any system through System.Counts.
//
// Views handed to RunUntilCounts predicates alias live backend state: they
// are valid only during the predicate call. Snapshots returned by
// System.Counts and in results are detached.
type StateCounts struct {
	states []State
	counts []int64
	total  int64
	index  map[string]int
}

// newStateCounts builds a detached view from an interner and counts vector.
func newStateCounts(in *pp.Interner, counts pp.Counts) *StateCounts {
	sc := &StateCounts{
		states: make([]State, len(counts)),
		counts: append([]int64(nil), counts...),
	}
	for id := range counts {
		sc.states[id] = in.State(uint32(id))
		sc.total += counts[id]
	}
	return sc
}

// N returns the population size.
func (sc *StateCounts) N() int64 { return sc.total }

// Distinct returns the number of distinct states the view covers (including
// states whose count has dropped to zero over the run).
func (sc *StateCounts) Distinct() int { return len(sc.states) }

// Count returns the number of agents in the state with s's canonical key.
func (sc *StateCounts) Count(s State) int64 {
	return sc.CountByID(sc.IDOf(s))
}

// IDOf returns the dense state ID of the state with s's canonical key, or
// −1 when the view has not seen that state (yet). IDs index the view in
// state-interning order and are STABLE for the lifetime of a run: backend
// state spaces grow append-only, so an ID resolved on one predicate
// evaluation keeps denoting the same state on every later evaluation of the
// same run. That makes the IDOf/CountByID pair the zero-allocation predicate
// surface: resolve the ID once (IDOf pays s.Key(), which may allocate), then
// read CountByID per evaluation — no key built, no map probed. IDs are NOT
// comparable across detached snapshots or separate runs.
func (sc *StateCounts) IDOf(s State) int {
	if sc.index == nil {
		sc.index = make(map[string]int, len(sc.states))
		for i, st := range sc.states {
			sc.index[st.Key()] = i
		}
	}
	i, ok := sc.index[s.Key()]
	if !ok {
		return -1
	}
	return i
}

// CountByID returns the number of agents in the state with dense ID id —
// O(1), allocation-free. Out-of-range IDs (including IDOf's −1 and IDs the
// view has not grown to cover) count zero agents.
func (sc *StateCounts) CountByID(id int) int64 {
	if id < 0 || id >= len(sc.counts) {
		return 0
	}
	return sc.counts[id]
}

// CountFunc sums the counts of the states satisfying pred — O(|Q|), the
// counts analogue of Configuration.CountFunc.
func (sc *StateCounts) CountFunc(pred func(State) bool) int64 {
	var n int64
	for i, st := range sc.states {
		if sc.counts[i] != 0 && pred(st) {
			n += sc.counts[i]
		}
	}
	return n
}

// Each calls f for every state with a non-zero count; returning false stops
// the iteration.
func (sc *StateCounts) Each(f func(State, int64) bool) {
	for i, st := range sc.states {
		if sc.counts[i] == 0 {
			continue
		}
		if !f(st, sc.counts[i]) {
			return
		}
	}
}

// Projected folds a view of wrapped simulator states onto their simulated
// states (piP applied at the counts level, merging states that project to
// the same simulated state) — O(|Q|). Non-wrapped states map to themselves.
func (sc *StateCounts) Projected() *StateCounts {
	out := &StateCounts{index: make(map[string]int)}
	for i, st := range sc.states {
		p := st
		if w, ok := st.(sim.Wrapped); ok {
			p = w.Simulated()
		}
		k := p.Key()
		j, ok := out.index[k]
		if !ok {
			j = len(out.states)
			out.index[k] = j
			out.states = append(out.states, p)
			out.counts = append(out.counts, 0)
		}
		out.counts[j] += sc.counts[i]
		out.total += sc.counts[i]
	}
	return out
}

// snapshotCounts builds a detached counts snapshot of a configuration,
// folded onto simulated states when project is set — the O(n) construction
// behind System.Counts and the fallback paths' final snapshots.
func snapshotCounts(cfg Configuration, project bool) *StateCounts {
	in := pp.NewInterner()
	sc := newStateCounts(in, in.CountConfig(cfg, nil))
	if project {
		sc = sc.Projected()
	}
	return sc
}

// countsPredicate adapts a StateCounts predicate to a Configuration
// predicate for the agent-vector fallback paths, reusing one interner,
// counts scratch and view across evaluations: each check costs one counting
// pass over the configuration (interner map hits) instead of rebuilding
// interner and view from scratch.
func countsPredicate(pred func(*StateCounts) bool, project bool) func(Configuration) bool {
	in := pp.NewInterner()
	var scratch pp.Counts
	view := &StateCounts{}
	return func(c Configuration) bool {
		scratch = in.CountConfig(c, scratch)
		refreshView(view, in, scratch)
		if project {
			return pred(view.Projected())
		}
		return pred(view)
	}
}

// Counts returns a detached counts snapshot of the system's current
// (wrapped) configuration — O(n) to build, O(|Q|) to consume; for
// counts-native systems it reflects the initial cells and is O(|Q|)
// throughout. For simulator systems, chain .Projected() for the
// simulated-state view.
func (s *System) Counts() *StateCounts {
	if s.countsNative() {
		in := pp.NewInterner()
		var counts pp.Counts
		for i, st := range s.cstates {
			id := in.Intern(st)
			for int(id) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[id] += s.ccounts[i]
		}
		return newStateCounts(in, counts)
	}
	return snapshotCounts(s.eng.Config(), false)
}

// BatchMode selects the counts backend's collision-aware batch tier; see
// engine.BatchMode. Batch mode is a DISTINCT execution mode like the block
// sampler: deterministic per seed, statistically equivalent to — never
// byte-identical with — the block and exact samplers.
type BatchMode = engine.BatchMode

// Batch tier selection for SystemSpec.CountBatch.
const (
	// BatchAuto enables batch dynamics at DefaultCountBatchN agents and up.
	BatchAuto = engine.BatchAuto
	// BatchOn forces batch dynamics at any population size.
	BatchOn = engine.BatchOn
	// BatchOff pins counts runs to the exact/block samplers.
	BatchOff = engine.BatchOff
)

// DefaultCountBatchN is the population threshold at or above which BatchAuto
// selects the collision-aware batch dynamics.
const DefaultCountBatchN = engine.DefaultCountBatchN

// newCountsNativeSystem assembles a System from InitialCounts: no
// agent-vector engine, no materialized population — the counts backend is
// the only execution surface. The spec is validated eagerly by building
// (and discarding) a counts engine, so bad model/protocol/topology
// combinations fail here rather than on the first run.
func newCountsNativeSystem(spec SystemSpec) (*System, error) {
	if spec.Initial != nil {
		return nil, errors.Join(ErrSpec, errors.New("set exactly one of Initial and InitialCounts"))
	}
	if spec.Protocol == nil || spec.Simulate != nil {
		return nil, errors.Join(ErrSpec, errors.New("InitialCounts requires a native Protocol (wrapped initial configurations are position-dependent; simulator systems build from Initial)"))
	}
	if spec.Scheduler != nil || spec.Adversary != nil {
		return nil, errors.Join(ErrSpec, errors.New("counts-native systems run the counts backend only; Scheduler and Adversary are outside its contract"))
	}
	states := make([]pp.State, len(spec.InitialCounts))
	counts := make(pp.Counts, len(spec.InitialCounts))
	for i, cs := range spec.InitialCounts {
		if cs.State == nil {
			return nil, errors.Join(ErrSpec, errors.New("InitialCounts cell with nil State"))
		}
		states[i] = cs.State
		counts[i] = cs.Count
	}
	s := &System{rec: &trace.Recorder{}, spec: spec, cstates: states, ccounts: counts}
	if _, err := engine.NewCountEngineFromCounts(spec.Model, spec.Protocol, states, counts, spec.Seed, s.countOptions()); err != nil {
		return nil, err
	}
	return s, nil
}

// countOptions is the engine.CountOptions every counts-backend execution of
// this system shares (detached runs, jobs, degrade paths).
func (s *System) countOptions() engine.CountOptions {
	return engine.CountOptions{
		MaxStates:   s.spec.MaxFastStates,
		TrackEvents: s.spec.Simulate != nil,
		Topology:    s.spec.Topology,
		Batch:       s.spec.CountBatch,
	}
}

// DefaultCountsBackendN is the population threshold at or above which
// RunUntilCounts picks the counts backend. Below it the batched agent-vector
// engine is already cache-resident and its O(n) observation is cheap at the
// default predicate cadences, so the threshold sits where the agent paths'
// per-chunk O(n) arming, materialization and predicate costs start to
// dominate convergence runs (see BenchmarkCountEngineConvergence).
const DefaultCountsBackendN = 1 << 16

// CountsRunResult is the outcome of a RunUntilCounts run.
type CountsRunResult struct {
	// Steps is the number of interactions consumed up to and including the
	// first one after which the predicate held — exact for absorbing
	// predicates on the counts backend — or the total consumed when not
	// Converged.
	Steps int
	// Converged reports whether the predicate was met.
	Converged bool
	// Backend names the execution backend that served the run: "counts"
	// (configuration-vector engine, exact/block samplers), "counts-batch"
	// (the same engine on the collision-aware batch dynamics — selected by
	// SystemSpec.CountBatch, automatically at DefaultCountBatchN agents) or
	// "batched" (agent-vector fast path — the small-population default, and
	// the fallback when a spec is outside the counts contract).
	Backend string
	// Degraded reports that the counts backend abandoned the run mid-way —
	// the interned state space outgrew its bound — and the run was finished
	// on the batched engine from the abandoned configuration, for the
	// remaining horizon. DegradedReason carries the counts failure.
	Degraded       bool
	DegradedReason string
	// SimEvents is the number of simulated-state update events the run
	// emitted (simulator systems only; 0 for native protocols).
	SimEvents int
	// Final is a detached counts snapshot of the final configuration,
	// projected for simulator systems (matching what the predicate saw).
	Final *StateCounts
}

// ErrCountsSpec reports a system spec outside the count-predicate runs'
// contract: like hybrid runs, they are detached executions on fresh
// engines, so specs carrying a custom Scheduler (whose stream position
// belongs to the system's own engine) or an Adversary (stateful; a detached
// run would mutate it behind the system's back) are rejected.
var ErrCountsSpec = errors.New("popsim: spec not runnable with count predicates")

// RunUntilCounts runs this system's workload with a count predicate until it
// holds or horizon interactions have been applied. For simulator systems the
// predicate observes the projected (simulated) counts, mirroring RunUntil.
//
// every is a minimum interval between predicate checks (every < 1 means
// 64). On the counts backend checks happen at the engine's sampling
// boundaries — block boundaries, or run closes on the batch tier — at the
// first one at or after every interactions since the previous check, so at
// populations whose blocks or runs exceed 64 interactions the default
// checks at every boundary. Steps is exact for absorbing (once true, stays
// true) predicates at any cadence; a non-absorbing predicate is observed
// only at boundaries. The batched agent-vector path, which serves small and
// non-canonical populations, checks exactly every `every` interactions.
//
// The backend is picked transparently: populations of at least
// DefaultCountsBackendN with canonically keyed states run on the O(|Q|)
// counts backend (engine.CountEngine — a distinct execution mode,
// statistically equivalent to the sequential scheduler; determinism is per
// seed and backend); smaller populations and non-canonical wrapped states
// run on the batched agent-vector engine with the counts view rebuilt per
// check. Within the counts backend, SystemSpec.CountBatch selects the
// collision-aware batch tier (Backend "counts-batch"; automatic at
// DefaultCountBatchN agents). Counts-native systems (InitialCounts) always
// run the counts backend, whatever the population size, and surface
// state-space overflow as the error instead of degrading. Specs carrying a custom Scheduler or an Adversary are not runnable
// detached and return ErrCountsSpec. Like RunHybridCounts, the run starts
// from the system's current configuration and leaves the system's own
// engine, scheduler position and trace untouched. A counts run whose state
// space outgrows its bound mid-way degrades to the batched engine (the
// result carries Degraded and the reason), mirroring the batched path's own
// slow-path fallback.
func (s *System) RunUntilCounts(pred func(*StateCounts) bool, every, horizon int) (*CountsRunResult, error) {
	if s.spec.Scheduler != nil || s.spec.Adversary != nil {
		return nil, ErrCountsSpec
	}
	if every < 1 {
		every = 64
	}
	protocol := s.spec.Protocol
	if s.spec.Simulate != nil {
		protocol = s.spec.Simulate.Protocol
	}
	if s.countsNative() {
		// Counts-native systems have no agent vector to fall back to:
		// the counts backend is the whole contract, and state-space
		// overflow surfaces as the error.
		ce, err := engine.NewCountEngineFromCounts(s.spec.Model, protocol, s.cstates, s.ccounts, s.spec.Seed, s.countOptions())
		if err != nil {
			return nil, err
		}
		res, err := s.driveCountEngine(ce, pred, every, horizon)
		if err != nil {
			return nil, err
		}
		return res.CountsRunResult, nil
	}
	cfg := s.eng.Config()
	// The counts backend's annealed (mean-field) contract coincides with the
	// quenched graph only on the complete topology; every non-complete
	// topology runs its fixed graph exactly on the batched edge-sampling
	// engine, whatever the population size.
	if len(cfg) >= DefaultCountsBackendN && sim.Canonicalized(cfg) && s.spec.Topology.IsComplete() {
		res, err := s.runUntilCountsBackend(protocol, cfg, pred, every, horizon)
		if err == nil {
			return res.CountsRunResult, nil
		}
		if !errors.Is(err, engine.ErrStateSpace) {
			return nil, err
		}
		// Mid-run state-space overflow: finish on the batched engine from
		// the abandoned configuration, for the remaining horizon.
		s.probe.Degrade(res.Backend, "batched", int64(res.Steps), err.Error())
		fallback, ferr := s.runUntilCountsBatched(protocol, res.failedCfg, pred, every, horizon-res.Steps)
		if ferr != nil {
			return nil, ferr
		}
		fallback.Steps += res.Steps
		fallback.SimEvents += res.SimEvents
		fallback.Degraded = true
		fallback.DegradedReason = err.Error()
		return fallback.CountsRunResult, nil
	}
	res, err := s.runUntilCountsBatched(protocol, cfg, pred, every, horizon)
	if err != nil {
		return nil, err
	}
	return res.CountsRunResult, nil
}

// freshBatchedEngine builds a detached batched engine from cfg with the
// system's tuning limits and a fresh recorder — the construction shared by
// the counts degrade path and small-n counts runs.
func (s *System) freshBatchedEngine(protocol any, cfg Configuration) (*trace.Recorder, *engine.Engine, error) {
	rec := &trace.Recorder{}
	opts := []engine.Option{engine.WithRecorder(rec)}
	if s.spec.MaxFastStates > 0 || s.spec.MaxBatchChunk > 0 {
		opts = append(opts, engine.WithFastLimits(s.spec.MaxFastStates, s.spec.MaxBatchChunk))
	}
	eng, err := engine.New(s.spec.Model, protocol, cfg, s.detachedScheduler(), opts...)
	if err != nil {
		return nil, nil, err
	}
	return rec, eng, nil
}

// detachedScheduler builds a fresh scheduler for a detached run: the
// topology's edge sampler over the system's materialized graph, or — for the
// complete topology — the plain uniform scheduler, both restarted from the
// spec seed (detached runs never consume the system's own stream).
func (s *System) detachedScheduler() sched.Batcher {
	return sched.NewEdgeScheduler(schedGraph(s.graph), s.spec.Seed)
}

// schedGraph converts the facade's *Graph into sched's structural interface
// with nil-ness preserved (a typed nil inside a non-nil interface would
// defeat NewEdgeScheduler's complete-topology arm).
func schedGraph(g *Graph) sched.Graph {
	if g == nil {
		return nil
	}
	return g
}

// countsResult is CountsRunResult plus the mid-run failure configuration the
// degrade path resumes from.
type countsResult struct {
	*CountsRunResult
	failedCfg Configuration
}

// runUntilCountsBackend drives the counts engine.
func (s *System) runUntilCountsBackend(protocol any, cfg Configuration, pred func(*StateCounts) bool, every, horizon int) (*countsResult, error) {
	ce, err := engine.NewCountEngine(s.spec.Model, protocol, cfg, s.spec.Seed, s.countOptions())
	if err != nil {
		if errors.Is(err, engine.ErrStateSpace) {
			// Too many distinct initial states for the counts backend at
			// all: the whole run belongs on the batched engine.
			s.probe.Degrade("counts", "batched", 0, err.Error())
			res, berr := s.runUntilCountsBatched(protocol, cfg, pred, every, horizon)
			if berr == nil {
				res.Degraded = true
				res.DegradedReason = err.Error()
			}
			return res, berr
		}
		return nil, err
	}
	return s.driveCountEngine(ce, pred, every, horizon)
}

// countsBackendName labels the execution mode a counts engine runs.
func countsBackendName(ce *engine.CountEngine) string {
	if ce.Batch() {
		return "counts-batch"
	}
	return "counts"
}

// driveCountEngine runs a built counts engine until pred holds (nil pred =
// the full horizon) and packages the result — shared by the size-selected
// backend path, counts-native runs and the hybrid degrade path. On mid-run
// state-space overflow the result carries the failure configuration for the
// degrade path, except on counts-native systems (materializing 10⁸–10⁹
// agents is exactly what counts-native construction exists to avoid —
// and they have no agent-vector fallback to hand it to).
func (s *System) driveCountEngine(ce *engine.CountEngine, pred func(*StateCounts) bool, every, horizon int) (*countsResult, error) {
	if s.probe != nil {
		ce.SetProbe(s.probe)
	}
	in := ce.Interner()
	project := s.spec.Simulate != nil
	res := &countsResult{CountsRunResult: &CountsRunResult{Backend: countsBackendName(ce)}}
	var err error
	if pred == nil {
		err = ce.RunSteps(horizon)
		res.Steps = ce.Steps()
	} else {
		view := &StateCounts{}
		res.Steps, res.Converged, err = ce.RunUntil(func(c pp.Counts) bool {
			refreshView(view, in, c)
			if project {
				return pred(view.Projected())
			}
			return pred(view)
		}, every, horizon)
	}
	res.SimEvents = ce.EventCount()
	if err != nil {
		if errors.Is(err, engine.ErrStateSpace) {
			res.Steps = ce.Steps()
			if !s.countsNative() {
				res.failedCfg = ce.Config()
			}
		}
		return res, err
	}
	res.Final = newStateCounts(in, ce.Counts())
	if project {
		res.Final = res.Final.Projected()
	}
	return res, nil
}

// runUntilCountsBatched drives the batched agent-vector engine with the
// counts view rebuilt per predicate check (O(n) per check — the
// small-population and fallback mode).
func (s *System) runUntilCountsBatched(protocol any, cfg Configuration, pred func(*StateCounts) bool, every, horizon int) (*countsResult, error) {
	rec, eng, err := s.freshBatchedEngine(protocol, cfg)
	if err != nil {
		return nil, err
	}
	if s.probe != nil {
		eng.SetProbe(s.probe)
	}
	project := s.spec.Simulate != nil
	steps, ok, err := eng.RunUntilEvery(countsPredicate(pred, project), every, horizon)
	if err != nil {
		return nil, err
	}
	return &countsResult{CountsRunResult: &CountsRunResult{
		Steps:     steps,
		Converged: ok,
		Backend:   "batched",
		SimEvents: len(rec.Events()),
		Final:     snapshotCounts(eng.Config(), project),
	}}, nil
}

// refreshView points a reusable StateCounts at live backend state — O(new
// states) per call, no allocation once the state space has been seen.
func refreshView(view *StateCounts, in *pp.Interner, counts pp.Counts) {
	for len(view.states) < len(counts) {
		id := len(view.states)
		view.states = append(view.states, in.State(uint32(id)))
		if view.index != nil {
			view.index[view.states[id].Key()] = id
		}
	}
	view.counts = counts
	var total int64
	for _, v := range counts {
		total += v
	}
	view.total = total
}
