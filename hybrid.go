package popsim

import (
	"errors"

	"popsim/internal/engine"
	"popsim/internal/par"
	"popsim/internal/pp"
)

// HybridOptions tune hybrid execution; see par.HybridOptions.
type HybridOptions = par.HybridOptions

// HybridResult is the outcome of one hybrid run.
type HybridResult struct {
	// Steps is the exact number of interactions applied. Hybrid workers
	// never stop mid-run, so a fixed-horizon run overshoots the horizon by
	// up to one collision-free run per worker (E ≈ 0.63·√(n/P) each).
	Steps int64
	// Converged reports whether the predicate was met.
	Converged bool
	// Backend names the backend that served the run: "hybrid" (P count
	// slices stepping batch dynamics in parallel), or the sequential counts
	// backend ("counts"/"counts-batch") that absorbed a degraded run.
	Backend string
	// Degraded reports that the hybrid could not hold the run — the
	// interned state space outgrew the hybrid's bound — and the
	// run was executed on the sequential counts backend instead, from the
	// system's current configuration, for the full horizon. DegradedReason
	// carries the hybrid failure.
	Degraded       bool
	DegradedReason string
	// SimEvents is the number of simulated-state update events the run
	// emitted (simulator systems only; 0 for native protocols).
	SimEvents int
	// Final is a detached counts snapshot of the final configuration,
	// projected for simulator systems (matching what the predicate saw).
	Final *StateCounts
}

// RunHybridCounts executes this system's workload on P counts hybrid
// workers (par.HybridRunner): each worker owns a full O(|Q|) counts
// vector over a population slice and steps the collision-aware batch
// dynamics locally, exchanging population via multivariate-hypergeometric
// splits at epoch barriers — the parallel tier of the counts backend, built
// for populations (10⁸–10⁹) whose per-agent representation does not fit.
// pred (optional, count-based, projected for simulator systems) is
// evaluated at barrier granularity every `every` interactions (every < 1
// means once per epoch) until it holds or at least horizon interactions
// have been applied.
//
// Hybrid execution is a distinct execution mode: determinism is per
// (seed, P) — not per seed alone — and equivalence with the sequential
// samplers is statistical, like the batch tier it builds on.
// The annealed counts contract applies: complete and other
// vertex-transitive topologies only (the engine rejects the rest). The
// system's own engine, scheduler position and trace are untouched; specs
// carrying a custom Scheduler or an Adversary return ErrCountsSpec. If the
// interned state space outgrows the hybrid's bound — at construction or
// mid-run — the run degrades to the sequential counts backend (whose
// overflow map absorbs wider state spaces) instead of failing: the result
// carries Degraded and the hybrid failure as DegradedReason. The view
// passed to pred aliases live runner state and is valid only during the
// call.
func (s *System) RunHybridCounts(opts HybridOptions, pred func(*StateCounts) bool, every, horizon int) (*HybridResult, error) {
	if s.spec.Scheduler != nil || s.spec.Adversary != nil {
		return nil, ErrCountsSpec
	}
	protocol := s.spec.Protocol
	if s.spec.Simulate != nil {
		protocol = s.spec.Simulate.Protocol
		// Count-only tracking: the facade reports SimEvents; counts agents
		// have no identity to attribute a full event stream to.
		opts.TrackEvents = true
	}
	// Inherit the system's fast-path state bound as a default, clamped to
	// the hybrid's cap; an explicit opts.MaxStates wins (NewHybrid rejects
	// values above the cap loudly).
	if opts.MaxStates <= 0 && s.spec.MaxFastStates > 0 {
		opts.MaxStates = min(s.spec.MaxFastStates, par.MaxHybridStates)
	}
	// The hybrid steps complete-graph batch dynamics per slice; under the
	// counts backend's annealed contract that is exactly the mean-field
	// dynamics of any vertex-transitive topology, and the rest are outside
	// the counts contract altogether (quenched graphical runs stay on the
	// sequential edge-sampling engine).
	if !s.spec.Topology.VertexTransitive() {
		return nil, errors.Join(ErrCountsSpec, errors.New("topology "+s.spec.Topology.String()+" is outside the annealed counts contract"))
	}
	var hr *par.HybridRunner
	var err error
	if s.countsNative() {
		hr, err = par.NewHybridFromCounts(s.spec.Model, protocol, s.cstates, s.ccounts, s.spec.Seed, opts)
	} else {
		hr, err = par.NewHybrid(s.spec.Model, protocol, s.eng.Config(), s.spec.Seed, opts)
	}
	if err != nil {
		if errors.Is(err, par.ErrStateSpace) {
			return s.runHybridDegraded(protocol, pred, every, horizon, err)
		}
		return nil, err
	}
	if s.probe != nil {
		hr.SetProbe(s.probe)
	}
	project := s.spec.Simulate != nil
	res := &HybridResult{Backend: "hybrid"}
	if pred == nil {
		err = hr.RunSteps(horizon)
	} else {
		view := &StateCounts{}
		_, res.Converged, err = hr.RunUntilCounts(func(c pp.Counts) bool {
			refreshView(view, hr.Interner(), c)
			if project {
				return pred(view.Projected())
			}
			return pred(view)
		}, every, horizon)
	}
	if err != nil {
		if errors.Is(err, par.ErrStateSpace) {
			return s.runHybridDegraded(protocol, pred, every, horizon, err)
		}
		return nil, err
	}
	res.Steps = hr.Steps()
	res.SimEvents = hr.EventCount()
	res.Final = newStateCounts(hr.Interner(), hr.Counts())
	if project {
		res.Final = res.Final.Projected()
	}
	return res, nil
}

// runHybridDegraded is RunHybridCounts's fallback: the hybrid's state bound
// overflowed, so the run executes on the sequential counts
// backend — same seed, from the system's current configuration, full
// horizon — whose overflow map tolerates the wider state space. A further
// counts failure (the sequential bound overflowed too) surfaces as the
// error; counts-native systems have no agent-vector engine left to degrade
// to, and agent-backed callers wanting that extra hop use RunUntilCounts.
func (s *System) runHybridDegraded(protocol any, pred func(*StateCounts) bool, every, horizon int, cause error) (*HybridResult, error) {
	s.probe.Degrade("hybrid", "counts", 0, cause.Error())
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
	if every < 1 {
		every = 64 // the hybrid's "once per epoch" has no analogue here
	}
	cres, err := s.driveCountEngine(ce, pred, every, horizon)
	if err != nil {
		return nil, err
	}
	return &HybridResult{
		Steps:          int64(cres.Steps),
		Converged:      cres.Converged,
		Backend:        cres.Backend,
		Degraded:       true,
		DegradedReason: cause.Error(),
		SimEvents:      cres.SimEvents,
		Final:          cres.Final,
	}, nil
}
