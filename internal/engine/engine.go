// Package engine drives population-protocol executions: it pulls
// interactions from a scheduler, lets the omission adversary inject omissive
// interactions (Definitions 1–2 of the paper), applies the interaction-model
// transition relation, and records the execution (interactions and
// simulated-state events) into a trace recorder.
package engine

import (
	"errors"
	"fmt"

	"popsim/internal/adversary"
	"popsim/internal/model"
	"popsim/internal/obs"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
	"popsim/internal/trace"
)

// Errors.
var (
	// ErrExhausted is returned when the scheduler has no more
	// interactions (only scripted schedulers exhaust).
	ErrExhausted = errors.New("engine: scheduler exhausted")
	// ErrConfig is returned for invalid engine configuration.
	ErrConfig = errors.New("engine: invalid configuration")
)

// Engine executes one system (protocol, model, population).
type Engine struct {
	kind     model.Kind
	protocol any
	cfg      pp.Configuration
	sch      sched.Scheduler
	adv      adversary.Adversary
	rec      *trace.Recorder

	steps    int // interactions applied, injected ones included
	schedIdx int // scheduled interactions consumed

	maxFastStates int  // interned-state bound before the fast path bails
	maxBatchChunk int  // cap on one NextBatch request
	fastLimitsSet bool // WithFastLimits was called (widens the dense table)

	fast *fastPath // lazily-built batched execution state (fast.go)

	// view is RunUntilProjected's projected configuration, kept current by
	// apply; nil outside that call. viewDirty records that an applied
	// interaction changed it since the predicate last ran.
	view      pp.Configuration
	viewDirty bool

	probe *obs.RunProbe // pull-based progress surface; nil = unarmed
}

// Option configures an Engine.
type Option func(*Engine)

// WithAdversary installs an omission adversary (default: none).
func WithAdversary(a adversary.Adversary) Option {
	return func(e *Engine) { e.adv = a }
}

// WithRecorder installs a trace recorder (default: a fresh private one).
func WithRecorder(r *trace.Recorder) Option {
	return func(e *Engine) { e.rec = r }
}

// WithFastLimits overrides the batched fast path's tuning limits:
// maxStates bounds the interned state space before StepBatch abandons the
// fast path for good (large finite-state protocols need more than the
// default before they stop being cache-friendly), and maxChunk caps one
// scheduler NextBatch request (bounding the reusable batch buffer).
// Non-positive values keep the defaults (DefaultMaxFastStates,
// DefaultMaxBatchChunk). The transition table's dense region is widened to
// cover maxStates up to model.DefaultMaxStride (1024) states; beyond that
// the extra states stay on the fast path but are served from the cache's
// overflow map at map-lookup speed. Call before the first Step/StepBatch.
func WithFastLimits(maxStates, maxChunk int) Option {
	return func(e *Engine) {
		if maxStates > 0 {
			e.maxFastStates = maxStates
			e.fastLimitsSet = true
		}
		if maxChunk > 0 {
			e.maxBatchChunk = maxChunk
		}
	}
}

// New builds an engine for protocol p under interaction model k, starting
// from the given initial configuration, scheduled by s.
func New(k model.Kind, p any, initial pp.Configuration, s sched.Scheduler, opts ...Option) (*Engine, error) {
	if len(initial) < 2 {
		return nil, fmt.Errorf("%w: population size %d < 2", ErrConfig, len(initial))
	}
	if s == nil {
		return nil, fmt.Errorf("%w: nil scheduler", ErrConfig)
	}
	if k.OneWay() {
		if _, ok := p.(pp.OneWay); !ok {
			return nil, fmt.Errorf("%w: model %v needs a pp.OneWay protocol", ErrConfig, k)
		}
	} else if _, ok := p.(pp.TwoWay); !ok {
		return nil, fmt.Errorf("%w: model %v needs a pp.TwoWay protocol", ErrConfig, k)
	}
	e := &Engine{
		kind:          k,
		protocol:      p,
		cfg:           initial.Clone(),
		sch:           s,
		adv:           adversary.None{},
		maxFastStates: DefaultMaxFastStates,
		maxBatchChunk: DefaultMaxBatchChunk,
	}
	for _, o := range opts {
		o(e)
	}
	if e.rec == nil {
		e.rec = &trace.Recorder{}
	}
	e.rec.Reset(initial)
	return e, nil
}

// Config returns the current configuration (shared; treat as read-only —
// states themselves are immutable).
func (e *Engine) Config() pp.Configuration {
	e.materialize()
	return e.cfg
}

// Recorder returns the engine's trace recorder.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Steps returns the number of interactions applied so far (including
// adversary-injected omissive ones).
func (e *Engine) Steps() int { return e.steps }

// Model returns the interaction model kind.
func (e *Engine) Model() model.Kind { return e.kind }

// Probe returns the engine's progress probe, arming one on first call. The
// batched fast path publishes at chunk boundaries (≤ MaxBatchChunk
// interactions apart), the stepwise path at the end of each run call; an
// unarmed engine pays one predicted branch per boundary.
func (e *Engine) Probe() *obs.RunProbe {
	if e.probe == nil {
		e.SetProbe(obs.NewRunProbe())
	}
	return e.probe
}

// SetProbe attaches an existing probe; nil disarms.
func (e *Engine) SetProbe(probe *obs.RunProbe) {
	e.probe = probe
	if probe == nil {
		return
	}
	probe.SetTier(obs.TierVector)
	e.publishProbe()
}

// publishProbe mirrors the engine's counters into the armed probe — called
// at batch-chunk boundaries, never per interaction.
func (e *Engine) publishProbe() {
	p := e.probe
	if p == nil {
		return
	}
	p.PublishSteps(int64(e.steps))
	if e.fast != nil && !e.fast.disabled {
		p.PublishStates(int64(e.fast.in.Len()))
	}
}

// FastPathActive reports whether the batched fast path is currently serving
// StepBatch calls: a batching scheduler is installed, the configuration's
// state-identity contract allows interning (see sim.CanonicalKeyed), and the
// state space has not outgrown the configured bound. It is false before the
// first StepBatch builds the fast path.
func (e *Engine) FastPathActive() bool {
	return e.fast != nil && !e.fast.disabled
}

// InternedStates returns the number of distinct states the fast path has
// interned so far (0 when the fast path is not active). Watching it against
// the WithFastLimits bound shows how close a run is to the slow-path
// bailout.
func (e *Engine) InternedStates() int {
	if e.fast == nil || e.fast.disabled {
		return 0
	}
	return e.fast.in.Len()
}

// apply executes one interaction against the current configuration.
func (e *Engine) apply(it pp.Interaction) error {
	if !it.Valid(len(e.cfg)) {
		return fmt.Errorf("%w: interaction %v for n=%d", ErrConfig, it, len(e.cfg))
	}
	s, r := e.cfg[it.Starter], e.cfg[it.Reactor]
	ns, nr, err := model.Apply(e.kind, e.protocol, s, r, it.Omission)
	if err != nil {
		return fmt.Errorf("apply %v: %w", it, err)
	}
	e.cfg[it.Starter], e.cfg[it.Reactor] = ns, nr
	idx := e.steps
	e.steps++
	e.rec.OnInteraction(it)
	sMoved := e.emitEvent(idx, it.Starter, s, ns)
	rMoved := e.emitEvent(idx, it.Reactor, r, nr)
	if e.view != nil {
		if sMoved {
			e.view[it.Starter] = sim.ProjectState(ns)
			e.viewDirty = true
		}
		if rMoved {
			e.view[it.Reactor] = sim.ProjectState(nr)
			e.viewDirty = true
		}
	}
	return nil
}

// emitEvent forwards a simulated-state event if the wrapped state's event
// sequence advanced during this transition. It reports whether the agent's
// projection may have changed: a wrapped state changes its simulated state
// only together with its event sequence (see sim.Wrapped), so that is when
// an event was forwarded; a non-wrapped state is its own projection and
// always counts as changed.
func (e *Engine) emitEvent(idx, agent int, before, after pp.State) bool {
	wa, ok := after.(sim.Wrapped)
	if !ok {
		return true
	}
	var prev uint64
	wb, wasWrapped := before.(sim.Wrapped)
	if wasWrapped {
		prev = wb.EventSeq()
	}
	if wa.EventSeq() == prev {
		return !wasWrapped
	}
	ev := wa.LastEvent()
	ev.Index = idx
	ev.Agent = agent
	e.rec.OnEvent(ev)
	return true
}

// Step consumes one scheduled interaction: it first applies any omissive
// interactions the adversary injects at this point, then the scheduled
// interaction itself. Returns ErrExhausted when the scheduler is done.
func (e *Engine) Step() error {
	e.materialize()
	if e.fast != nil {
		// Stepwise mutation of e.cfg invalidates the ID mirror.
		e.fast.idsValid = false
	}
	next, ok := e.sch.Next(len(e.cfg))
	if !ok {
		return ErrExhausted
	}
	for _, om := range e.adv.Inject(e.schedIdx, next, len(e.cfg)) {
		if !om.Omission.IsOmissive() {
			return fmt.Errorf("%w: adversary injected non-omissive %v", ErrConfig, om)
		}
		if err := e.apply(om); err != nil {
			return err
		}
	}
	e.schedIdx++
	return e.apply(next)
}

// RunSteps performs k scheduled steps (plus whatever the adversary injects).
// It stops early without error if the scheduler exhausts.
func (e *Engine) RunSteps(k int) error {
	defer e.publishProbe()
	for i := 0; i < k; i++ {
		if err := e.Step(); err != nil {
			if errors.Is(err, ErrExhausted) {
				return nil
			}
			return err
		}
	}
	return nil
}

// RunUntil steps the engine until pred holds for the current configuration
// or maxScheduled scheduled interactions have been consumed. It returns true
// if the predicate was met.
func (e *Engine) RunUntil(pred func(pp.Configuration) bool, maxScheduled int) (bool, error) {
	defer e.publishProbe()
	e.materialize()
	if pred(e.cfg) {
		return true, nil
	}
	for i := 0; i < maxScheduled; i++ {
		if err := e.Step(); err != nil {
			if errors.Is(err, ErrExhausted) {
				return pred(e.cfg), nil
			}
			return false, err
		}
		if pred(e.cfg) {
			return true, nil
		}
	}
	return false, nil
}

// RunUntilProjected is RunUntil with pred evaluated on the projected
// (simulated) configuration sim.Project(Config()), maintained incrementally:
// the engine projects the configuration once per call, rewrites the touched
// agents' entries as interactions apply (adversary injections included), and
// evaluates pred only after a scheduled step that changed the projection.
// Since pred sees nothing but the projection, the hitting step, Steps(), the
// recorded trace and the scheduler stream are those of
// RunUntil(func(c) bool { return pred(sim.Project(c)) }, maxScheduled).
//
// pred receives a read-only view the engine keeps updating: it is valid only
// during the call, and pred must neither retain nor modify it.
func (e *Engine) RunUntilProjected(pred func(pp.Configuration) bool, maxScheduled int) (bool, error) {
	defer e.publishProbe()
	e.materialize()
	e.view = sim.Project(e.cfg)
	defer func() { e.view = nil }()
	if pred(e.view) {
		return true, nil
	}
	for i := 0; i < maxScheduled; i++ {
		e.viewDirty = false
		if err := e.Step(); err != nil {
			// An exhausted scheduler applied nothing: the view is the one
			// pred last rejected.
			if errors.Is(err, ErrExhausted) {
				return false, nil
			}
			return false, err
		}
		if e.viewDirty && pred(e.view) {
			return true, nil
		}
	}
	return false, nil
}
