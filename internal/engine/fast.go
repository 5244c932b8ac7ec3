// Batched fast path: the engine mirrors the configuration as a vector of
// dense interned-state IDs (pp.Interner), evaluates the transition relation
// through a memo table (model.TransitionCache), and consumes interactions in
// bulk from batching schedulers (sched.Batcher). Executions are identical to
// the stepwise path for the same seed — same schedule, same states, same
// recorded trace — only cheaper: δ is evaluated once per distinct state
// pair, pp.State values are only materialized at observation boundaries, and
// the per-interaction cost collapses to a few array operations.
package engine

import (
	"errors"
	"fmt"

	"popsim/internal/adversary"
	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
)

// Aux bits memoized per cached transition (shared with the hybrid runner):
// whether the starter/reactor result advanced its simulation-event sequence,
// i.e. whether applying the transition must forward an event to the trace
// recorder. Precomputing this keeps state inspection out of the batch loop.
const (
	auxStarterEvent = sim.AuxStarterEvent
	auxReactorEvent = sim.AuxReactorEvent
)

const (
	// DefaultMaxFastStates bounds the interned state space before StepBatch
	// abandons the fast path for good: a state space that keeps growing
	// (e.g. a wrapped simulator whose token queues keep lengthening under
	// an adversarial schedule, or SID/Naming at large n, whose behavioral
	// IDs scale the space with the population) would thrash the transition
	// cache, so beyond this many distinct states the slow path is the
	// faster path. Canonically keyed simulators (sim.CanonicalKeyed)
	// usually stay well under the bound; wide finite-state protocols and
	// big simulated populations can raise it per engine through
	// WithFastLimits (per system through popsim.SystemSpec.MaxFastStates).
	DefaultMaxFastStates = 1024
	// DefaultMaxBatchChunk caps one NextBatch request, bounding the
	// scheduler's reusable buffer. Overridable through WithFastLimits.
	DefaultMaxBatchChunk = 1024
	// DefaultMaxWrappedStates is the default interned-state bound for
	// configurations of canonically keyed wrapped simulators
	// (sim.CanonicalKeyed). Their behavioral state spaces plateau (distinct
	// queue/pairing contents, not per-agent histories) but typically well
	// above DefaultMaxFastStates — e.g. a few thousand distinct queue
	// sequences for an SKnO run — and entries beyond the dense table are
	// still served from the cache's overflow map at map-lookup speed, far
	// cheaper than re-evaluating a simulator transition. The bound is
	// generous because for canonical states a miss means a genuinely new
	// behavioral state — a naturally decaying event — not the
	// once-per-interaction thrash of provenance-keyed states (those are
	// gated off the fast path entirely); bailing mid-run would discard a
	// warm cache to run every remaining interaction at slow-path cost.
	// WithFastLimits overrides this like any other bound.
	DefaultMaxWrappedStates = 1 << 17
)

// fastPath is the engine's dense-ID execution state.
type fastPath struct {
	in      *pp.Interner
	cache   *model.TransitionCache
	batcher sched.Batcher
	ids     []uint32 // dense mirror of the configuration
	noAdv   bool     // adversary is adversary.None: skip Inject entirely

	idsValid bool // ids mirror the logical configuration
	cfgStale bool // e.cfg lags behind ids
	disabled bool // fast path permanently unavailable

	// Chunk instrumentation for RunUntilEvery's exact-hitting-time
	// bisection: while logChunk is set, the lean batch loop appends every
	// applied interaction to chunkLog, and snap holds the ID vector as of
	// the chunk start.
	logChunk bool
	chunkLog []pp.Interaction
	snap     []uint32

	bisectIDs []uint32         // scratch ID vector for bisection replays
	bisectCfg pp.Configuration // scratch configuration for bisection probes
}

// ensureFast lazily builds the fast-path state. The fast path stays disabled
// (StepBatch degrades to repeated Step) when the scheduler cannot batch, or
// when the configuration holds wrapped simulator states that do not declare
// the canonical-behavioral key contract (sim.CanonicalKeyed): interning
// non-canonical wrapped states would collapse nothing (per-agent provenance
// keys never repeat) while the memoized event payloads would misattribute
// their simulation events — the stepwise path keeps such runs exact instead
// of silently dropping or garbling events.
func (e *Engine) ensureFast() *fastPath {
	if e.fast != nil {
		return e.fast
	}
	bt, ok := e.sch.(sched.Batcher)
	if !ok {
		e.fast = &fastPath{disabled: true}
		return e.fast
	}
	wrapped := sim.AnyWrapped(e.cfg)
	if wrapped && !sim.Canonicalized(e.cfg) {
		e.fast = &fastPath{disabled: true}
		return e.fast
	}
	if wrapped && !e.fastLimitsSet {
		// Canonical wrapped state spaces plateau above the finite-protocol
		// default; give them the wrapped default instead of bailing to the
		// slow path mid-run.
		e.maxFastStates = DefaultMaxWrappedStates
	}
	_, noAdv := e.adv.(adversary.None)
	in := pp.NewInterner()
	// The payload channel memoizes behavioral event content per transition:
	// the batched path emits events from this memo rather than from the
	// canonical representatives' LastEvent caches — a representative's last
	// event describes whatever transition first produced its key, not
	// necessarily the one being applied — so no simulation event is dropped
	// or misattributed on the fast path.
	cache := model.NewTransitionCache(e.kind, e.protocol, in, sim.EventAux)
	cache.SetPayloadFunc(sim.EventPayload)
	// Cap the dense table at 256² entries (512 KB) by default: a state
	// space blowing past that is almost certainly an unbounded simulator
	// run heading for the maxFastStates bailout, and the 256..1024 band
	// still works through the cache's overflow map. Without the cap a
	// single chunk of such a run would grow-and-copy the table to 8 MB
	// before bailing. An engine tuned through WithFastLimits gets a dense
	// table sized to its configured bound — authoritative in both
	// directions, so limits in the 1..256 band shrink the table as well as
	// cap the space (SetMaxStride rounds to a power of two in
	// [16, model.DefaultMaxStride]; beyond that the overflow map serves
	// the remainder).
	stride := uint32(256)
	if e.fastLimitsSet {
		stride = uint32(e.maxFastStates)
	}
	cache.SetMaxStride(stride)
	e.fast = &fastPath{
		in:      in,
		cache:   cache,
		batcher: bt,
		ids:     make([]uint32, len(e.cfg)),
		noAdv:   noAdv,
	}
	return e.fast
}

// materialize refreshes e.cfg from the ID vector after batched stepping.
func (e *Engine) materialize() {
	f := e.fast
	if f == nil || !f.cfgStale {
		return
	}
	e.cfg = f.in.Materialize(f.ids, e.cfg)
	f.cfgStale = false
}

// disableFast abandons the fast path permanently, leaving e.cfg
// authoritative and releasing the interner, transition table and ID vector.
func (e *Engine) disableFast() {
	e.probe.Degrade("vector-fast", "vector-slow", int64(e.steps),
		fmt.Sprintf("interned state space exceeds %d states", e.maxFastStates))
	e.materialize()
	f := e.fast
	f.disabled = true
	f.in, f.cache, f.batcher, f.ids = nil, nil, nil, nil
	f.logChunk, f.chunkLog, f.snap = false, nil, nil
	f.bisectIDs, f.bisectCfg = nil, nil
}

// stepSlow applies k scheduled interactions through Step.
func (e *Engine) stepSlow(k int) (int, error) {
	for i := 0; i < k; i++ {
		if err := e.Step(); err != nil {
			e.publishProbe()
			return i, err
		}
	}
	e.publishProbe()
	return k, nil
}

// StepBatch consumes up to k scheduled interactions (plus whatever the
// adversary injects) through the dense-ID fast path. Executions are
// seed-identical to k Step calls; only the cost differs. (One carve-out:
// components drawing auxiliary randomness from the scheduler itself via
// sched.Random.Intn observe a different stream position under batching,
// since schedules are pre-drawn in chunks — see the Intn doc; the in-repo
// adversaries carry their own sources and are unaffected.) The fast path
// requires a batching scheduler and a state space that stays small (finite
// protocols); otherwise StepBatch transparently falls back to Step — so it
// is always safe to call. It returns the number of scheduled interactions
// consumed, with ErrExhausted when the scheduler ran out early.
func (e *Engine) StepBatch(k int) (int, error) {
	if k <= 0 {
		return 0, nil
	}
	f := e.ensureFast()
	if f.disabled {
		return e.stepSlow(k)
	}
	if !f.idsValid {
		e.materialize()
		f.ids = f.in.InternConfig(e.cfg, f.ids[:0])
		f.idsValid = true
	}
	if f.in.Len() > e.maxFastStates {
		e.disableFast()
		return e.stepSlow(k)
	}
	n := len(f.ids)
	lean := f.noAdv && !e.rec.KeepInteractions
	consumed := 0
	for consumed < k {
		chunk := k - consumed
		if chunk > e.maxBatchChunk {
			chunk = e.maxBatchChunk
		}
		batch := f.batcher.NextBatch(n, chunk)
		if len(batch) == 0 {
			return consumed, ErrExhausted
		}
		var err error
		if lean {
			err = e.applyBatchLean(f, batch)
		} else {
			err = e.applyBatchGeneral(f, batch)
		}
		if err != nil {
			return consumed, err
		}
		consumed += len(batch)
		e.publishProbe()
		if f.in.Len() > e.maxFastStates {
			e.disableFast()
			rest, err := e.stepSlow(k - consumed)
			return consumed + rest, err
		}
	}
	return consumed, nil
}

// applyBatchLean is the hot loop: no adversary, no interaction retention.
// The inner loop is deliberately call-free — cache misses and event-emitting
// transitions drop out to the handler below — so the compiler keeps the loop
// state in registers; per interaction the steady-state cost is one
// dense-table load, two ID loads, two ID stores and a counter.
func (e *Engine) applyBatchLean(f *fastPath, batch []pp.Interaction) error {
	if f.logChunk {
		f.chunkLog = append(f.chunkLog, batch...)
	}
	ids := f.ids
	cache := f.cache
	tab, stride := cache.Dense()
	st64 := uint64(stride)
	base := e.steps // steps == base+i throughout: one scheduled interaction each
	i := 0
	for i < len(batch) {
		for ; i < len(batch); i++ {
			si, ri := batch[i].Starter, batch[i].Reactor
			s, r := ids[si], ids[ri]
			// stride is a power of two, so one compare covers both IDs.
			if s|r >= stride {
				break
			}
			ent := tab[uint64(s)*st64+uint64(r)]
			if !model.EntryLean(ent) {
				break
			}
			ids[si] = model.EntryStarter(ent)
			ids[ri] = model.EntryReactor(ent)
		}
		if i >= len(batch) {
			break
		}
		// Exceptional interaction: uncached (evaluate δ and refresh the
		// possibly-regrown table) or one that emits simulation events.
		it := batch[i]
		s, r := ids[it.Starter], ids[it.Reactor]
		ent, err := cache.Apply(s, r, pp.OmissionNone)
		if err != nil {
			// Terminal: account for the i interactions actually applied
			// so engine, recorder and adversary indices stay consistent.
			e.steps = base + i
			e.schedIdx += i
			e.rec.AddSteps(i, 0)
			f.cfgStale = true
			return fmt.Errorf("apply %v: %w", it, err)
		}
		tab, stride = cache.Dense()
		st64 = uint64(stride)
		ids[it.Starter] = model.EntryStarter(ent)
		ids[it.Reactor] = model.EntryReactor(ent)
		if aux := model.EntryAux(ent); aux != 0 {
			e.emitFastEvents(f, it, s, r, pp.OmissionNone, aux, base+i)
		}
		i++
	}
	e.steps = base + len(batch)
	e.schedIdx += len(batch)
	e.rec.AddSteps(len(batch), 0)
	f.cfgStale = true
	return nil
}

// applyBatchGeneral is the batched loop with adversary injections and/or
// interaction retention: still cached and ID-based, but with the per-step
// bookkeeping of the slow path.
func (e *Engine) applyBatchGeneral(f *fastPath, batch []pp.Interaction) error {
	n := len(f.ids)
	for _, it := range batch {
		for _, om := range e.adv.Inject(e.schedIdx, it, n) {
			if !om.Omission.IsOmissive() {
				f.cfgStale = true
				return fmt.Errorf("%w: adversary injected non-omissive %v", ErrConfig, om)
			}
			if err := e.applyFastOne(f, om); err != nil {
				return err
			}
		}
		e.schedIdx++
		if err := e.applyFastOne(f, it); err != nil {
			return err
		}
	}
	return nil
}

// applyFastOne applies one interaction on the ID vector, mirroring
// Engine.apply.
func (e *Engine) applyFastOne(f *fastPath, it pp.Interaction) error {
	if !it.Valid(len(f.ids)) {
		f.cfgStale = true
		return fmt.Errorf("%w: interaction %v for n=%d", ErrConfig, it, len(f.ids))
	}
	s, r := f.ids[it.Starter], f.ids[it.Reactor]
	ent, err := f.cache.Apply(s, r, it.Omission)
	if err != nil {
		f.cfgStale = true
		return fmt.Errorf("apply %v: %w", it, err)
	}
	f.ids[it.Starter] = model.EntryStarter(ent)
	f.ids[it.Reactor] = model.EntryReactor(ent)
	idx := e.steps
	e.steps++
	e.rec.OnInteraction(it)
	if aux := model.EntryAux(ent); aux != 0 {
		e.emitFastEvents(f, it, s, r, it.Omission, aux, idx)
	}
	f.cfgStale = true
	return nil
}

// emitFastEvents forwards the simulated-state events of one cached
// transition, mirroring Engine.emitEvent (starter first, then reactor). The
// event content comes from the transition cache's memoized payload — the
// behavioral events of the (sID, rID, om) transition itself — never from the
// result representatives' LastEvent caches, which describe whatever
// transition first produced those keys. Index and Agent are stamped here;
// Seq and Tag are assigned by the recorder's per-run provenance layer.
func (e *Engine) emitFastEvents(f *fastPath, it pp.Interaction, sID, rID uint32, om pp.OmissionSide, aux uint8, idx int) {
	p, ok := f.cache.Payload(sID, rID, om)
	pair, _ := p.(*sim.EventPair)
	if !ok || pair == nil {
		return
	}
	if aux&auxStarterEvent != 0 && pair.Starter != nil {
		ev := *pair.Starter
		ev.Index = idx
		ev.Agent = it.Starter
		e.rec.OnEvent(ev)
	}
	if aux&auxReactorEvent != 0 && pair.Reactor != nil {
		ev := *pair.Reactor
		ev.Index = idx
		ev.Agent = it.Reactor
		e.rec.OnEvent(ev)
	}
}

// RunStepsBatch is RunSteps over the fast path: it performs k scheduled
// steps (plus adversary injections), stopping early without error if the
// scheduler exhausts.
func (e *Engine) RunStepsBatch(k int) error {
	_, err := e.StepBatch(k)
	if errors.Is(err, ErrExhausted) {
		return nil
	}
	return err
}

// RunUntilEvery steps the engine through the fast path until pred holds for
// the current configuration or maxScheduled scheduled interactions have been
// consumed, evaluating pred only every `every` scheduled interactions
// (and once up front). Sparse convergence checks are what make batching pay:
// predicates scan the whole configuration, so checking per step makes every
// step Θ(n). every ≤ 1 checks after every step.
//
// The returned step count is the number of scheduled interactions this call
// consumed up to and including the first one after which pred held (0 when
// pred held on entry), or the total consumed when ok is false. On the lean
// fast path (batching scheduler, no adversary, no interaction retention) the
// hitting time is exact even for every > 1: the chunk in which the predicate
// flipped is bisected by replaying prefixes of its recorded interactions
// against a snapshot of the chunk-start ID vector — exact for the absorbing
// (once true, stays true) convergence predicates this driver is meant for.
// Off the lean path the count stays `every`-step granular. Either way the
// engine itself always ends at the last chunk boundary, keeping its
// scheduler stream position consistent with Steps().
func (e *Engine) RunUntilEvery(pred func(pp.Configuration) bool, every, maxScheduled int) (int, bool, error) {
	if every < 1 {
		every = 1
	}
	e.materialize()
	if pred(e.cfg) {
		return 0, true, nil
	}
	consumed := 0
	for consumed < maxScheduled {
		chunk := maxScheduled - consumed
		if chunk > every {
			chunk = every
		}
		// Arming snapshots the chunk start — on this agent-vector path an
		// O(n) ID copy, so it is only worth paying when a chunk can hide
		// more than one candidate hitting step. (The counts backend arms
		// with an O(|Q|) counts copy instead — CountEngine.RunUntil — which
		// is where large-n convergence runs should live;
		// BenchmarkRunUntilArming tracks the gap.)
		armed := chunk > 1 && e.armChunkLog()
		applied, err := e.StepBatch(chunk)
		exact := e.disarmChunkLog(applied)
		consumed += applied
		e.materialize()
		if err != nil && !errors.Is(err, ErrExhausted) {
			return consumed, false, err
		}
		if pred(e.cfg) {
			hit := consumed
			if armed && exact && applied > 1 {
				hit = consumed - applied + e.bisectChunk(pred, applied)
			}
			return hit, true, nil
		}
		if err != nil { // exhausted, predicate still false
			return consumed, false, nil
		}
	}
	return consumed, false, nil
}

// armChunkLog prepares the lean fast path to record the next StepBatch
// chunk for exact-hitting-time bisection: it snapshots the ID vector and
// turns on interaction logging. It reports false when the engine cannot
// bisect — no batching fast path, an adversary installed, or interaction
// retention on — in which case nothing is recorded.
func (e *Engine) armChunkLog() bool {
	f := e.ensureFast()
	if f.disabled || !f.noAdv || e.rec.KeepInteractions {
		return false
	}
	if !f.idsValid {
		e.materialize()
		f.ids = f.in.InternConfig(e.cfg, f.ids[:0])
		f.idsValid = true
	}
	if f.in.Len() > e.maxFastStates {
		return false // StepBatch is about to disable the fast path
	}
	f.snap = append(f.snap[:0], f.ids...)
	f.chunkLog = f.chunkLog[:0]
	f.logChunk = true
	return true
}

// disarmChunkLog stops chunk recording and reports whether the log
// faithfully covers all `applied` interactions (the fast path stayed
// enabled for the whole chunk, so the snapshot + log can replay it).
func (e *Engine) disarmChunkLog(applied int) bool {
	f := e.fast
	if f == nil || f.disabled {
		return false
	}
	ok := f.logChunk && len(f.chunkLog) == applied
	f.logChunk = false
	return ok
}

// bisectChunk finds the exact hitting step within the just-applied chunk:
// pred was false on the chunk-start snapshot and true after all `applied`
// interactions, so a binary search over prefix lengths returns the smallest
// m with pred true — exact for absorbing predicates. Replays run on scratch
// buffers through the already-warm transition cache (every pair in the log
// was just applied, so lookups cannot miss or grow anything); the engine's
// own state, counters and recorder stay untouched.
func (e *Engine) bisectChunk(pred func(pp.Configuration) bool, applied int) int {
	f := e.fast
	lo, hi := 1, applied
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ids := append(f.bisectIDs[:0], f.snap...)
		for _, it := range f.chunkLog[:mid] {
			ent, err := f.cache.Apply(ids[it.Starter], ids[it.Reactor], it.Omission)
			if err != nil {
				return applied // cannot replay; keep chunk-end granularity
			}
			ids[it.Starter] = model.EntryStarter(ent)
			ids[it.Reactor] = model.EntryReactor(ent)
		}
		f.bisectIDs = ids
		f.bisectCfg = f.in.Materialize(ids, f.bisectCfg)
		if pred(f.bisectCfg) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
