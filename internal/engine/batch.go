// Batch execution of the counts backend: collision-aware aggregate dynamics
// over sched.BatchScheduler runs. A run of L collision-free interactions
// (E[L] ≈ 0.63·√n) is applied as one pass over its O(|Q|²) state-pair cells;
// the terminating collision interaction is then resolved individually against
// the post-run counts and the run's used-agent multiset. The sequential order
// of batch mode is DEFINED as the expanded order (sched.BatchRun.Expand):
// the aggregate pass realizes exactly the expanded order's run-end state
// (the run's agents are disjoint and every input pair is drawn from the
// pre-run configuration), so applying a run wholesale or pair-by-pair is
// indistinguishable at every scheduler draw point — which is what makes
// call-granularity invariance, exact hitting-time recovery and run-boundary
// checkpoints all hold at once.
package engine

import (
	"fmt"

	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
)

// NewCountEngineFromCounts builds a counts-backend engine directly from a
// counts vector: counts[i] agents in states[i]. This is the counts-native
// constructor for populations too large to materialize as a per-agent
// pp.Configuration (the batch tier's 10⁸–10⁹ operating range — an O(n) slice
// of interface values would cost tens of gigabytes before the first step).
// Duplicate states are merged by interned identity. All other contracts
// (wrapped canonical keys, topology, options) match NewCountEngine.
func NewCountEngineFromCounts(k model.Kind, p any, states []pp.State, counts pp.Counts, seed int64, opts CountOptions) (*CountEngine, error) {
	if len(states) != len(counts) {
		return nil, fmt.Errorf("%w: %d states vs %d counts", ErrConfig, len(states), len(counts))
	}
	var n int64
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("%w: negative count %d for state %d", ErrConfig, c, i)
		}
		n += c
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: population size %d < 2", ErrConfig, n)
	}
	if int64(int(n)) != n {
		return nil, fmt.Errorf("%w: population size %d overflows int", ErrConfig, n)
	}
	if k.OneWay() {
		if _, ok := p.(pp.OneWay); !ok {
			return nil, fmt.Errorf("%w: model %v needs a pp.OneWay protocol", ErrConfig, k)
		}
	} else if _, ok := p.(pp.TwoWay); !ok {
		return nil, fmt.Errorf("%w: model %v needs a pp.TwoWay protocol", ErrConfig, k)
	}
	wrapped := sim.AnyWrapped(states)
	if wrapped && !sim.Canonicalized(states) {
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
		blockLen = blockLenFor(int(n))
	}
	if blockLen > int(n)/4 && blockLen > 1 {
		blockLen = int(n) / 4
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
	cache.SetMaxStride(256)
	ce := &CountEngine{
		kind:        k,
		protocol:    p,
		in:          in,
		cache:       cache,
		n:           int(n),
		maxStates:   maxStates,
		trackEvents: opts.TrackEvents,
	}
	if opts.batchFor(int(n)) {
		ce.batch = true
		ce.bs = sched.NewBatchScheduler(seed, int(n))
	} else {
		ce.cs = sched.NewCountScheduler(seed, blockLen)
		ce.exact = blockLen == 1
	}
	cvec := make(pp.Counts, 0, len(states))
	for i, st := range states {
		id := in.Intern(st)
		for int(id) >= len(cvec) {
			cvec = append(cvec, 0)
		}
		cvec[id] += counts[i]
	}
	for len(cvec) < in.Len() {
		cvec = append(cvec, 0)
	}
	ce.counts = cvec
	if in.Len() > maxStates {
		return nil, fmt.Errorf("%w: %d distinct states > %d (initial configuration)", ErrStateSpace, in.Len(), maxStates)
	}
	if ce.batch {
		ce.bused = make([]int64, len(ce.counts))
	}
	return ce, nil
}

// runBatchSteps applies up to k interactions of the batch dynamics, stopping
// early at the first run close once at least stop have been applied, and
// returns the number applied. Whole runs go through the aggregate path; a
// run that would overshoot k is expanded into its defined pair order and
// drained pairwise across calls, so executions are invariant under call
// chunking. While ce.logging is set, every pair takes the expanded path and
// is recorded in chunkLog/chunkRes — the hitting-time replay surface.
func (ce *CountEngine) runBatchSteps(k, stop int) (int, error) {
	done := 0
	for done < k {
		// Drain a truncated run's expanded pairs.
		if ce.bpendAt < len(ce.bpend) {
			pr := ce.bpend[ce.bpendAt]
			if err := ce.applyBatchPair(pr.S, pr.R, true); err != nil {
				return done, err
			}
			ce.bpendAt++
			done++
			continue
		}
		// The run's pairs are all applied: resolve the owed collision, which
		// closes the run — counts become a complete summary again.
		if ce.bcollide {
			s, r := ce.bs.CollidePair(ce.counts, ce.bused, ce.btwoL)
			if err := ce.applyBatchPair(s, r, false); err != nil {
				return done, err
			}
			ce.bcollide = false
			ce.bpend = ce.bpend[:0]
			ce.bpendAt = 0
			ce.btwoL = 0
			for i := range ce.bused {
				ce.bused[i] = 0
			}
			done++
			// Run close — counts are a complete summary again: the batch
			// tier's probe boundary (one publish per ~0.63·√n interactions).
			ce.bstatColl++
			ce.publishProbe()
			if done >= stop {
				break
			}
			continue
		}
		// Run boundary: sample the next run.
		run := ce.bs.NextRun(ce.counts)
		ce.bstatRuns++
		ce.bstatLen += run.L
		ce.btwoL = 2 * run.L
		for i := range ce.bused {
			ce.bused[i] = 0
		}
		ce.bcollide = true
		if !ce.logging && int64(k-done) >= run.L {
			if err := ce.applyBatchRun(run); err != nil {
				return done, err
			}
			done += int(run.L)
			continue
		}
		if err := ce.warmRunCells(run); err != nil {
			return done, err
		}
		ce.bpend = run.Expand(ce.bpend[:0])
		ce.bpendAt = 0
	}
	ce.publishProbe()
	return done, nil
}

// warmRunCells probes every cell's transition once, in cell order, before a
// run is applied pair by pair. Dense-ID assignment must not depend on
// whether a run takes the aggregate path (which meets transitions in cell
// order) or the expanded path (which would otherwise meet them in shuffle
// order) — state minting only appends zero counts, so warming early never
// changes a trajectory, it only pins the ID order; without it the two paths
// would stay multiset-equal but lose byte-identical chunking invariance.
func (ce *CountEngine) warmRunCells(run *sched.BatchRun) error {
	tab, stride := ce.cache.Dense()
	st64 := uint64(stride)
	for _, c := range run.Cells {
		s, r := c.S, c.R
		var ent uint64
		if uint64(s|r) < st64 {
			ent = tab[uint64(s)*st64+uint64(r)]
		}
		if ent != 0 {
			continue
		}
		if _, err := ce.cache.Apply(s, r, pp.OmissionNone); err != nil {
			return fmt.Errorf("apply (%d,%d): %w", s, r, err)
		}
		tab, stride = ce.cache.Dense()
		st64 = uint64(stride)
		if ce.in.Len() > ce.maxStates {
			return fmt.Errorf("%w: %d distinct states > %d (step %d)", ErrStateSpace, ce.in.Len(), ce.maxStates, ce.steps)
		}
		for len(ce.counts) < ce.in.Len() {
			ce.counts = append(ce.counts, 0)
		}
		for len(ce.bused) < ce.in.Len() {
			ce.bused = append(ce.bused, 0)
		}
	}
	return nil
}

// applyBatchPair applies one individually resolved interaction (an expanded
// run pair when inRun, else a collision pair) as a count delta, mirroring the
// block-mode inner loop: dense-table probe, memoizing cold path, state-space
// bound, event accounting, optional chunk logging. Run pairs additionally
// accumulate their output states into bused — the post-state multiset the
// collision draw conditions on.
func (ce *CountEngine) applyBatchPair(s, r uint32, inRun bool) error {
	tab, stride := ce.cache.Dense()
	st64 := uint64(stride)
	var ent uint64
	if uint64(s|r) < st64 {
		ent = tab[uint64(s)*st64+uint64(r)]
	}
	if ent == 0 {
		var err error
		ent, err = ce.cache.Apply(s, r, pp.OmissionNone)
		if err != nil {
			return fmt.Errorf("apply (%d,%d): %w", s, r, err)
		}
		if ce.in.Len() > ce.maxStates {
			// Not yet applied: the counts stay a consistent configuration a
			// caller can resume from on another backend.
			return fmt.Errorf("%w: %d distinct states > %d (step %d)", ErrStateSpace, ce.in.Len(), ce.maxStates, ce.steps)
		}
		for len(ce.counts) < ce.in.Len() {
			ce.counts = append(ce.counts, 0)
		}
		for len(ce.bused) < ce.in.Len() {
			ce.bused = append(ce.bused, 0)
		}
	}
	ns, nr := model.EntryStarter(ent), model.EntryReactor(ent)
	if ce.logging {
		ce.chunkLog = append(ce.chunkLog, sched.CountPair{S: s, R: r})
		ce.chunkRes = append(ce.chunkRes, sched.CountPair{S: ns, R: nr})
	}
	ce.counts[s]--
	ce.counts[r]--
	ce.counts[ns]++
	ce.counts[nr]++
	if aux := model.EntryAux(ent); aux != 0 {
		if aux&sim.AuxStarterEvent != 0 {
			ce.eventCount++
		}
		if aux&sim.AuxReactorEvent != 0 {
			ce.eventCount++
		}
	}
	if inRun {
		ce.bused[ns]++
		ce.bused[nr]++
	}
	ce.steps++
	return nil
}

// applyBatchRun applies a whole run as per-cell aggregate deltas — the batch
// fast path: O(|Q|²) cell applications for Θ(√n) interactions. Correctness of
// the wholesale application rests on the run's agents being pairwise
// distinct: every cell's input states were drawn against the pre-run counts,
// so no cell's inputs depend on another cell's outputs.
func (ce *CountEngine) applyBatchRun(run *sched.BatchRun) error {
	tab, stride := ce.cache.Dense()
	st64 := uint64(stride)
	counts := ce.counts
	bused := ce.bused
	for _, c := range run.Cells {
		s, r := c.S, c.R
		var ent uint64
		if uint64(s|r) < st64 {
			ent = tab[uint64(s)*st64+uint64(r)]
		}
		if ent == 0 {
			var err error
			ent, err = ce.cache.Apply(s, r, pp.OmissionNone)
			if err != nil {
				ce.counts, ce.bused = counts, bused
				return fmt.Errorf("apply (%d,%d): %w", s, r, err)
			}
			tab, stride = ce.cache.Dense()
			st64 = uint64(stride)
			if ce.in.Len() > ce.maxStates {
				ce.counts, ce.bused = counts, bused
				return fmt.Errorf("%w: %d distinct states > %d (step %d)", ErrStateSpace, ce.in.Len(), ce.maxStates, ce.steps)
			}
			for len(counts) < ce.in.Len() {
				counts = append(counts, 0)
			}
			for len(bused) < ce.in.Len() {
				bused = append(bused, 0)
			}
		}
		ns, nr := model.EntryStarter(ent), model.EntryReactor(ent)
		m := c.M
		counts[s] -= m
		counts[r] -= m
		counts[ns] += m
		counts[nr] += m
		bused[ns] += m
		bused[nr] += m
		if aux := model.EntryAux(ent); aux != 0 {
			if aux&sim.AuxStarterEvent != 0 {
				ce.eventCount += int(m)
			}
			if aux&sim.AuxReactorEvent != 0 {
				ce.eventCount += int(m)
			}
		}
		ce.steps += int(m)
	}
	ce.counts, ce.bused = counts, bused
	return nil
}
