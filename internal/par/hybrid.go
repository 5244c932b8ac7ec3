// The counts hybrid tier: P workers each own a full O(|Q|) counts vector
// over a population *slice* of n/P agents, step whole collision-aware batch
// runs locally with their own sched.BatchScheduler, and re-deal the pooled
// population between slices with an exact multivariate-hypergeometric split
// (sched.HypSampler.SplitCounts) at epoch barriers. Two levers compose:
//
//   - the counts representation makes per-slice storage O(|Q|), not O(n/P),
//     so n = 10⁸–10⁹ fits in a few KB per worker;
//   - batch runs apply Θ(√(n/P)) interactions per O(|Q|²) aggregate pass,
//     so per-interaction cost vanishes as n grows;
//   - P slices step concurrently between barriers.
//
// # Statistical contract
//
// The hybrid's interaction law is NOT the global uniform pairing: between
// barriers agents only meet slice-mates, and the MVH re-deal at each epoch
// barrier re-mixes the population exactly as a uniform random re-partition
// would. With the default epoch (3·(n/P) interactions per worker ≈ 3
// parallel time units between re-mixes) the trajectory distributions of the
// protocols in this repository are indistinguishable from the sequential
// batch engine's by the equivalence suite (convergence times, transient
// marginals). Population protocols' convergence guarantees hold under any
// fair scheduler; the hybrid is one.
//
// # Determinism
//
// A hybrid run is a pure function of (seed, P): worker w draws from stream
// CountStreamIndex+1+w, the exchange deal from CountStreamIndex+1+P, and
// wave barriers only observe — they never perturb a worker's draw sequence.
// Dense state IDs are minted only by the coordinator, never by a worker: a
// worker whose transition yields a state nobody has interned parks at that
// cell, and the coordinator mints for the parked workers one at a time,
// earliest in-epoch position first (ties to the lower worker index). The
// ID order — which the batch sampler and the exchange walk — is therefore
// independent of goroutine scheduling. Call granularity (RunSteps chunking,
// RunUntilCounts evaluation cadence) does not change the trajectory, only
// where it is observed. Changing P changes the trajectory (it changes the
// law's slice structure).
//
// # Step accounting
//
// Workers only pause at run boundaries (a mid-run counts vector is not a
// complete state — the collision draw conditions on the run's used-agent
// multiset, so re-dealing mid-run would be both biased and mechanically
// unsound). RunSteps(k) therefore applies AT LEAST k interactions: each
// worker rounds its share up to the end of its current run, an overshoot of
// E[L] ≈ 0.63·√(n/P) per worker per wave — vanishing against the default
// epoch of 3·(n/P). Steps() reports the exact number applied.
package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"popsim/internal/model"
	"popsim/internal/obs"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
)

// Errors.
var (
	// ErrHybrid is returned for invalid hybrid-runner configurations.
	ErrHybrid = errors.New("par: invalid hybrid configuration")
	// ErrStateSpace is returned when the interned state space outgrows the
	// hybrid's bound — at construction (too many distinct initial states)
	// or mid-run (the run keeps minting new states). Callers that can
	// should degrade to a sequential engine (System.RunHybridCounts does so
	// automatically, reporting the reason).
	ErrStateSpace = errors.New("par: state space exceeds the hybrid bound")
)

// MaxHybridStates caps HybridOptions.MaxStates. The per-worker dense
// mirrors stay table-friendly regardless (they cap their stride at 1024 and
// spill to per-worker overflow maps), so the bound's job is to keep the
// overflow maps and the shared interner from growing without limit —
// wrapped simulators with canonical keys accumulate a long tail of rare
// queue-content states on top of a small hot set, which is why the cap sits
// well above the finite-protocol default. Even wider state spaces stay on
// the sequential engines.
const MaxHybridStates = 1 << 15

// protocolName names a protocol for error context, when it can.
func protocolName(p any) string {
	if n, ok := p.(interface{ Name() string }); ok {
		return n.Name()
	}
	return fmt.Sprintf("%T", p)
}

// stateSpaceErr is the single construction site for ErrStateSpace: every
// report carries the same wording, the protocol name and — mid-run — the
// worker whose transition hit the bound.
func stateSpaceErr(protocol any, worker, states, bound int) error {
	where := "initial configuration"
	if worker >= 0 {
		where = fmt.Sprintf("worker %d", worker)
	}
	return fmt.Errorf("%w: protocol %s: %d distinct states > %d (%s)",
		ErrStateSpace, protocolName(protocol), states, bound, where)
}

// HybridOptions tune a HybridRunner. The zero value picks defaults.
type HybridOptions struct {
	// Shards is the worker count P. 0 means GOMAXPROCS; the value is
	// clamped to n/2 so every slice holds at least two agents.
	Shards int
	// Epoch is the nominal number of interactions each worker applies
	// between exchange barriers. 0 means 3·(n/P), floored at 64: a
	// re-mix every ≈ 3 parallel time units.
	Epoch int
	// MaxStates bounds the interned state space (0 = 1024, or
	// MaxHybridStates for wrapped simulator states). Values above
	// MaxHybridStates are rejected. Beyond the bound the run fails with
	// ErrStateSpace; callers should degrade to the sequential engine.
	MaxStates int
	// TrackEvents counts the simulation events of wrapped simulator states
	// as workers hit event-emitting transitions; read the total with
	// EventCount. The hybrid never retains event content — its agents have
	// no identity to attribute events to (counts representation), so there
	// is no RecordEvents. Long runs that need the stream stay sequential.
	TrackEvents bool
}

// HybridRunner executes one population run on P count-sliced batch workers.
// Build with NewHybrid (per-agent initial configuration) or
// NewHybridFromCounts (counts-native, the only constructor that scales to
// n = 10⁸–10⁹). Methods must not be called concurrently.
type HybridRunner struct {
	p           int
	epoch       int
	maxStates   int
	kind        model.Kind
	protocol    any
	trackEvents bool

	// mu guards the transition cache on worker cold paths. Workers only
	// read the interner; the coordinator mints between waves, when no
	// worker runs. Everything else is coordinator-owned or worker-private.
	mu    sync.Mutex
	in    *pp.Interner
	cache *model.TransitionCache

	n       int
	hyp     sched.HypSampler
	exch    sched.BufStream
	sizes   []int64
	pool    []int64
	outs    [][]int64
	workers []*hybridWorker

	counts     pp.Counts // barrier-merged global counts
	steps      int64     // interactions actually applied
	sinceEx    int       // nominal in-epoch position, 0..P·Epoch
	eventCount int

	// probe, when armed, is published at wave barriers only: merged steps,
	// batch-run tallies folded from the per-worker schedulers (never rebuilt
	// mid-run, so their RunStats are cumulative), per-worker busy time, and
	// wave wall time. Unarmed runs skip all timing — no clock reads on any
	// worker path.
	probe *obs.RunProbe
}

// hybridWorker is one count-sliced batch worker. Hot, per-interaction-pass
// storage (counts, used, dense mirror) is allocated cache-line-aligned and
// the struct itself is padded: no two workers' wave-time writes may share a
// coherence line.
type hybridWorker struct {
	_ [cacheLine]byte

	hr   *HybridRunner
	idx  int
	size int64 // slice population, fixed across exchanges

	bs     *sched.BatchScheduler
	counts pp.Counts // slice-local counts, len kept ≥ minted IDs
	used   []int64   // post-state multiset of the active run

	// The run in flight (nil between runs) and where to resume it: the
	// next cell, and the collision pair once drawn. A worker parks when a
	// transition needs a state nobody has interned (parked, with the pair
	// in ps, pr) and resumes at the same cell once the coordinator minted.
	run      *sched.BatchRun
	cell     int
	collided bool
	cs, cr   uint32
	parked   bool
	ps, pr   uint32

	target  int // cumulative nominal in-epoch target (set by stepWave)
	done    int // in-epoch interactions applied (≥ target after a wave)
	applied int64

	// Private transition mirror: dense powers-of-two table with overflow
	// map, memoizing the shared cache's entries outside the mutex.
	dense  []uint64
	stride uint32
	over   map[uint64]uint64

	eventCount int
	err        error

	_ [cacheLine]byte
}

// NewHybrid builds a hybrid runner from a per-agent initial configuration.
// For populations too large to materialize, use NewHybridFromCounts.
func NewHybrid(k model.Kind, protocol any, initial pp.Configuration, seed int64, opts HybridOptions) (*HybridRunner, error) {
	if len(initial) < 2 {
		return nil, fmt.Errorf("%w: population size %d < 2", ErrHybrid, len(initial))
	}
	states := make([]pp.State, len(initial))
	counts := make(pp.Counts, len(initial))
	for i, s := range initial {
		states[i] = s
		counts[i] = 1
	}
	return NewHybridFromCounts(k, protocol, states, counts, seed, opts)
}

// NewHybridFromCounts builds a hybrid runner directly from a counts vector:
// counts[i] agents in states[i], duplicates merged by interned identity.
// The initial population is dealt to the P worker slices by the same MVH
// split the epoch barriers use (consuming the exchange stream's first
// draws), so the t=0 slice contents are already an exact uniform partition.
func NewHybridFromCounts(k model.Kind, protocol any, states []pp.State, counts pp.Counts, seed int64, opts HybridOptions) (*HybridRunner, error) {
	if len(states) != len(counts) {
		return nil, fmt.Errorf("%w: %d states vs %d counts", ErrHybrid, len(states), len(counts))
	}
	var n64 int64
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("%w: negative count %d for state %d", ErrHybrid, c, i)
		}
		n64 += c
	}
	if n64 < 2 {
		return nil, fmt.Errorf("%w: population size %d < 2", ErrHybrid, n64)
	}
	if int64(int(n64)) != n64 {
		return nil, fmt.Errorf("%w: population size %d overflows int", ErrHybrid, n64)
	}
	n := int(n64)
	if k.OneWay() {
		if _, ok := protocol.(pp.OneWay); !ok {
			return nil, fmt.Errorf("%w: model %v needs a pp.OneWay protocol", ErrHybrid, k)
		}
	} else if _, ok := protocol.(pp.TwoWay); !ok {
		return nil, fmt.Errorf("%w: model %v needs a pp.TwoWay protocol", ErrHybrid, k)
	}
	wrapped := sim.AnyWrapped(states)
	if wrapped && !sim.Canonicalized(states) {
		return nil, fmt.Errorf("%w: protocol %s: wrapped states without canonical keys (sim.CanonicalKeyed) cannot be interned; run on the sequential engine",
			ErrHybrid, protocolName(protocol))
	}
	p := opts.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n/2 {
		p = n / 2
	}
	if p < 1 {
		p = 1
	}
	epoch := opts.Epoch
	if epoch <= 0 {
		epoch = 3 * (n / p)
	}
	if epoch < 64 {
		epoch = 64
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1024
		if wrapped {
			maxStates = MaxHybridStates
		}
	}
	if maxStates > MaxHybridStates {
		return nil, fmt.Errorf("%w: MaxStates %d > %d (wider state spaces stay on the sequential engine)",
			ErrHybrid, maxStates, MaxHybridStates)
	}

	in := pp.NewInterner()
	var aux model.AuxFunc
	if opts.TrackEvents {
		aux = sim.EventAux
	}
	cache := model.NewTransitionCache(k, protocol, in, aux)
	// The shared cache only serves the mutex-guarded miss path; the
	// per-worker mirrors carry the hot lookups.
	cache.SetMaxStride(256)

	hr := &HybridRunner{
		p:           p,
		epoch:       epoch,
		maxStates:   maxStates,
		kind:        k,
		protocol:    protocol,
		trackEvents: opts.TrackEvents,
		in:          in,
		cache:       cache,
		n:           n,
		exch:        sched.NewBufStream(sched.SplitStream(seed, sched.CountStreamIndex+1+p)),
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
	if in.Len() > maxStates {
		return nil, stateSpaceErr(protocol, -1, in.Len(), maxStates)
	}

	hr.sizes = make([]int64, p)
	for w := 0; w < p; w++ {
		hr.sizes[w] = int64(n / p)
		if w < n%p {
			hr.sizes[w]++
		}
	}
	hr.workers = make([]*hybridWorker, p)
	hr.outs = make([][]int64, p)
	for w := 0; w < p; w++ {
		hw := &hybridWorker{
			hr:   hr,
			idx:  w,
			size: hr.sizes[w],
			bs:   sched.NewBatchSchedulerAt(seed, sched.CountStreamIndex+1+w, int(hr.sizes[w])),
			over: make(map[uint64]uint64),
		}
		hw.counts = pp.Counts(alignedSlice[int64](len(cvec)))
		hw.used = alignedSlice[int64](len(cvec))
		hr.workers[w] = hw
		hr.outs[w] = hw.counts
	}
	hr.pool = append(hr.pool, cvec...)
	hr.hyp.SplitCounts(&hr.exch, hr.pool, hr.sizes, hr.outs)
	hr.counts = cvec.Clone()
	return hr, nil
}

// P returns the worker count. Epoch returns the per-worker nominal
// interactions between exchanges. N returns the population size.
func (hr *HybridRunner) P() int     { return hr.p }
func (hr *HybridRunner) Epoch() int { return hr.epoch }
func (hr *HybridRunner) N() int     { return hr.n }

// Steps returns the total interactions applied so far (the exact count,
// including the run-boundary rounding described in the package comment).
func (hr *HybridRunner) Steps() int64 { return hr.steps }

// EventCount returns the simulation events counted so far (TrackEvents
// runs), current as of the last wave barrier.
func (hr *HybridRunner) EventCount() int { return hr.eventCount }

// Interner exposes the shared interner for decoding counts indices.
func (hr *HybridRunner) Interner() *pp.Interner { return hr.in }

// Counts returns the global counts vector as of the last barrier — the
// runner's live storage: shared, read-only, valid until the next call.
func (hr *HybridRunner) Counts() pp.Counts { return hr.counts }

// Probe returns the runner's progress probe, arming one on first call.
// Publishing happens at wave barriers (the runner's only synchronization
// points); per-worker cells report busy time and steps, with barrier wait
// derived read-side as wave wall time minus busy time.
func (hr *HybridRunner) Probe() *obs.RunProbe {
	if hr.probe == nil {
		hr.SetProbe(obs.NewRunProbe())
	}
	return hr.probe
}

// SetProbe attaches an existing probe; nil disarms.
func (hr *HybridRunner) SetProbe(probe *obs.RunProbe) {
	hr.probe = probe
	if probe == nil {
		return
	}
	probe.SetTier(obs.TierHybrid)
	probe.ArmWorkers(hr.p)
	hr.publishProbe()
}

// publishProbe mirrors barrier-merged totals into the armed probe.
func (hr *HybridRunner) publishProbe() {
	p := hr.probe
	if p == nil {
		return
	}
	p.PublishSteps(hr.steps)
	p.PublishStates(int64(hr.in.Len()))
	if hr.trackEvents {
		p.PublishEvents(int64(hr.eventCount))
	}
	var runs, totalLen, colls int64
	for _, w := range hr.workers {
		r, l, c := w.bs.RunStats()
		runs += r
		totalLen += l
		colls += c
	}
	p.PublishBatch(runs, totalLen, colls)
}

// RunSteps advances the run by at least k interactions (each worker rounds
// its share up to a whole-run boundary; read the exact total from Steps).
// Exchanges fire whenever the nominal position completes an epoch.
func (hr *HybridRunner) RunSteps(k int) error {
	perEpoch := hr.p * hr.epoch
	for k > 0 {
		quota := perEpoch - hr.sinceEx
		if quota > k {
			quota = k
		}
		if err := hr.stepWave(quota); err != nil {
			return err
		}
		if hr.sinceEx == perEpoch {
			hr.exchange()
		}
		k -= quota
	}
	return nil
}

// RunUntilCounts runs until pred holds on the barrier-merged global counts
// vector or maxSteps nominal interactions have elapsed, evaluating pred
// every `every` nominal interactions (every ≤ 0 means one full epoch,
// P·Epoch). It returns the interactions actually applied by this call and
// whether pred was met. Hitting is barrier-granular: interactions between
// barriers are concurrent, so there is no finer-grained "first step" — the
// sequential batch engine is the tool for exact hitting times. The vector
// passed to pred is the runner's live counts — shared, read-only, valid
// only during the call.
func (hr *HybridRunner) RunUntilCounts(pred func(pp.Counts) bool, every, maxSteps int) (int64, bool, error) {
	if every <= 0 {
		every = hr.p * hr.epoch
	}
	start := hr.steps
	if pred(hr.counts) {
		return 0, true, nil
	}
	consumed := 0
	for consumed < maxSteps {
		chunk := maxSteps - consumed
		if chunk > every {
			chunk = every
		}
		if err := hr.RunSteps(chunk); err != nil {
			return hr.steps - start, false, err
		}
		consumed += chunk
		if pred(hr.counts) {
			return hr.steps - start, true, nil
		}
	}
	return hr.steps - start, false, nil
}

// parallel runs fn on every worker, the coordinator taking worker 0.
func (hr *HybridRunner) parallel(fn func(w *hybridWorker)) {
	if hr.p == 1 {
		fn(hr.workers[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(hr.p - 1)
	for _, w := range hr.workers[1:] {
		go func(w *hybridWorker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(hr.workers[0])
	wg.Wait()
}

// stepWave advances the nominal position by quota, distributing cumulative
// per-worker targets as a pure function of the new position (so trajectories
// are invariant under wave chunking), and merges counts and event totals at
// the barrier.
func (hr *HybridRunner) stepWave(quota int) error {
	newPos := hr.sinceEx + quota
	share, extra := newPos/hr.p, newPos%hr.p
	for i, w := range hr.workers {
		w.target = share
		if i < extra {
			w.target++
		}
	}
	step := (*hybridWorker).stepTo
	probe := hr.probe
	var waveStart time.Time
	if probe != nil {
		waveStart = time.Now()
		step = func(w *hybridWorker) {
			busyStart := time.Now()
			w.stepTo()
			probe.Worker(w.idx).AddBusy(time.Since(busyStart))
		}
	}
	hr.parallel(step)
	// Parked workers resume one at a time, earliest in-epoch position first.
	// Every worker still running has passed that position, so no state can
	// be needed earlier than the one minted here: IDs come out in the same
	// order however the caller chunks the run.
	for w := hr.nextParked(); w != nil; w = hr.nextParked() {
		if err := hr.mint(w); err != nil {
			return err
		}
		step(w)
	}
	for _, w := range hr.workers {
		if w.err != nil {
			return w.err
		}
	}
	if probe != nil {
		for _, w := range hr.workers {
			probe.Worker(w.idx).AddSteps(w.applied) // reset by merge, so this is the wave's share
		}
		probe.AddWave(time.Since(waveStart))
	}
	hr.sinceEx = newPos
	hr.merge()
	hr.publishProbe()
	return nil
}

// nextParked returns the parked worker whose run started earliest in the
// epoch, the lower index on ties, or nil when no worker is parked.
func (hr *HybridRunner) nextParked() *hybridWorker {
	var next *hybridWorker
	for _, w := range hr.workers {
		if w.parked && (next == nil || w.done < next.done) {
			next = w
		}
	}
	return next
}

// mint evaluates the transition a parked worker waits on, interning its
// result states, and unparks the worker. Only the coordinator calls it,
// between waves, so the interner never changes while workers run.
func (hr *HybridRunner) mint(w *hybridWorker) error {
	w.parked = false
	if _, err := hr.cache.Apply(w.ps, w.pr, pp.OmissionNone); err != nil {
		return err
	}
	if states := hr.in.Len(); states > hr.maxStates {
		return stateSpaceErr(hr.protocol, w.idx, states, hr.maxStates)
	}
	return nil
}

// merge recomputes the global counts vector and folds worker step/event
// totals — O(P·|Q|), amortized over the wave.
func (hr *HybridRunner) merge() {
	nStates := hr.in.Len()
	if cap(hr.counts) < nStates {
		hr.counts = append(hr.counts, make(pp.Counts, nStates-len(hr.counts))...)
	}
	hr.counts = hr.counts[:nStates]
	for q := range hr.counts {
		hr.counts[q] = 0
	}
	for _, w := range hr.workers {
		for q, c := range w.counts {
			if c != 0 {
				hr.counts[q] += c
			}
		}
		hr.steps += w.applied
		w.applied = 0
		hr.eventCount += w.eventCount
		w.eventCount = 0
	}
}

// exchange pools every worker's counts and re-deals the population into the
// fixed slice sizes with an exact MVH split, then resets the in-epoch
// counters. Callable only at a wave barrier where every worker sits at a
// run boundary.
func (hr *HybridRunner) exchange() {
	nStates := hr.in.Len()
	for len(hr.pool) < nStates {
		hr.pool = append(hr.pool, 0)
	}
	for q := range hr.pool {
		hr.pool[q] = 0
	}
	for w, hw := range hr.workers {
		for q, c := range hw.counts {
			if c != 0 {
				hr.pool[q] += c
			}
		}
		hw.grow(nStates)
		hr.outs[w] = hw.counts
	}
	hr.hyp.SplitCounts(&hr.exch, hr.pool, hr.sizes, hr.outs)
	hr.sinceEx = 0
	for _, hw := range hr.workers {
		hw.done = 0
	}
}

// grow widens the worker's counts and used vectors to nStates, preserving
// cache-line isolation of the backing arrays.
func (w *hybridWorker) grow(nStates int) {
	if len(w.counts) >= nStates {
		return
	}
	nc := alignedSlice[int64](nStates)
	copy(nc, w.counts)
	w.counts = pp.Counts(nc)
	nu := alignedSlice[int64](nStates)
	copy(nu, w.used)
	w.used = nu
}

// stepTo applies whole batch runs on the worker's slice until its in-epoch
// count reaches the wave target, or until it parks. Each run is an aggregate
// O(|Q|²) cell pass plus one individually resolved collision — the engine's
// batch fast path, minus truncation: the worker never stops mid-run except
// to park, and then resumes where it stopped.
func (w *hybridWorker) stepTo() {
	for w.run != nil || w.done < w.target {
		if w.run == nil {
			w.run, w.cell = w.bs.NextRun(w.counts), 0
			for i := range w.used {
				w.used[i] = 0
			}
		}
		if !w.applyRun() {
			return
		}
		if !w.collided {
			w.cs, w.cr = w.bs.CollidePair(w.counts, w.used, 2*w.run.L)
			w.collided = true
		}
		if !w.applyPair(w.cs, w.cr) {
			return
		}
		steps := int(w.run.L) + 1
		w.done += steps
		w.applied += int64(steps)
		w.run, w.collided = nil, false
	}
}

// applyRun applies the run's remaining aggregate state-pair cells to the
// local counts, accumulating the used-agent post-state multiset for the
// collision draw. It reports false when the worker parked or failed.
func (w *hybridWorker) applyRun() bool {
	dense, stride := w.dense, uint64(w.stride)
	cells := w.run.Cells
	for i := w.cell; i < len(cells); i++ {
		c := cells[i]
		s, r := c.S, c.R
		var ent uint64
		if uint64(s|r) < stride {
			ent = dense[uint64(s)*stride+uint64(r)]
		}
		if ent == 0 {
			if ent = w.lookupCold(s, r); ent == 0 {
				w.cell = i
				return false
			}
			dense, stride = w.dense, uint64(w.stride)
		}
		ns, nr := model.EntryStarter(ent), model.EntryReactor(ent)
		m := c.M
		w.counts[s] -= m
		w.counts[r] -= m
		w.counts[ns] += m
		w.counts[nr] += m
		w.used[ns] += m
		w.used[nr] += m
		if aux := model.EntryAux(ent); aux != 0 {
			if aux&sim.AuxStarterEvent != 0 {
				w.eventCount += int(m)
			}
			if aux&sim.AuxReactorEvent != 0 {
				w.eventCount += int(m)
			}
		}
	}
	w.cell = len(cells)
	return true
}

// applyPair applies one individually resolved interaction (the collision).
// It reports false when the worker parked or failed.
func (w *hybridWorker) applyPair(s, r uint32) bool {
	var ent uint64
	if stride := uint64(w.stride); uint64(s|r) < stride {
		ent = w.dense[uint64(s)*stride+uint64(r)]
	}
	if ent == 0 {
		if ent = w.lookupCold(s, r); ent == 0 {
			return false
		}
	}
	ns, nr := model.EntryStarter(ent), model.EntryReactor(ent)
	w.counts[s]--
	w.counts[r]--
	w.counts[ns]++
	w.counts[nr]++
	if aux := model.EntryAux(ent); aux != 0 {
		if aux&sim.AuxStarterEvent != 0 {
			w.eventCount++
		}
		if aux&sim.AuxReactorEvent != 0 {
			w.eventCount++
		}
	}
	return true
}

// lookupCold resolves a state pair the worker's private mirror does not
// hold: first its private overflow map, then the shared cache under the
// mutex, memoizing into the mirror either way and widening the local counts
// vectors to cover IDs minted since. A transition whose result states are
// not all interned yet parks the worker instead; lookupCold returns 0 then,
// and also on failure (w.err).
func (w *hybridWorker) lookupCold(s, r uint32) uint64 {
	key := uint64(s)<<32 | uint64(r)
	if ent, ok := w.over[key]; ok {
		return ent
	}
	hr := w.hr
	hr.mu.Lock()
	ent, err := hr.lookupShared(s, r)
	states := hr.in.Len()
	hr.mu.Unlock()
	if err != nil {
		w.err = err
		return 0
	}
	if ent == 0 {
		w.parked, w.ps, w.pr = true, s, r
		return 0
	}
	w.grow(states)
	w.store(s, r, ent)
	return ent
}

// lookupShared returns the shared cache's entry for (s, r), evaluating and
// caching the transition when both its result states are interned already;
// 0 means the transition would mint a state, which only the coordinator
// may do. The caller holds hr.mu.
func (hr *HybridRunner) lookupShared(s, r uint32) (uint64, error) {
	if ent, ok := hr.cache.Lookup(s, r); ok {
		return ent, nil
	}
	ns, nr, err := model.Apply(hr.kind, hr.protocol, hr.in.State(s), hr.in.State(r), pp.OmissionNone)
	if err != nil {
		return 0, err
	}
	if _, ok := hr.in.Lookup(ns); !ok {
		return 0, nil
	}
	if _, ok := hr.in.Lookup(nr); !ok {
		return 0, nil
	}
	return hr.cache.Apply(s, r, pp.OmissionNone)
}

// store memoizes a transition entry in the worker's private mirror, growing
// the dense table (powers of two, up to 1024²) and spilling to the overflow
// map beyond it.
func (w *hybridWorker) store(s, r uint32, ent uint64) {
	const strideCap = 1024
	need := s | r | model.EntryStarter(ent) | model.EntryReactor(ent)
	if need >= w.stride && w.stride < strideCap {
		stride := w.stride
		if stride == 0 {
			stride = 16
		}
		for stride <= need && stride < strideCap {
			stride *= 2
		}
		dense := alignedSlice[uint64](int(stride) * int(stride))
		for i := uint32(0); i < w.stride; i++ {
			copy(dense[uint64(i)*uint64(stride):], w.dense[uint64(i)*uint64(w.stride):uint64(i+1)*uint64(w.stride)])
		}
		w.dense, w.stride = dense, stride
	}
	if s < w.stride && r < w.stride {
		w.dense[uint64(s)*uint64(w.stride)+uint64(r)] = ent
		return
	}
	w.over[uint64(s)<<32|uint64(r)] = ent
}
