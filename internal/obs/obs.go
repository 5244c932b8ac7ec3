// Package obs is the pull-based, allocation-free instrumentation substrate
// behind live run progress: engines and runners publish into
// cache-line-padded atomic progress cells only at boundaries they already
// cross (a sampled block, a collision-free run, an epoch barrier, a
// checkpoint slice — never per interaction), and readers assemble
// point-in-time snapshots on their own clock. The write side never calls
// time.Now, never allocates and never takes a lock; the budget gate
// (perf/budgets_obs.json) holds probes-on within 1.05× of probes-off on the
// counts inner loop and the batch dynamics rows.
//
// Every publish method is safe on a nil *RunProbe (it returns immediately),
// so instrumented code attaches probes with a plain field and publishes
// unconditionally at its boundaries — probes-off costs one predicted branch
// per boundary.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tier names the execution backend a probe is observing — the same backend
// vocabulary the facade's CountsRunResult and the serve layer report.
type Tier int32

const (
	// TierNone is an unarmed or not-yet-running probe.
	TierNone Tier = iota
	// TierVector is the batched agent-vector engine.
	TierVector
	// TierCounts is the counts backend on the exact/block samplers.
	TierCounts
	// TierCountsBatch is the counts backend on collision-aware batch
	// dynamics.
	TierCountsBatch
	// TierHybrid is the parallel counts hybrid runner.
	TierHybrid
)

// String returns the backend name the rest of the system uses.
func (t Tier) String() string {
	switch t {
	case TierVector:
		return "vector"
	case TierCounts:
		return "counts"
	case TierCountsBatch:
		return "counts-batch"
	case TierHybrid:
		return "hybrid"
	}
	return "none"
}

// cacheLine is the padding quantum keeping each hot cell on its own line, so
// a scraper hammering Snapshot never bounces the line a worker is writing.
const cacheLine = 64

// cell is one padded atomic counter.
type cell struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Hot-cell indices. Each is a totals register: writers Store (or Add) their
// own counters at boundaries; readers Load.
const (
	cSteps           = iota // interactions applied
	cStates                 // distinct interned states |Q|
	cEvents                 // simulated-state update events
	cBatchRuns              // batch tier: hypergeometric runs drawn
	cBatchRunLen            // batch tier: total collision-free run length
	cBatchCollisions        // batch tier: collision interactions
	cCheckpointSteps        // stream position of the latest checkpoint
	cCheckpointAt           // unix nanos of the latest checkpoint
	cWaves                  // parallel runners: epoch waves completed
	cWaveNanos              // parallel runners: wall nanos inside waves
	numCells
)

// WorkerCell is one parallel worker's padded publish surface: busy time
// inside wave bodies and interactions applied. Barrier wait is derived on
// the read side — total wave wall time minus the worker's busy time.
type WorkerCell struct {
	busy  cell
	steps cell
}

// AddBusy accumulates time spent inside a wave body.
func (w *WorkerCell) AddBusy(d time.Duration) {
	if w == nil {
		return
	}
	w.busy.v.Add(int64(d))
}

// AddSteps accumulates interactions applied by this worker.
func (w *WorkerCell) AddSteps(n int64) {
	if w == nil {
		return
	}
	w.steps.v.Add(n)
}

// DegradeEvent records a mid-run backend change with its reason — e.g. the
// counts backend abandoning a run whose state space outgrew its bound.
type DegradeEvent struct {
	// From and To are backend names (Tier strings or the facade's backend
	// labels).
	From string `json:"from"`
	To   string `json:"to"`
	// Steps is the stream position at the change.
	Steps int64 `json:"steps"`
	// Reason is the triggering error, verbatim.
	Reason string `json:"reason"`
}

// maxDegrades bounds the degrade log; a run that degrades more than this is
// pathological and the earliest events are the interesting ones.
const maxDegrades = 16

// RunProbe is one run's progress surface. The zero value is ready to use;
// all methods are safe on a nil receiver (no-ops for writes, a zero
// Snapshot for reads), so instrumented code never branches on probe
// presence beyond the nil check inlined into each call.
type RunProbe struct {
	cells [numCells]cell
	tier  atomic.Int32

	// workers is armed once before a parallel run starts (ArmWorkers) and
	// only read concurrently afterwards.
	workersMu sync.Mutex
	workers   []WorkerCell

	// Reader-side state: the EWMA interactions/sec window and the degrade
	// log. Snapshot is the only hot-path-adjacent lock user, and it runs on
	// the scraper's clock.
	mu       sync.Mutex
	rate     Rate
	degrades []DegradeEvent
}

// NewRunProbe returns an armed probe.
func NewRunProbe() *RunProbe { return &RunProbe{} }

// SetTier publishes the executing backend.
func (p *RunProbe) SetTier(t Tier) {
	if p == nil {
		return
	}
	p.tier.Store(int32(t))
}

// PublishSteps publishes the total interactions applied so far.
func (p *RunProbe) PublishSteps(steps int64) {
	if p == nil {
		return
	}
	p.cells[cSteps].v.Store(steps)
}

// PublishStates publishes |Q|, the distinct interned states seen so far.
func (p *RunProbe) PublishStates(q int64) {
	if p == nil {
		return
	}
	p.cells[cStates].v.Store(q)
}

// PublishEvents publishes the simulated-state update event total.
func (p *RunProbe) PublishEvents(n int64) {
	if p == nil {
		return
	}
	p.cells[cEvents].v.Store(n)
}

// PublishBatch publishes the batch tier's totals: hypergeometric runs drawn,
// summed collision-free run length, and collision interactions applied.
func (p *RunProbe) PublishBatch(runs, totalLen, collisions int64) {
	if p == nil {
		return
	}
	p.cells[cBatchRuns].v.Store(runs)
	p.cells[cBatchRunLen].v.Store(totalLen)
	p.cells[cBatchCollisions].v.Store(collisions)
}

// PublishCheckpoint records a checkpoint at stream position steps, stamped
// now. Checkpoints happen at slice cadence (seconds apart), so this is the
// one write-side method allowed a clock read.
func (p *RunProbe) PublishCheckpoint(steps int64) {
	if p == nil {
		return
	}
	p.cells[cCheckpointSteps].v.Store(steps)
	p.cells[cCheckpointAt].v.Store(time.Now().UnixNano())
}

// AddWave accumulates one completed epoch wave and its wall time.
func (p *RunProbe) AddWave(d time.Duration) {
	if p == nil {
		return
	}
	p.cells[cWaves].v.Add(1)
	p.cells[cWaveNanos].v.Add(int64(d))
}

// Degrade appends a backend-change event (capped at maxDegrades).
func (p *RunProbe) Degrade(from, to string, steps int64, reason string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if len(p.degrades) < maxDegrades {
		p.degrades = append(p.degrades, DegradeEvent{From: from, To: to, Steps: steps, Reason: reason})
	}
	p.mu.Unlock()
}

// ArmWorkers sizes the per-worker cell array for a parallel run. Call before
// the workers start publishing; arming is not concurrent-safe with Worker.
func (p *RunProbe) ArmWorkers(n int) {
	if p == nil {
		return
	}
	p.workersMu.Lock()
	if len(p.workers) != n {
		p.workers = make([]WorkerCell, n)
	}
	p.workersMu.Unlock()
}

// Worker returns worker i's publish surface (nil when out of range or the
// probe is nil — WorkerCell methods are nil-safe too).
func (p *RunProbe) Worker(i int) *WorkerCell {
	if p == nil {
		return nil
	}
	p.workersMu.Lock()
	defer p.workersMu.Unlock()
	if i < 0 || i >= len(p.workers) {
		return nil
	}
	return &p.workers[i]
}

// WorkerSnapshot is one worker's read-side view.
type WorkerSnapshot struct {
	// BusySec is the wall time the worker spent inside wave bodies.
	BusySec float64 `json:"busy_sec"`
	// BarrierWaitSec is the wall time the worker sat at epoch barriers:
	// total wave time minus its own busy time. Skew across workers is load
	// imbalance.
	BarrierWaitSec float64 `json:"barrier_wait_sec"`
	// Steps is the interactions this worker applied.
	Steps int64 `json:"steps,omitempty"`
}

// Snapshot is a point-in-time JSON-able view of a RunProbe.
type Snapshot struct {
	// Backend is the executing tier ("counts-batch", "hybrid", …).
	Backend string `json:"backend"`
	// Steps is the interactions applied so far.
	Steps int64 `json:"steps"`
	// States is |Q|, the distinct interned states seen so far.
	States int64 `json:"states,omitempty"`
	// InteractionsSec is the windowed (EWMA) rate, computed on the reader's
	// clock from successive Snapshot calls — 0 until two calls have spaced
	// out enough to measure.
	InteractionsSec float64 `json:"interactions_per_sec"`
	// SimEvents is the simulated-state update event total (simulator runs).
	SimEvents int64 `json:"sim_events,omitempty"`
	// Batch-tier stats: runs drawn, mean collision-free run length E[L],
	// collision interactions.
	BatchRuns       int64   `json:"batch_runs,omitempty"`
	BatchMeanRunLen float64 `json:"batch_mean_run_len,omitempty"`
	BatchCollisions int64   `json:"batch_collisions,omitempty"`
	// Checkpoint position and age (checkpointed runs only).
	CheckpointSteps  int64   `json:"checkpoint_steps,omitempty"`
	CheckpointAgeSec float64 `json:"checkpoint_age_sec,omitempty"`
	// Waves is the epoch-barrier count (parallel runners).
	Waves int64 `json:"waves,omitempty"`
	// Workers is the per-worker busy/barrier-wait breakdown.
	Workers []WorkerSnapshot `json:"workers,omitempty"`
	// Degrades is the backend-change log.
	Degrades []DegradeEvent `json:"degrades,omitempty"`
}

// Snapshot assembles the current view. Safe to call concurrently with
// writers and other readers; a nil probe yields the zero Snapshot.
func (p *RunProbe) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{Backend: TierNone.String()}
	}
	s := Snapshot{
		Backend:         Tier(p.tier.Load()).String(),
		Steps:           p.cells[cSteps].v.Load(),
		States:          p.cells[cStates].v.Load(),
		SimEvents:       p.cells[cEvents].v.Load(),
		BatchRuns:       p.cells[cBatchRuns].v.Load(),
		BatchCollisions: p.cells[cBatchCollisions].v.Load(),
		CheckpointSteps: p.cells[cCheckpointSteps].v.Load(),
		Waves:           p.cells[cWaves].v.Load(),
	}
	if s.BatchRuns > 0 {
		s.BatchMeanRunLen = float64(p.cells[cBatchRunLen].v.Load()) / float64(s.BatchRuns)
	}
	if at := p.cells[cCheckpointAt].v.Load(); at > 0 {
		s.CheckpointAgeSec = time.Since(time.Unix(0, at)).Seconds()
	}
	waveSec := time.Duration(p.cells[cWaveNanos].v.Load()).Seconds()
	p.workersMu.Lock()
	for i := range p.workers {
		w := WorkerSnapshot{
			BusySec: time.Duration(p.workers[i].busy.v.Load()).Seconds(),
			Steps:   p.workers[i].steps.v.Load(),
		}
		if wait := waveSec - w.BusySec; wait > 0 {
			w.BarrierWaitSec = wait
		}
		s.Workers = append(s.Workers, w)
	}
	p.workersMu.Unlock()
	p.mu.Lock()
	s.InteractionsSec = p.rate.Observe(s.Steps)
	if len(p.degrades) > 0 {
		s.Degrades = append([]DegradeEvent(nil), p.degrades...)
	}
	p.mu.Unlock()
	return s
}
