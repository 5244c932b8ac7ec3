package engine_test

import (
	"testing"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/obs"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sched"
)

// Probe wiring contracts: probe counters mirror the engine's own counters at
// boundaries, batch statistics survive the exact-hitting rewind without
// double-counting, same-seed runs publish identical terminal totals, and an
// unarmed probe never perturbs execution.

func TestCountProbeMirrorsSteps(t *testing.T) {
	maj := protocols.Majority{}
	for _, tc := range []struct {
		name string
		opts engine.CountOptions
		tier string
	}{
		{"block", engine.CountOptions{}, "counts"},
		{"exact", engine.CountOptions{BlockLen: 1}, "counts"},
		{"batch", engine.CountOptions{Batch: engine.BatchOn}, "counts-batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ce, err := engine.NewCountEngine(model.TW, maj, protocols.MajorityConfig(600, 424), 11, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			probe := ce.Probe()
			if err := ce.RunSteps(10_000); err != nil {
				t.Fatal(err)
			}
			snap := probe.Snapshot()
			if snap.Backend != tc.tier {
				t.Fatalf("backend = %q, want %q", snap.Backend, tc.tier)
			}
			if snap.Steps != int64(ce.Steps()) {
				t.Fatalf("probe steps = %d, engine steps = %d", snap.Steps, ce.Steps())
			}
			if snap.States != int64(ce.InternedStates()) {
				t.Fatalf("probe states = %d, interned = %d", snap.States, ce.InternedStates())
			}
		})
	}
}

func TestBatchProbeStatsPlausible(t *testing.T) {
	ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
		protocols.MajorityConfig(2100, 1996), 5, engine.CountOptions{Batch: engine.BatchOn})
	if err != nil {
		t.Fatal(err)
	}
	probe := ce.Probe()
	if err := ce.RunSteps(50_000); err != nil {
		t.Fatal(err)
	}
	snap := probe.Snapshot()
	if snap.BatchRuns <= 0 {
		t.Fatalf("batch runs = %d, want > 0", snap.BatchRuns)
	}
	// Every closed run contributed exactly one collision; at most one run is
	// still open when the budget lands mid-run.
	if d := snap.BatchRuns - snap.BatchCollisions; d < 0 || d > 1 {
		t.Fatalf("runs=%d collisions=%d: want 0 ≤ runs−collisions ≤ 1", snap.BatchRuns, snap.BatchCollisions)
	}
	// E[L] ≈ 0.63·√n ≈ 40 for n=4096; the mean over many runs should be in
	// the right ballpark, not off by orders of magnitude.
	if snap.BatchMeanRunLen < 5 || snap.BatchMeanRunLen > 500 {
		t.Fatalf("mean run length = %.1f, implausible for n=4096", snap.BatchMeanRunLen)
	}
}

// TestBatchProbeRewindExact pins that the exact-hitting rewind-and-replay
// path restores the batch statistics: after RunUntil with a coarse cadence,
// the probe's batch totals must equal those of a same-seed engine stepped
// directly to the hitting step.
func TestBatchProbeRewindExact(t *testing.T) {
	const n = 4096
	maj := protocols.Majority{}
	mk := func() (*engine.CountEngine, *obs.RunProbe) {
		ce, err := engine.NewCountEngine(model.TW, maj, protocols.MajorityConfig(n/2+32, n/2-32), 23,
			engine.CountOptions{Batch: engine.BatchOn})
		if err != nil {
			t.Fatal(err)
		}
		return ce, ce.Probe()
	}
	pred := func(in *pp.Interner) func(pp.Counts) bool {
		return func(c pp.Counts) bool {
			var a int64
			for id, cnt := range c {
				if cnt > 0 && maj.Output(in.State(uint32(id))) == "A" {
					a += cnt
				}
			}
			return a == int64(n)
		}
	}

	hit, probeHit := mk()
	hitStep, ok, err := hit.RunUntil(pred(hit.Interner()), n, 2000*n)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("majority did not converge within budget (steps=%d)", hitStep)
	}
	// RunUntil leaves the engine at the run close that ended the hitting
	// quantum, at or past the returned hitting step; the probe must track the engine, not the return.
	if hitStep > hit.Steps() {
		t.Fatalf("hit step %d past engine position %d", hitStep, hit.Steps())
	}

	direct, probeDirect := mk()
	if err := direct.RunSteps(hit.Steps()); err != nil {
		t.Fatal(err)
	}
	sh, sd := probeHit.Snapshot(), probeDirect.Snapshot()
	if sh.Steps != int64(hit.Steps()) || sd.Steps != int64(hit.Steps()) {
		t.Fatalf("probe steps %d/%d, want %d", sh.Steps, sd.Steps, hit.Steps())
	}
	if sh.BatchRuns != sd.BatchRuns || sh.BatchCollisions != sd.BatchCollisions ||
		sh.BatchMeanRunLen != sd.BatchMeanRunLen {
		t.Fatalf("rewind batch stats diverge: hit={runs:%d coll:%d meanL:%v} direct={runs:%d coll:%d meanL:%v}",
			sh.BatchRuns, sh.BatchCollisions, sh.BatchMeanRunLen,
			sd.BatchRuns, sd.BatchCollisions, sd.BatchMeanRunLen)
	}
}

// TestProbeDeterministicTotals pins the terminal-snapshot determinism
// contract: same seed, same call pattern → identical published totals.
func TestProbeDeterministicTotals(t *testing.T) {
	run := func() obs.Snapshot {
		ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
			protocols.MajorityConfig(1100, 948), 42, engine.CountOptions{Batch: engine.BatchOn})
		if err != nil {
			t.Fatal(err)
		}
		p := ce.Probe()
		if err := ce.RunSteps(30_000); err != nil {
			t.Fatal(err)
		}
		return p.Snapshot()
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.States != b.States ||
		a.BatchRuns != b.BatchRuns || a.BatchCollisions != b.BatchCollisions ||
		a.BatchMeanRunLen != b.BatchMeanRunLen {
		t.Fatalf("same-seed terminal snapshots diverge:\n%+v\n%+v", a, b)
	}
}

// TestProbeDoesNotPerturb pins that arming a probe leaves the execution
// byte-identical: counts after the same budget match an unarmed engine.
func TestProbeDoesNotPerturb(t *testing.T) {
	mk := func(arm bool) *engine.CountEngine {
		ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
			protocols.MajorityConfig(600, 424), 3, engine.CountOptions{Batch: engine.BatchOn})
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			ce.Probe()
		}
		return ce
	}
	armed, bare := mk(true), mk(false)
	if err := armed.RunSteps(20_000); err != nil {
		t.Fatal(err)
	}
	if err := bare.RunSteps(20_000); err != nil {
		t.Fatal(err)
	}
	ca, cb := armed.Counts(), bare.Counts()
	if len(ca) != len(cb) {
		t.Fatalf("counts length diverged: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("counts[%d] diverged: %d vs %d", i, ca[i], cb[i])
		}
	}
}

func TestCheckpointPublishesProbe(t *testing.T) {
	ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
		protocols.MajorityConfig(600, 424), 9, engine.CountOptions{Batch: engine.BatchOn})
	if err != nil {
		t.Fatal(err)
	}
	probe := ce.Probe()
	if err := ce.RunSteps(5_000); err != nil {
		t.Fatal(err)
	}
	ck, err := ce.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap := probe.Snapshot()
	if snap.CheckpointSteps != int64(ck.Steps) {
		t.Fatalf("probe checkpoint steps = %d, checkpoint = %d", snap.CheckpointSteps, ck.Steps)
	}
	if snap.CheckpointAgeSec < 0 {
		t.Fatalf("negative checkpoint age %v", snap.CheckpointAgeSec)
	}
}

func TestVectorEngineProbe(t *testing.T) {
	eng, err := engine.New(model.TW, protocols.Majority{},
		protocols.MajorityConfig(300, 212), sched.NewRandom(17))
	if err != nil {
		t.Fatal(err)
	}
	probe := eng.Probe()
	if err := eng.RunSteps(4_000); err != nil {
		t.Fatal(err)
	}
	snap := probe.Snapshot()
	if snap.Backend != "vector" {
		t.Fatalf("backend = %q, want vector", snap.Backend)
	}
	if snap.Steps != int64(eng.Steps()) {
		t.Fatalf("probe steps = %d, engine steps = %d", snap.Steps, eng.Steps())
	}
}

func TestSchedRunStats(t *testing.T) {
	bs := sched.NewBatchScheduler(1, 1<<12)
	counts := make([]int64, 2)
	counts[0], counts[1] = 3000, 1096
	var wantRuns, wantLen int64
	for i := 0; i < 5; i++ {
		run := bs.NextRun(counts)
		wantRuns++
		wantLen += run.L
	}
	runs, totalLen, coll := bs.RunStats()
	if runs != wantRuns || totalLen != wantLen || coll != 0 {
		t.Fatalf("RunStats = (%d,%d,%d), want (%d,%d,0)", runs, totalLen, coll, wantRuns, wantLen)
	}
}
