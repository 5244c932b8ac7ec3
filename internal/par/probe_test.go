package par_test

import (
	"testing"

	"popsim/internal/model"
	"popsim/internal/par"
	"popsim/internal/protocols"
)

// Probe wiring contracts for the hybrid runner: barrier-published totals
// mirror the runner's own counters, per-worker cells are armed and account
// for the applied steps, and arming a probe does not perturb the trajectory.

func TestHybridProbe(t *testing.T) {
	const n = 1 << 12
	hr, err := par.NewHybrid(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+64, n/2-64),
		11, par.HybridOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	probe := hr.Probe()
	if err := hr.RunSteps(30_000); err != nil {
		t.Fatal(err)
	}
	snap := probe.Snapshot()
	if snap.Backend != "hybrid" {
		t.Fatalf("backend = %q, want hybrid", snap.Backend)
	}
	if snap.Steps != hr.Steps() {
		t.Fatalf("probe steps = %d, runner steps = %d", snap.Steps, hr.Steps())
	}
	if snap.BatchRuns <= 0 || snap.BatchMeanRunLen <= 0 {
		t.Fatalf("batch stats not folded: runs=%d meanL=%v", snap.BatchRuns, snap.BatchMeanRunLen)
	}
	// Closed runs each resolved one collision; at most one per worker may be
	// pending mid-run (here none: workers only pause at run boundaries).
	if snap.BatchCollisions != snap.BatchRuns {
		t.Fatalf("collisions=%d runs=%d: hybrid workers pause only at run boundaries", snap.BatchCollisions, snap.BatchRuns)
	}
	if len(snap.Workers) != hr.P() {
		t.Fatalf("worker cells = %d, want %d", len(snap.Workers), hr.P())
	}
	var workerSteps int64
	for i, w := range snap.Workers {
		if w.BusySec < 0 || w.BarrierWaitSec < 0 {
			t.Fatalf("worker %d negative timing: %+v", i, w)
		}
		workerSteps += w.Steps
	}
	if workerSteps != hr.Steps() {
		t.Fatalf("worker steps sum to %d, runner applied %d", workerSteps, hr.Steps())
	}
	if snap.Waves <= 0 {
		t.Fatalf("waves = %d, want > 0", snap.Waves)
	}
}

func TestHybridProbeDoesNotPerturb(t *testing.T) {
	const n = 1 << 12
	mk := func(arm bool) *par.HybridRunner {
		hr, err := par.NewHybrid(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+64, n/2-64),
			7, par.HybridOptions{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			hr.Probe()
		}
		return hr
	}
	armed, bare := mk(true), mk(false)
	if err := armed.RunSteps(25_000); err != nil {
		t.Fatal(err)
	}
	if err := bare.RunSteps(25_000); err != nil {
		t.Fatal(err)
	}
	if armed.Steps() != bare.Steps() {
		t.Fatalf("steps diverged: %d vs %d", armed.Steps(), bare.Steps())
	}
	hybCountsEqual(t, "armed vs bare", armed.Counts(), bare.Counts())
}
