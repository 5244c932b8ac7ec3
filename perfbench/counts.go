package main

import (
	"fmt"
	"math"
	"time"

	"popsim"
	"popsim/internal/protocols"
	"popsim/internal/serve"
)

// countsScenario is one counts-native majority population run to consensus
// on one tier of the counts backend.
type countsScenario struct {
	tier  string // the Backend RunUntilCounts must report
	n, a  int64  // population, agents initially in A
	seeds []int64
}

// countsHorizon bounds every op; the slowest takes under 2·10⁸ interactions.
const countsHorizon = 1 << 34

// countsScenarios is one op list per tier. n = 10⁶ runs the block sampler;
// n = 4.4·10⁶, just above popsim.DefaultCountBatchN = 2²², runs the batch
// tier. The splits (55/45 and 2/3) make both tiers' ops last about 0.9 s.
func countsScenarios(smoke bool) (block, batch countsScenario) {
	block = countsScenario{tier: "counts", n: 1_000_000, a: 550_000, seeds: []int64{1, 2, 3}}
	batch = countsScenario{tier: "counts-batch", n: 4_400_000, a: 2_933_334, seeds: []int64{1, 2, 3}}
	if smoke {
		block.n, block.a, block.seeds = 100_000, 70_000, []int64{1}
		batch.n, batch.a, batch.seeds = 100_000, 70_000, []int64{1}
		batch.tier = "counts" // below the batch threshold
	}
	return block, batch
}

func (s countsScenario) label() string {
	return fmt.Sprintf("%s-majority-n%d-a%d", s.tier, s.n, s.a)
}

// cells is the counts-native initial population, in the order
// serve.Workload.CountsConfig lists majority's cells.
func (s countsScenario) cells() []popsim.CountedState {
	return []popsim.CountedState{
		{State: protocols.StrongA, Count: s.a},
		{State: protocols.StrongB, Count: s.n - s.a},
	}
}

// op runs the way cmd/ppsim -counts does: NewSystem, then RunUntilCounts
// with the majority workload's own count predicate at the default cadence
// (every = 0) and automatic tier selection.
func (s countsScenario) op(seed int64, cells []popsim.CountedState, done func(*popsim.StateCounts) bool) func(*tracer, int) (opResult, error) {
	return func(tr *tracer, id int) (opResult, error) {
		root := tr.begin("op", id, -1)
		defer tr.end(root)
		sp := tr.begin("popsim.NewSystem", id, root)
		sys, err := popsim.NewSystem(popsim.SystemSpec{Model: popsim.TW, Protocol: protocols.Majority{}, InitialCounts: cells, Seed: seed})
		tr.end(sp)
		if err != nil {
			return opResult{}, err
		}
		if tr != nil {
			sys.Probe()
		}
		sp = tr.begin("popsim.RunUntilCounts", id, root)
		pred, agg := timedPred(tr, "popsim.predicate", id, sp, done)
		t0 := time.Now()
		res, err := sys.RunUntilCounts(pred, 0, countsHorizon)
		run := time.Since(t0)
		tr.closeAggregate(agg)
		tr.end(sp)
		if err != nil {
			return opResult{}, err
		}
		switch {
		case !res.Converged:
			return opResult{}, fmt.Errorf("no consensus within %d interactions", countsHorizon)
		case res.Backend != s.tier:
			return opResult{}, fmt.Errorf("ran on %q, want %q", res.Backend, s.tier)
		case res.Final.N() != s.n:
			return opResult{}, fmt.Errorf("final population %d, want %d", res.Final.N(), s.n)
		}
		out := opResult{steps: res.Steps}
		if tr != nil {
			snap := sys.Probe().Snapshot()
			out.counts = map[string]float64{
				"run_ns_" + s.tier: float64(run.Nanoseconds()),
				"steps_" + s.tier:  float64(res.Steps),
				"batch_runs":       float64(snap.BatchRuns),
				"batch_run_len":    snap.BatchMeanRunLen * float64(snap.BatchRuns),
				"batch_collisions": float64(snap.BatchCollisions),
			}
		}
		return out, nil
	}
}

// countsOps builds the inputs of every op of one pass, with the predicate
// of the registry's majority workload (w), the one ppsim and popsimd use.
func countsOps(list []countsScenario, w serve.Workload) []op {
	var ops []op
	for _, s := range list {
		cells, done := s.cells(), w.CountsDone(int(s.n))
		for _, seed := range s.seeds {
			ops = append(ops, op{scenario: s.label(), seed: seed, run: s.op(seed, cells, done)})
		}
	}
	return ops
}

// countsWarmUp runs one op per tier from a wider split (faster consensus),
// on a seed outside the timed list.
func countsWarmUp(list []countsScenario, w serve.Workload) error {
	for _, s := range list {
		s.a = s.n * 4 / 5
		if _, err := s.op(0, s.cells(), w.CountsDone(int(s.n)))(nil, -1); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.label(), err)
		}
	}
	return nil
}

func runCountsConsensus(cfg config) (*outcome, error) {
	out := newOutcome()
	block, batch := countsScenarios(cfg.smoke)
	list := []countsScenario{block, batch}
	var ops []op
	setupS, err := medianSetup(setupCount(cfg), func() error {
		w, err := serve.WorkloadByName("majority")
		if err != nil {
			return err
		}
		ops = countsOps(list, w)
		return countsWarmUp(list, w)
	})
	if err != nil {
		return nil, err
	}
	w := newOpWorkload(cfg, out, ops)
	if !cfg.trace {
		return out, w.endToEnd(setupS, w.timed())
	}
	p, tr := w.traced()
	l := tr.layers()
	n := float64(p.ok)
	run := l["popsim.RunUntilCounts"]
	pl := l["popsim.predicate"]
	out.set("popsim.new_system_ms", ratio(msOf(l["popsim.NewSystem"].busy), n), "ms")
	out.set("popsim.run_self_ms", ratio(msOf(run.self), n), "ms")
	out.set("popsim.predicate_ms", ratio(msOf(pl.busy), n), "ms")
	out.set("popsim.predicate_calls", ratio(float64(pl.calls), n), "count")
	out.set("engine.ns_per_interaction", ratio(float64(run.self.Nanoseconds()), float64(p.steps)), "ns")
	out.set("popsim.block_ns_per_interaction", ratio(p.counts["run_ns_"+block.tier], p.counts["steps_"+block.tier]), "ns")
	out.set("popsim.batch_ns_per_interaction", ratio(p.counts["run_ns_"+batch.tier], p.counts["steps_"+batch.tier]), "ns")

	batchOps := float64(len(batch.seeds))
	runs := p.counts["batch_runs"]
	meanLen := ratio(p.counts["batch_run_len"], runs)
	out.set("engine.batch_runs", ratio(runs, batchOps), "count")
	out.set("engine.batch_mean_run_len", meanLen, "count")
	out.set("engine.batch_collisions", ratio(p.counts["batch_collisions"], batchOps), "count")
	out.set("engine.batch_run_len_ratio", meanLen/math.Sqrt(float64(batch.n)), "ratio")

	scale := 1
	if cfg.smoke {
		scale = 64
	}
	blockNs, blockLen, err := countEngineNs(block.n, block.a, (1<<24)/scale, false)
	if err != nil {
		return nil, err
	}
	out.set("engine.block_ns_per_interaction", blockNs, "ns")
	batchNs, _, err := countEngineNs(batch.n, batch.a, (1<<26)/scale, !cfg.smoke)
	if err != nil {
		return nil, err
	}
	out.set("engine.batch_ns_per_interaction", batchNs, "ns")
	schedLayers(out, block, batch, blockLen, scale)
	if err := hybridLayers(out, cfg.smoke); err != nil {
		return nil, err
	}
	out.note("facade %.2f ns/interaction (block tier %.2f, batch tier %.2f) = run self %.2f + predicate %.2f (%.0f calls/op, one per %.0f interactions); engine-direct RunSteps: block %.2f, batch %.2f",
		ratio(float64(p.wall.Nanoseconds()), float64(p.steps)),
		out.Metrics["popsim.block_ns_per_interaction"].Value, out.Metrics["popsim.batch_ns_per_interaction"].Value,
		ratio(float64(run.self.Nanoseconds()), float64(p.steps)), ratio(float64(pl.busy.Nanoseconds()), float64(p.steps)),
		ratio(float64(pl.calls), n), ratio(float64(p.steps), float64(pl.calls)), blockNs, batchNs)
	out.note("setup %.3f s (median of %d)", setupS, setupCount(cfg))
	return out, finishLayers(cfg, out, tr)
}
