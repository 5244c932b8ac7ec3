package experiments

import (
	"context"
	"fmt"
	"time"

	"popsim/internal/adversary"
	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/par"
	"popsim/internal/pp"
	"popsim/internal/report"
	"popsim/internal/sched"
	"popsim/internal/sim"
	"popsim/internal/trace"
	"popsim/internal/verify"
)

// newScriptedEngine builds an engine over a scripted run with a random
// continuation.
func newScriptedEngine(k model.Kind, protocol any, cfg pp.Configuration, run pp.Run, seed int64) (*engine.Engine, error) {
	return engine.New(k, protocol, cfg, sched.NewScript(run, sched.NewRandom(seed)))
}

// Perf measures the engineering cost of simulation: physical interactions
// and wall-clock time per *simulated* interaction for native TW execution
// versus SKnO (I3, o = 1, with omissions) versus SID (IO), on the majority
// workload. The paper makes no wall-clock claims; this quantifies the
// overhead of the wrappers on this implementation.
func Perf(cfg Config) (*Result, error) {
	res := &Result{ID: "PERF", Pass: true}
	tbl := report.NewTable("Simulation overhead — native vs SKnO vs SID (majority)",
		"engine", "n", "phys steps", "sim steps", "phys/sim", "wall time", "ns/phys step")
	tbl.Caption = "Native TW applies δP directly (phys = sim). Simulators pay the Section-4 overheads."

	ns := []int{16, 32}
	if cfg.Quick {
		ns = []int{16}
	}
	w := workloads()[1] // majority
	for _, n := range ns {
		simCfg := w.cfg(n)
		// Native TW.
		{
			start := time.Now()
			rec := &trace.Recorder{}
			eng, err := engine.New(model.TW, w.proto, simCfg, sched.NewRandom(cfg.Seed), engine.WithRecorder(rec))
			if err != nil {
				return nil, err
			}
			ok, err := eng.RunUntil(w.done(n), 10_000_000)
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			tbl.AddRow("native TW", n, rec.Steps(), rec.Steps(), 1.0, el.Round(time.Microsecond),
				float64(el.Nanoseconds())/float64(max(1, rec.Steps())))
			check(res, ok, "native TW n=%d converged", n)
		}
		// Native TW through the interned-state batched fast path: the same
		// seed replays the same schedule, with the convergence predicate
		// evaluated every 64 interactions instead of every one.
		{
			start := time.Now()
			rec := &trace.Recorder{}
			eng, err := engine.New(model.TW, w.proto, simCfg, sched.NewRandom(cfg.Seed), engine.WithRecorder(rec))
			if err != nil {
				return nil, err
			}
			_, ok, err := eng.RunUntilEvery(w.done(n), 64, 10_000_000)
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			tbl.AddRow("native TW (batch)", n, rec.Steps(), rec.Steps(), 1.0, el.Round(time.Microsecond),
				float64(el.Nanoseconds())/float64(max(1, rec.Steps())))
			check(res, ok, "native TW batch n=%d converged", n)
		}
		// SKnO in I3 with one tolerated omission.
		{
			s := sim.SKnO{P: w.proto, O: 1}
			start := time.Now()
			met, err := runVerified(model.I3, s, s.WrapConfig(simCfg), simCfg, w.proto.Delta,
				adversary.NewBudgeted(cfg.Seed+1, 0.01, 1), cfg.Seed+2, 10_000_000, w.done(n))
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			tbl.AddRow("SKnO o=1 (I3)", n, met.Steps, met.Pairs, met.PhysPerSim, el.Round(time.Microsecond),
				float64(el.Nanoseconds())/float64(max(1, met.Steps)))
			check(res, met.Converged && met.Verified, "SKnO n=%d converged+verified", n)
		}
		// SID in IO.
		{
			s := sim.SID{P: w.proto}
			start := time.Now()
			met, err := runVerified(model.IO, s, s.WrapConfig(simCfg), simCfg, w.proto.Delta,
				nil, cfg.Seed+3, 10_000_000, w.done(n))
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			tbl.AddRow("SID (IO)", n, met.Steps, met.Pairs, met.PhysPerSim, el.Round(time.Microsecond),
				float64(el.Nanoseconds())/float64(max(1, met.Steps)))
			check(res, met.Converged && met.Verified, "SID n=%d converged+verified", n)
		}
	}
	res.Tables = append(res.Tables, tbl)

	runs := 8
	if cfg.Quick {
		runs = 3
	}
	w = workloads()[1] // majority

	// The simulation regime: wrapped simulators were historically the only
	// workloads locked out of the fast paths (their provenance-bearing keys
	// made every state unique); canonical behavioral keys make them
	// cacheable and batchable. thm31-style workload: SKnO(o=0)
	// over majority under IT (Corollary 1), convergence to the projected
	// majority verdict.
	nSim, simHorizon := 128, 50_000_000
	if cfg.Quick {
		nSim = 64
	}
	simTbl := report.NewTable("Cacheable fault-tolerant simulation — SKnO(o=0)/majority under IT",
		"engine", "n", "steps", "sim events", "wall time", "ns/step")
	simTbl.Caption = "Canonical behavioral keys let wrapped runs hit the transition cache."
	sSim := sim.SKnO{P: w.proto, O: 0}
	simInit := w.cfg(nSim)
	simDone := func(c pp.Configuration) bool { return w.done(nSim)(sim.Project(c)) }
	var seqSteps, batchSteps int
	// Stepwise slow path (the pre-canonicalization regime).
	{
		start := time.Now()
		rec := &trace.Recorder{}
		eng, err := engine.New(model.IT, sSim, sSim.WrapConfig(simInit), sched.NewRandom(cfg.Seed), engine.WithRecorder(rec))
		if err != nil {
			return nil, err
		}
		ok, err := eng.RunUntil(simDone, simHorizon)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		seqSteps = eng.Steps()
		simTbl.AddRow("stepwise", nSim, eng.Steps(), len(rec.Events()), el.Round(time.Microsecond),
			float64(el.Nanoseconds())/float64(max(1, eng.Steps())))
		check(res, ok, "SKnO sim stepwise n=%d converged", nSim)
	}
	// Batched fast path, same seed (identical schedule).
	{
		start := time.Now()
		rec := &trace.Recorder{}
		eng, err := engine.New(model.IT, sSim, sSim.WrapConfig(simInit), sched.NewRandom(cfg.Seed), engine.WithRecorder(rec))
		if err != nil {
			return nil, err
		}
		_, ok, err := eng.RunUntilEvery(simDone, 256, simHorizon)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		batchSteps = eng.Steps()
		simTbl.AddRow("batched", nSim, eng.Steps(), len(rec.Events()), el.Round(time.Microsecond),
			float64(el.Nanoseconds())/float64(max(1, eng.Steps())))
		check(res, ok, "SKnO sim batched n=%d converged", nSim)
		check(res, eng.FastPathActive(), "SKnO sim batched n=%d stayed on the fast path (%d interned states)",
			nSim, eng.InternedStates())
	}
	check(res, batchSteps >= seqSteps, "batched sim run stopped at a chunk boundary ≥ stepwise hit (%d vs %d)",
		batchSteps, seqSteps)
	res.Tables = append(res.Tables, simTbl)

	// Ensemble orchestration: K seeded convergence runs on the pool.
	ens := report.NewTable("Ensemble sweep (majority, convergence to A)",
		"runs", "workers", "converged", "mean steps", "p50", "p90", "wall time")
	ens.Caption = "par.Ensemble fans seeds across a bounded worker pool; hitting times are the exact bisected values."
	nEns := 512
	done := w.done(nEns)
	start := time.Now()
	results := par.Ensemble(context.Background(), par.Seeds(cfg.Seed, runs), cfg.Workers,
		func(_ context.Context, seed int64) (float64, error) {
			eng, err := engine.New(model.TW, w.proto, w.cfg(nEns), sched.NewRandom(seed))
			if err != nil {
				return 0, err
			}
			hit, ok, err := eng.RunUntilEvery(done, 64, 50_000_000)
			if err != nil {
				return 0, err
			}
			if !ok {
				return 0, fmt.Errorf("seed %d did not converge", seed)
			}
			return float64(hit), nil
		})
	el := time.Since(start)
	var hits []float64
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		hits = append(hits, r.Value)
	}
	ens.AddRow(runs, cfg.Workers, len(hits), par.Mean(hits), par.Percentile(hits, 50),
		par.Percentile(hits, 90), el.Round(time.Microsecond))
	check(res, len(hits) == runs, "ensemble: %d/%d runs converged", len(hits), runs)
	res.Tables = append(res.Tables, ens)
	return res, nil
}

// Run executes one experiment by ID and renders its tables to a string.
func Run(id string, cfg Config) (*Result, string, error) {
	exp, err := ByID(id)
	if err != nil {
		return nil, "", err
	}
	res, err := exp.Run(cfg)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", id, err)
	}
	out := ""
	for _, t := range res.Tables {
		out += t.String()
	}
	for _, note := range res.Notes {
		out += note + "\n"
	}
	if res.Pass {
		out += fmt.Sprintf("[%s] claim reproduced\n", id)
	} else {
		out += fmt.Sprintf("[%s] CLAIM DID NOT REPRODUCE\n", id)
	}
	return res, out, nil
}

// ensure unused imports are referenced in all build configurations.
var _ = verify.SimStarter
