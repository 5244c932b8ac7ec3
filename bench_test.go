// Benchmarks regenerating the quantitative side of every experiment in
// DESIGN.md §3. Each benchmark reports, besides ns/op, the domain metrics
// the paper's results are about: physical interactions per simulated
// two-way interaction (the wrapper overhead of Section 4) and simulator
// memory per agent (the Θ(·) bounds of Theorem 4.1 / Corollary 1).
package popsim_test

import (
	"context"
	"fmt"
	"testing"

	"popsim"
	"popsim/internal/adversary"
	"popsim/internal/engine"
	"popsim/internal/experiments"
	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sched"
	"popsim/internal/sim"
	"popsim/internal/trace"
	"popsim/internal/verify"
)

// BenchmarkFig1Hierarchy re-checks every inclusion edge of Figure 1.
func BenchmarkFig1Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(experiments.Config{Seed: 1, Quick: true})
		if err != nil || !res.Pass {
			b.Fatalf("fig1: pass=%v err=%v", res != nil && res.Pass, err)
		}
	}
}

// BenchmarkThm31Construction builds and executes the Lemma-1 run I* against
// SKnO(o=1) — the full impossibility pipeline (FTT search, Ik assembly, I*
// execution, safety check).
func BenchmarkThm31Construction(b *testing.B) {
	p := protocols.Pairing{}
	for i := 0; i < b.N; i++ {
		s := sim.SKnO{P: p, O: 1}
		v := adversary.Victim{
			Name: s.Name(), Model: model.I3, Protocol: s,
			Wrap:    func(st pp.State, origin int) pp.State { return s.Wrap(st, origin) },
			Project: func(st pp.State) pp.State { return st.(sim.Wrapped).Simulated() },
		}
		l1, err := v.BuildLemma1(protocols.Producer, protocols.Consumer, p.Delta, 99, 40, 6000)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(model.I3, s, l1.InitialConfig(v, protocols.Producer, protocols.Consumer),
			sched.NewScript(l1.IStar, nil))
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.RunSteps(len(l1.IStar)); err != nil {
			b.Fatal(err)
		}
		if protocols.PairingSafe(sim.Project(eng.Config()), l1.FTT) {
			b.Fatal("expected safety violation")
		}
	}
}

// BenchmarkThm32StallProbe measures the single-omission stall probe in the
// weak models.
func BenchmarkThm32StallProbe(b *testing.B) {
	p := protocols.Pairing{}
	for _, kind := range []model.Kind{model.I1, model.I2} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.SKnO{P: p, O: 1}
				v := adversary.Victim{
					Name: s.Name(), Model: kind, Protocol: s,
					Wrap:    func(st pp.State, origin int) pp.State { return s.Wrap(st, origin) },
					Project: func(st pp.State) pp.State { return st.(sim.Wrapped).Simulated() },
				}
				rep, err := v.StallProbe(protocols.Producer, protocols.Consumer, p.Delta, 0, 3, 40, 5000)
				if err != nil || !rep.Stalled {
					b.Fatalf("stall expected: %+v err=%v", rep, err)
				}
			}
		})
	}
}

// benchSimulated runs a simulator to convergence and reports phys/sim and
// bytes/agent metrics.
func benchSimulated(b *testing.B, kind model.Kind, protocol any, wrap func() pp.Configuration,
	simCfg pp.Configuration, delta verify.DeltaFunc, adv func() adversary.Adversary,
	done func(pp.Configuration) bool) {
	b.Helper()
	var steps, pairs, mem int
	for i := 0; i < b.N; i++ {
		rec := &trace.Recorder{}
		opts := []engine.Option{engine.WithRecorder(rec)}
		if adv != nil {
			opts = append(opts, engine.WithAdversary(adv()))
		}
		eng, err := engine.New(kind, protocol, wrap(), sched.NewRandom(int64(i+1)), opts...)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := eng.RunUntilProjected(done, 5_000_000)
		if err != nil || !ok {
			b.Fatalf("convergence: ok=%v err=%v", ok, err)
		}
		rep := verify.Verify(rec.Events(), simCfg, delta)
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		steps += rec.Steps()
		pairs += len(rep.Pairs)
		for _, st := range eng.Config() {
			mem += sim.StateMemory(st)
		}
	}
	if pairs > 0 {
		b.ReportMetric(float64(steps)/float64(pairs), "phys/sim")
	}
	b.ReportMetric(float64(mem)/float64(b.N*len(simCfg)), "B/agent")
}

// BenchmarkSKnO reproduces the Theorem 4.1 overhead: physical interactions
// per simulated transition as a function of the omission bound o.
func BenchmarkSKnO(b *testing.B) {
	for _, o := range []int{0, 1, 2, 4} {
		o := o
		b.Run(fmt.Sprintf("I3/o=%d", o), func(b *testing.B) {
			p := protocols.Pairing{}
			simCfg := protocols.PairingConfig(2, 2)
			s := sim.SKnO{P: p, O: o}
			var adv func() adversary.Adversary
			if o > 0 {
				adv = func() adversary.Adversary { return adversary.NewBudgeted(7, 0.02, o) }
			}
			benchSimulated(b, model.I3, s, func() pp.Configuration { return s.WrapConfig(simCfg) },
				simCfg, p.Delta, adv,
				func(c pp.Configuration) bool { return protocols.PairingDone(c, 2, 2) })
		})
	}
}

// BenchmarkCor1Memory reproduces Corollary 1's memory regime: SKnO(o=0)
// under IT, per-agent bytes as n grows.
func BenchmarkCor1Memory(b *testing.B) {
	for _, n := range []int{4, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := protocols.LeaderElection{}
			simCfg := protocols.LeaderConfig(n)
			s := sim.SKnO{P: p, O: 0}
			benchSimulated(b, model.IT, s, func() pp.Configuration { return s.WrapConfig(simCfg) },
				simCfg, p.Delta, nil, protocols.LeaderElected)
		})
	}
}

// BenchmarkSID reproduces the Theorem 4.5 locking overhead as n grows.
func BenchmarkSID(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := protocols.Majority{}
			simCfg := protocols.MajorityConfig(n/2+1, n-n/2-1)
			s := sim.SID{P: p}
			benchSimulated(b, model.IO, s, func() pp.Configuration { return s.WrapConfig(simCfg) },
				simCfg, p.Delta, nil,
				func(c pp.Configuration) bool { return protocols.MajorityConverged(c, "A") })
		})
	}
}

// BenchmarkNaming reproduces the Theorem 4.6 naming convergence (Lemma 3) as
// n grows: interactions until every agent has started simulating.
func BenchmarkNaming(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				s := sim.Naming{P: protocols.Or{}, N: n}
				simCfg := protocols.OrConfig(n, 1)
				eng, err := engine.New(model.IO, s, s.WrapConfig(simCfg), sched.NewRandom(int64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				ok, err := eng.RunUntil(func(c pp.Configuration) bool {
					for _, st := range c {
						if ns, k := st.(*sim.NamingState); !k || !ns.Started() {
							return false
						}
					}
					return true
				}, 4000*n*n)
				if err != nil || !ok {
					b.Fatalf("naming: ok=%v err=%v", ok, err)
				}
				total += eng.Steps()
			}
			b.ReportMetric(float64(total)/float64(b.N), "interactions")
		})
	}
}

// BenchmarkFig4Map regenerates the full Figure-4 map with its empirical
// backing runs.
func BenchmarkFig4Map(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Config{Seed: int64(i + 1), Quick: true})
		if err != nil || !res.Pass {
			b.Fatalf("fig4: pass=%v err=%v", res != nil && res.Pass, err)
		}
	}
}

// BenchmarkEngineThroughput measures raw interactions per second of the
// engine on the native majority protocol.
func BenchmarkEngineThroughput(b *testing.B) {
	cfgs := protocols.MajorityConfig(32, 32)
	eng, err := engine.New(model.TW, protocols.Majority{}, cfgs, sched.NewRandom(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughputBatch measures the interned-state batched fast
// path (StepBatch) on the same workload as BenchmarkEngineThroughput: same
// protocol, population, model and seed — and, by the batching contract, the
// exact same interaction schedule.
func BenchmarkEngineThroughputBatch(b *testing.B) {
	cfgs := protocols.MajorityConfig(32, 32)
	eng, err := engine.New(model.TW, protocols.Majority{}, cfgs, sched.NewRandom(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.StepBatch(1); err != nil { // warm the transition cache
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := eng.StepBatch(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineThroughputLarge scales the throughput workload to large
// populations, slow path vs batched fast path. The dense-ID representation
// keeps the batch path's working set at 4 bytes per agent, so the gap widens
// with n.
func BenchmarkEngineThroughputLarge(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("slow/n=%d", n), func(b *testing.B) {
			eng, err := engine.New(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2, n/2), sched.NewRandom(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/n=%d", n), func(b *testing.B) {
			eng, err := engine.New(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2, n/2), sched.NewRandom(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.StepBatch(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := eng.StepBatch(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRunUntilConvergence compares full convergence runs — the shape of
// every experiment in this repo — stepwise with a per-step predicate scan
// against batched with the predicate evaluated every 64 interactions.
func BenchmarkRunUntilConvergence(b *testing.B) {
	const n = 256
	done := func(c pp.Configuration) bool { return protocols.MajorityConverged(c, "A") }
	b.Run("slow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+8, n/2-8), sched.NewRandom(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			if ok, err := eng.RunUntil(done, 50_000_000); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+8, n/2-8), sched.NewRandom(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			if _, ok, err := eng.RunUntilEvery(done, 64, 50_000_000); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// BenchmarkSlowdown compares native TW against the two simulators on the
// same workload, per *simulated* step (the PERF experiment).
func BenchmarkSlowdown(b *testing.B) {
	simCfg := protocols.MajorityConfig(9, 7)
	done := func(c pp.Configuration) bool { return protocols.MajorityConverged(c, "A") }
	b.Run("nativeTW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(model.TW, protocols.Majority{}, simCfg, sched.NewRandom(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			if ok, err := eng.RunUntil(done, 5_000_000); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("skno-I3", func(b *testing.B) {
		p := protocols.Majority{}
		s := sim.SKnO{P: p, O: 1}
		benchSimulated(b, model.I3, s, func() pp.Configuration { return s.WrapConfig(simCfg) },
			simCfg, p.Delta,
			func() adversary.Adversary { return adversary.NewBudgeted(3, 0.01, 1) }, done)
	})
	b.Run("sid-IO", func(b *testing.B) {
		p := protocols.Majority{}
		s := sim.SID{P: p}
		benchSimulated(b, model.IO, s, func() pp.Configuration { return s.WrapConfig(simCfg) },
			simCfg, p.Delta, nil, done)
	})
}

// BenchmarkVerify measures the Definition-3/4 verifier itself (matching +
// replay) on a recorded SKnO execution.
func BenchmarkVerify(b *testing.B) {
	p := protocols.Pairing{}
	simCfg := protocols.PairingConfig(3, 3)
	s := sim.SKnO{P: p, O: 1}
	rec := &trace.Recorder{}
	eng, err := engine.New(model.I3, s, s.WrapConfig(simCfg), sched.NewRandom(5),
		engine.WithAdversary(adversary.NewBudgeted(6, 0.02, 1)),
		engine.WithRecorder(rec))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RunSteps(20000); err != nil {
		b.Fatal(err)
	}
	events := rec.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := verify.VerifyStrict(events, simCfg, p.Delta)
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		if err := verify.Replay(rep, events, simCfg, p.Delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}

// BenchmarkFacade measures the public API end to end (system assembly + a
// verified fault-tolerant run), guarding against facade regressions.
func BenchmarkFacade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := popsim.SKnO(protocols.Pairing{}, 1)
		sys, err := popsim.NewSystem(popsim.SystemSpec{
			Model:     popsim.I3,
			Simulate:  &s,
			Initial:   protocols.PairingConfig(2, 2),
			Seed:      int64(i + 1),
			Adversary: popsim.BudgetedAdversary(int64(i+2), 0.05, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		ok, err := sys.RunUntil(func(c popsim.Configuration) bool {
			return protocols.PairingDone(c, 2, 2)
		}, 2_000_000)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
		if _, err := sys.VerifySimulation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsembleSweep measures the ensemble layer end to end: K seeded
// majority convergence runs (n = 512) fanned across the worker pool, the
// shape of every multi-seed sweep in the experiment harness.
func BenchmarkEnsembleSweep(b *testing.B) {
	done := func(c pp.Configuration) bool { return protocols.MajorityConverged(c, "A") }
	for i := 0; i < b.N; i++ {
		res, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{
			Spec: popsim.SystemSpec{
				Model:    popsim.TW,
				Protocol: protocols.Majority{},
				Initial:  protocols.MajorityConfig(264, 248),
			},
			Runs:     8,
			BaseSeed: int64(i*8 + 1),
			Until:    done,
			Horizon:  50_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Converged != 8 {
			b.Fatalf("converged %d/8", res.Converged)
		}
	}
	b.ReportMetric(8, "runs/op")
}

// BenchmarkSimWrapped measures wrapped-simulator throughput — the
// fault-tolerant simulation regime the canonical behavioral keys unlock:
// SKnO(o=0) over majority under IT (the Corollary-1 simulator), n = 256,
// stepwise slow path vs interned batched fast path (events recorded in
// both, as simulator runs do). CI publishes this family as the
// BENCH_sim.json artifact, tracking the simulation-regime speedup.
func BenchmarkSimWrapped(b *testing.B) {
	const n = 256
	s := sim.SKnO{P: protocols.Majority{}, O: 0}
	mkCfg := func() pp.Configuration { return s.WrapConfig(protocols.MajorityConfig(n/2+16, n/2-16)) }
	b.Run("slow", func(b *testing.B) {
		rec := &trace.Recorder{}
		eng, err := engine.New(model.IT, s, mkCfg(), sched.NewRandom(1), engine.WithRecorder(rec))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		rec := &trace.Recorder{}
		eng, err := engine.New(model.IT, s, mkCfg(), sched.NewRandom(1), engine.WithRecorder(rec))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.StepBatch(1); err != nil { // warm the transition cache
			b.Fatal(err)
		}
		b.ResetTimer()
		if _, err := eng.StepBatch(b.N); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !eng.FastPathActive() {
			b.Fatal("fast path bailed out mid-benchmark")
		}
		b.ReportMetric(float64(eng.InternedStates()), "states")
	})
}

// BenchmarkCountEngineThroughput measures raw stepping on the counts
// backend against the batched agent-vector fast path at n ∈ {10⁴, 10⁶}
// (majority, TW). Raw stepping is NOT where the counts backend wins while
// the agent path's 4·n-byte ID vector still fits cache (the batch column is
// faster here) — the backend's O(|Q|) working set pays off in observation
// and at populations beyond cache. These rows exist to track the
// per-interaction sampling cost; the ≥10× million-agent gate is the
// BenchmarkCountEngineConvergence n=10⁶ pair in the same BENCH_counts.json
// artifact.
func BenchmarkCountEngineThroughput(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		n := n
		b.Run(fmt.Sprintf("batch/n=%d", n), func(b *testing.B) {
			eng, err := engine.New(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2, n/2), sched.NewRandom(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.StepBatch(1); err != nil { // warm the transition cache
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := eng.StepBatch(b.N); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("counts/n=%d", n), func(b *testing.B) {
			ce, err := engine.NewCountEngine(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2, n/2), 1, engine.CountOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := ce.RunSteps(1); err != nil { // warm the transition cache
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := ce.RunSteps(b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(ce.BlockLen()), "block")
		})
	}
}

// BenchmarkCountEngineConvergence runs majority to convergence at
// n ∈ {10⁴, 10⁶} — the end-to-end shape the counts backend exists for:
// stepping *and* observation both off the O(n) agent vector. The batched
// rows drive RunUntilEvery (predicate every 1024 interactions, O(n) scans
// and O(n) bisection arming); the counts rows drive CountEngine.RunUntil
// (O(|Q|) predicate, O(|Q|) arming). The n=10⁶ pair is the ≥10× gate
// recorded in BENCH_counts.json.
func BenchmarkCountEngineConvergence(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		n := n
		margin := n / 50
		b.Run(fmt.Sprintf("batch/n=%d", n), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				eng, err := engine.New(model.TW, protocols.Majority{},
					protocols.MajorityConfig(n/2+margin, n/2-margin), sched.NewRandom(int64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				done := func(c pp.Configuration) bool { return protocols.MajorityConverged(c, "A") }
				_, ok, err := eng.RunUntilEvery(done, 1024, 1<<40)
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
				steps += eng.Steps()
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
		})
		b.Run(fmt.Sprintf("counts/n=%d", n), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
					protocols.MajorityConfig(n/2+margin, n/2-margin), int64(i+1), engine.CountOptions{})
				if err != nil {
					b.Fatal(err)
				}
				out := protocols.Majority{}
				in := ce.Interner()
				_, ok, err := ce.RunUntil(func(c pp.Counts) bool {
					for id, v := range c {
						if v != 0 && out.Output(in.State(uint32(id))) != "A" {
							return false
						}
					}
					return true
				}, 1024, 1<<40)
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
				steps += ce.Steps()
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
		})
	}
}

// BenchmarkStateCountsPredicate measures the counts view's two predicate
// surfaces on a composite-keyed state space (ModuloState, whose Key() builds
// a string): the key-based Count, which pays Key() plus a map probe on every
// lookup, against the dense-ID pair — IDOf resolved once, CountByID per
// evaluation. ReportAllocs pins the satellite claim: the key rows allocate
// on every op, the id rows allocate zero.
func BenchmarkStateCountsPredicate(b *testing.B) {
	sys, err := popsim.NewSystem(popsim.SystemSpec{
		Model:    popsim.TW,
		Protocol: protocols.Modulo{M: 2},
		Initial:  protocols.ModuloConfig(1024, 384),
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc := sys.Counts()
	odd := protocols.ModuloState{Value: 1, Active: true}
	even := protocols.ModuloState{Value: 0, Active: true}
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		var acc int64
		for i := 0; i < b.N; i++ {
			acc += sc.Count(odd) - sc.Count(even)
		}
		benchSink = acc
	})
	b.Run("id", func(b *testing.B) {
		b.ReportAllocs()
		idOdd, idEven := sc.IDOf(odd), sc.IDOf(even)
		if idOdd < 0 || idEven < 0 {
			b.Fatal("states missing from the snapshot")
		}
		var acc int64
		for i := 0; i < b.N; i++ {
			acc += sc.CountByID(idOdd) - sc.CountByID(idEven)
		}
		benchSink = acc
	})
}

var benchSink int64

// BenchmarkRunUntilArming is the regression guard for the convergence
// drivers' arming cost: RunUntilEvery's exact-hitting instrumentation
// snapshots the chunk start before every chunk — an O(n) ID copy on the
// agent-vector engine versus an O(|Q|) counts copy on the counts backend.
// With a sparse predicate (every = 64) at n = 10⁵ the agent-vector row is
// dominated by exactly that arming traffic, which is the regression this
// benchmark pins.
func BenchmarkRunUntilArming(b *testing.B) {
	const n = 100_000
	never := func(pp.Configuration) bool { return false }
	b.Run("agent", func(b *testing.B) {
		eng, err := engine.New(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2, n/2), sched.NewRandom(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.StepBatch(1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if _, ok, err := eng.RunUntilEvery(never, 64, b.N); ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	})
	b.Run("counts", func(b *testing.B) {
		ce, err := engine.NewCountEngine(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2, n/2), 1, engine.CountOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := ce.RunSteps(1); err != nil {
			b.Fatal(err)
		}
		neverC := func(pp.Counts) bool { return false }
		b.ResetTimer()
		if _, ok, err := ce.RunUntil(neverC, 64, b.N); ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	})
}

// BenchmarkSimWrappedConvergence runs the thm31-style simulated convergence
// workload end to end — SKnO(o=0)/majority under IT until the projected
// majority verdict stabilizes — on the stepwise driver vs the batched
// RunUntilEvery driver. The ratio of the two ns/op columns is the
// simulation-regime speedup the canonical keys were built for.
func BenchmarkSimWrappedConvergence(b *testing.B) {
	const n = 128
	s := sim.SKnO{P: protocols.Majority{}, O: 0}
	mkCfg := func() pp.Configuration { return s.WrapConfig(protocols.MajorityConfig(n/2+8, n/2-8)) }
	done := func(c pp.Configuration) bool { return protocols.MajorityConverged(sim.Project(c), "A") }
	b.Run("slow", func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(model.IT, s, mkCfg(), sched.NewRandom(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			ok, err := eng.RunUntil(done, 50_000_000)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			steps += eng.Steps()
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
	})
	b.Run("batch", func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(model.IT, s, mkCfg(), sched.NewRandom(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			_, ok, err := eng.RunUntilEvery(done, 256, 50_000_000)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			steps += eng.Steps()
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
	})
}
