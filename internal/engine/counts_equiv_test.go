package engine_test

import (
	"fmt"
	"testing"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sched"
	"popsim/internal/sim"
)

// The counts-vs-batched statistical-equivalence suite: the counts backend is
// a distinct execution mode (its own stream family, state-level sampling),
// so the contract it must honor is distributional — over an ensemble of
// seeds, final-count statistics and convergence-step statistics must match
// the batched agent-vector fast path within tolerance, for every
// protocol × interaction model, in both sampler modes (exact per-pair and
// block sampling), plus the wrapped fault-tolerant simulators (SKnO, SID,
// Naming). Tolerances leave ~3× headroom over
// observed gaps, so the suite catches sampling-model regressions, not RNG
// noise. CI runs this suite under the race detector as the counts smoke
// step.

const (
	ceqN     = 128
	ceqSeeds = 8
)

type ceqWorkload struct {
	name       string
	proto      pp.TwoWay
	cfg        func(n int) pp.Configuration
	done       func(n int) func(pp.Configuration) bool
	oneWayDone bool // some predicates stall one-way
}

func ceqWorkloads() []ceqWorkload {
	return []ceqWorkload{
		{
			name: "pairing", proto: protocols.Pairing{},
			cfg: func(n int) pp.Configuration { return protocols.PairingConfig((n+1)/2, n/2) },
			done: func(n int) func(pp.Configuration) bool {
				c, p := (n+1)/2, n/2
				return func(cf pp.Configuration) bool { return protocols.PairingDone(cf, c, p) }
			},
		},
		{
			name: "majority", proto: protocols.Majority{},
			cfg: func(n int) pp.Configuration { return protocols.MajorityConfig(n/2+8, n/2-8) },
			done: func(n int) func(pp.Configuration) bool {
				return func(cf pp.Configuration) bool { return protocols.MajorityConverged(cf, "A") }
			},
		},
		{
			name: "leader", proto: protocols.LeaderElection{},
			cfg:  protocols.LeaderConfig,
			done: func(n int) func(pp.Configuration) bool { return protocols.LeaderElected },
			// Leader election demotes the reactor only — fully one-way.
			oneWayDone: true,
		},
		{
			name: "parity", proto: protocols.Modulo{M: 2},
			cfg: func(n int) pp.Configuration { return protocols.ModuloConfig(n, n/2+1) },
			done: func(n int) func(pp.Configuration) bool {
				want := (n/2 + 1) % 2
				return func(cf pp.Configuration) bool { return protocols.ModuloConverged(cf, want) }
			},
		},
	}
}

func ceqAddCounts(into map[string]float64, c pp.Configuration) {
	for _, s := range c {
		into[s.Key()]++
	}
}

func ceqMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// TestCountEquivalenceProtocols compares the counts backend against the
// batched agent-vector fast path for every protocol × interaction model, in
// the exact sampler mode (block length 1 — the per-pair fallback, equal in
// distribution to the sequential chain, so the full tolerance budget is
// available for ensemble noise). Block mode is compared at its actual
// operating scale by TestCountEquivalenceBlockMode: at eqN-sized populations
// a forced block length violates the B ≤ √n/2 precondition, and the
// mid-transient one-way parity counts are bimodal per seed (≈ ±n/2 swings),
// so an unpaired 8-seed comparison at 0.2·n tolerance has no statistical
// power there — that is noise the suite must not encode as a pass/fail.
func TestCountEquivalenceProtocols(t *testing.T) {
	fixedT := 60 * ceqN
	for _, w := range ceqWorkloads() {
		for _, kind := range model.Kinds() {
			w, kind := w, kind
			t.Run(fmt.Sprintf("%s/%v", w.name, kind), func(t *testing.T) {
				var protocol any = w.proto
				if kind.OneWay() {
					protocol = pp.OneWayAdapter{P: w.proto}
				}
				checkConv := !kind.OneWay() || w.oneWayDone

				// Batched agent-vector reference ensemble.
				refCounts := map[string]float64{}
				var refHits []float64
				for seed := int64(1); seed <= ceqSeeds; seed++ {
					eng, err := engine.New(kind, protocol, w.cfg(ceqN), sched.NewRandom(seed))
					if err != nil {
						t.Fatal(err)
					}
					if err := eng.RunStepsBatch(fixedT); err != nil {
						t.Fatal(err)
					}
					ceqAddCounts(refCounts, eng.Config())
					if checkConv {
						eng2, err := engine.New(kind, protocol, w.cfg(ceqN), sched.NewRandom(seed))
						if err != nil {
							t.Fatal(err)
						}
						hit, ok, err := eng2.RunUntilEvery(w.done(ceqN), 64, 5_000_000)
						if err != nil || !ok {
							t.Fatalf("batched seed %d did not converge: ok=%v err=%v", seed, ok, err)
						}
						refHits = append(refHits, float64(hit))
					}
				}
				for k := range refCounts {
					refCounts[k] /= ceqSeeds
				}

				for _, blockLen := range []int{1} {
					ctCounts := map[string]float64{}
					var ctHits []float64
					for seed := int64(1); seed <= ceqSeeds; seed++ {
						ce, err := engine.NewCountEngine(kind, protocol, w.cfg(ceqN), seed,
							engine.CountOptions{BlockLen: blockLen})
						if err != nil {
							t.Fatal(err)
						}
						if err := ce.RunSteps(fixedT); err != nil {
							t.Fatal(err)
						}
						ceqAddCounts(ctCounts, ce.Config())
						if checkConv {
							ce2, err := engine.NewCountEngine(kind, protocol, w.cfg(ceqN), seed,
								engine.CountOptions{BlockLen: blockLen})
							if err != nil {
								t.Fatal(err)
							}
							done := w.done(ceqN)
							in := ce2.Interner()
							hit, ok, err := ce2.RunUntil(func(c pp.Counts) bool {
								return done(in.MaterializeCounts(c, nil))
							}, 64, 5_000_000)
							if err != nil || !ok {
								t.Fatalf("counts B=%d seed %d did not converge: ok=%v err=%v", blockLen, seed, ok, err)
							}
							ctHits = append(ctHits, float64(hit))
						}
					}
					for k := range ctCounts {
						ctCounts[k] /= ceqSeeds
					}

					// Final-count distributions.
					tol := 0.2 * ceqN
					keys := map[string]bool{}
					for k := range refCounts {
						keys[k] = true
					}
					for k := range ctCounts {
						keys[k] = true
					}
					for k := range keys {
						if d := ctCounts[k] - refCounts[k]; d > tol || d < -tol {
							t.Errorf("B=%d: mean final count of %q diverged: batched %.1f, counts %.1f (tol %.1f)",
								blockLen, k, refCounts[k], ctCounts[k], tol)
						}
					}

					// Convergence-step distributions.
					if checkConv {
						mr, mc := ceqMean(refHits), ceqMean(ctHits)
						if ratio := mc / mr; ratio < 0.4 || ratio > 2.5 {
							t.Errorf("B=%d: mean convergence steps diverged: batched %.0f, counts %.0f (ratio %.2f)",
								blockLen, mr, mc, ratio)
						}
					}
				}
			})
		}
	}
}

// TestCountEquivalenceBlockMode compares block sampling against the batched
// fast path in the regime the auto-selection actually uses it: n = 4096,
// B = √n/2 = 32, where the collision-free perturbation is ≈ 1.5% of
// interactions. Observables are concentrated ones — majority convergence
// steps and converged finals, pairing residual counts after a fixed budget —
// so the comparison has power at 8 seeds.
func TestCountEquivalenceBlockMode(t *testing.T) {
	const n = 4096
	t.Run("majority-convergence", func(t *testing.T) {
		var refHits, ctHits []float64
		cfg := func() pp.Configuration { return protocols.MajorityConfig(n/2+n/64, n/2-n/64) }
		done := func(c pp.Configuration) bool { return protocols.MajorityConverged(c, "A") }
		for seed := int64(1); seed <= ceqSeeds; seed++ {
			eng, err := engine.New(model.TW, protocols.Majority{}, cfg(), sched.NewRandom(seed))
			if err != nil {
				t.Fatal(err)
			}
			hit, ok, err := eng.RunUntilEvery(done, 256, 100_000_000)
			if err != nil || !ok {
				t.Fatalf("batched seed %d: ok=%v err=%v", seed, ok, err)
			}
			refHits = append(refHits, float64(hit))

			ce, err := engine.NewCountEngine(model.TW, protocols.Majority{}, cfg(), seed, engine.CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ce.BlockLen() < 2 {
				t.Fatalf("auto block length %d at n=%d, expected block mode", ce.BlockLen(), n)
			}
			in := ce.Interner()
			hitC, ok, err := ce.RunUntil(func(c pp.Counts) bool {
				return done(in.MaterializeCounts(c, nil))
			}, 256, 100_000_000)
			if err != nil || !ok {
				t.Fatalf("counts seed %d: ok=%v err=%v", seed, ok, err)
			}
			ctHits = append(ctHits, float64(hitC))
		}
		mr, mc := ceqMean(refHits), ceqMean(ctHits)
		if ratio := mc / mr; ratio < 0.5 || ratio > 2.0 {
			t.Errorf("mean convergence steps diverged: batched %.0f, counts %.0f (ratio %.2f)", mr, mc, ratio)
		}
	})
	t.Run("pairing-residuals", func(t *testing.T) {
		fixedT := 8 * n
		cfg := func() pp.Configuration { return protocols.PairingConfig(n/2, n/2) }
		refCounts := map[string]float64{}
		ctCounts := map[string]float64{}
		for seed := int64(1); seed <= ceqSeeds; seed++ {
			eng, err := engine.New(model.TW, protocols.Pairing{}, cfg(), sched.NewRandom(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.RunStepsBatch(fixedT); err != nil {
				t.Fatal(err)
			}
			ceqAddCounts(refCounts, eng.Config())

			ce, err := engine.NewCountEngine(model.TW, protocols.Pairing{}, cfg(), seed, engine.CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ce.RunSteps(fixedT); err != nil {
				t.Fatal(err)
			}
			ceqAddCounts(ctCounts, ce.Config())
		}
		// Unpaired residual counts concentrate (Chernoff) at this scale:
		// 5% of n is ≈ 10× the observed gap.
		tol := 0.05 * n
		keys := map[string]bool{}
		for k := range refCounts {
			keys[k] = true
		}
		for k := range ctCounts {
			keys[k] = true
		}
		for k := range keys {
			d := (ctCounts[k] - refCounts[k]) / ceqSeeds
			if d > tol || d < -tol {
				t.Errorf("mean count of %q diverged: batched %.1f, counts %.1f (tol %.1f)",
					k, refCounts[k]/ceqSeeds, ctCounts[k]/ceqSeeds, tol)
			}
		}
	})
}

// TestCountEquivalenceWrapped compares the counts backend against the
// batched fast path on the fault-tolerant simulators (the canonical keys of
// PR 3 are what make their state spaces internable at all): final projected
// multisets and simulation-event totals over a fixed budget, plus SKnO
// convergence steps.
func TestCountEquivalenceWrapped(t *testing.T) {
	const n = 48
	maj := protocols.Majority{}
	simCfg := protocols.MajorityConfig(n/2+4, n/2-4)
	workloads := []struct {
		name     string
		kind     model.Kind
		protocol any
		wrap     pp.Configuration
		conv     bool
	}{
		{"skno", model.IT, sim.SKnO{P: maj, O: 0}, sim.SKnO{P: maj, O: 0}.WrapConfig(simCfg), true},
		{"sid", model.IO, sim.SID{P: maj}, sim.SID{P: maj}.WrapConfig(simCfg), false},
		{"naming", model.IO, sim.Naming{P: maj, N: n}, sim.Naming{P: maj, N: n}.WrapConfig(simCfg), false},
	}
	fixedT := 400 * n
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			refCounts := map[string]float64{}
			ctCounts := map[string]float64{}
			var refEvents, ctEvents float64
			var refHits, ctHits []float64
			done := func(c pp.Configuration) bool { return protocols.MajorityConverged(sim.Project(c), "A") }
			for seed := int64(1); seed <= ceqSeeds; seed++ {
				eng, err := engine.New(w.kind, w.protocol, w.wrap, sched.NewRandom(seed))
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.RunStepsBatch(fixedT); err != nil {
					t.Fatal(err)
				}
				ceqAddCounts(refCounts, sim.Project(eng.Config()))
				refEvents += float64(len(eng.Recorder().Events()))
				if w.conv {
					eng2, err := engine.New(w.kind, w.protocol, w.wrap, sched.NewRandom(seed))
					if err != nil {
						t.Fatal(err)
					}
					hit, ok, err := eng2.RunUntilEvery(done, 64, 20_000_000)
					if err != nil || !ok {
						t.Fatalf("batched seed %d: ok=%v err=%v", seed, ok, err)
					}
					refHits = append(refHits, float64(hit))
				}

				ce, err := engine.NewCountEngine(w.kind, w.protocol, w.wrap, seed,
					engine.CountOptions{TrackEvents: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := ce.RunSteps(fixedT); err != nil {
					t.Fatal(err)
				}
				ceqAddCounts(ctCounts, sim.Project(ce.Config()))
				ctEvents += float64(ce.EventCount())
				if w.conv {
					ce2, err := engine.NewCountEngine(w.kind, w.protocol, w.wrap, seed, engine.CountOptions{})
					if err != nil {
						t.Fatal(err)
					}
					in := ce2.Interner()
					hit, ok, err := ce2.RunUntil(func(c pp.Counts) bool {
						return done(in.MaterializeCounts(c, nil))
					}, 64, 20_000_000)
					if err != nil || !ok {
						t.Fatalf("counts seed %d: ok=%v err=%v", seed, ok, err)
					}
					ctHits = append(ctHits, float64(hit))
				}
			}
			for k := range refCounts {
				refCounts[k] /= ceqSeeds
			}
			for k := range ctCounts {
				ctCounts[k] /= ceqSeeds
			}
			tol := 0.2 * float64(n)
			keys := map[string]bool{}
			for k := range refCounts {
				keys[k] = true
			}
			for k := range ctCounts {
				keys[k] = true
			}
			for k := range keys {
				if d := ctCounts[k] - refCounts[k]; d > tol || d < -tol {
					t.Errorf("mean projected count of %q diverged: batched %.1f, counts %.1f (tol %.1f)",
						k, refCounts[k], ctCounts[k], tol)
				}
			}
			if refEvents > 0 {
				if ratio := ctEvents / refEvents; ratio < 0.6 || ratio > 1.6 {
					t.Errorf("simulation-event totals diverged: batched %.0f, counts %.0f (ratio %.2f)",
						refEvents/ceqSeeds, ctEvents/ceqSeeds, ratio)
				}
			}
			if w.conv {
				mr, mc := ceqMean(refHits), ceqMean(ctHits)
				if ratio := mc / mr; ratio < 0.4 || ratio > 2.5 {
					t.Errorf("mean convergence steps diverged: batched %.0f, counts %.0f (ratio %.2f)",
						mr, mc, ratio)
				}
			}
		})
	}
}
