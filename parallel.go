package popsim

import (
	"context"
	"errors"
	"time"

	"popsim/internal/par"
)

// ErrEnsembleSpec reports an invalid ensemble spec.
var ErrEnsembleSpec = errors.New("popsim: invalid ensemble spec")

// EnsembleSpec fans one system template across K seeds on a bounded worker
// pool.
type EnsembleSpec struct {
	// Spec is the system template. Its Seed is overridden per run; its
	// Scheduler and Adversary must be nil (schedulers are per-run by
	// construction; adversaries carry RNG state and must come from the
	// AdversaryFor factory so every run owns a fresh instance).
	Spec SystemSpec
	// Runs is the ensemble size K; run i uses seed BaseSeed + i.
	Runs int
	// BaseSeed is the first seed (default 1).
	BaseSeed int64
	// Seeds overrides Runs/BaseSeed with an explicit seed list.
	Seeds []int64
	// Workers bounds the pool (0 = GOMAXPROCS).
	Workers int
	// AdversaryFor, if set, builds a fresh per-run adversary from the seed.
	AdversaryFor func(seed int64) Adversary
	// Until is the convergence predicate on the projected configuration
	// (nil = run each seed for exactly Horizon interactions).
	Until func(Configuration) bool
	// Every is the predicate cadence in interactions (default 64).
	Every int
	// Horizon caps scheduled interactions per run (default 1_000_000).
	Horizon int
	// Timeout caps each run's wall-clock time (0 = none). It is checked
	// between driving quanta of 16·Every interactions, so a run can
	// overshoot by one quantum plus a predicate evaluation.
	Timeout time.Duration
}

// EnsembleRun is one seeded run of an ensemble.
type EnsembleRun struct {
	// Seed is the run's scheduler seed.
	Seed int64
	// Steps is the exact hitting step when Converged (lean fast path),
	// otherwise the scheduled interactions consumed.
	Steps int
	// Converged reports whether Until was met within Horizon.
	Converged bool
	// Elapsed is the run's wall-clock time.
	Elapsed time.Duration
	// Err is the run's failure (engine error, timeout, cancellation).
	Err error
}

// EnsembleResult aggregates an ensemble.
type EnsembleResult struct {
	// Runs holds one entry per seed, in seed order.
	Runs []EnsembleRun
	// Converged is the number of converged runs.
	Converged int
	// SuccessRate is Converged / len(Runs).
	SuccessRate float64
	// MeanSteps, StepsP50 and StepsP90 aggregate hitting times over the
	// converged runs (0 when none converged).
	MeanSteps float64
	StepsP50  float64
	StepsP90  float64
}

// ErrRunTimeout marks an ensemble run that exceeded EnsembleSpec.Timeout.
var ErrRunTimeout = errors.New("popsim: ensemble run timed out")

// RunEnsemble executes the ensemble: every seed builds a private System
// from the template and runs on the pool; per-run failures are recorded in
// the results without aborting the other runs. Cancelling ctx stops
// launching new runs. The aggregate hitting-time statistics use the exact
// hitting steps of the batched fast path.
func RunEnsemble(ctx context.Context, es EnsembleSpec) (*EnsembleResult, error) {
	if es.Spec.Scheduler != nil || es.Spec.Adversary != nil {
		return nil, errors.Join(ErrEnsembleSpec,
			errors.New("template must not carry a Scheduler or Adversary; use per-run seeds and AdversaryFor"))
	}
	seeds := es.Seeds
	if seeds == nil {
		if es.Runs <= 0 {
			return nil, errors.Join(ErrEnsembleSpec, errors.New("set Runs or Seeds"))
		}
		base := es.BaseSeed
		if base == 0 {
			base = 1
		}
		seeds = par.Seeds(base, es.Runs)
	}
	every := es.Every
	if every <= 0 {
		every = 64
	}
	horizon := es.Horizon
	if horizon <= 0 {
		horizon = 1_000_000
	}

	results := par.Ensemble(ctx, seeds, es.Workers, func(ctx context.Context, seed int64) (EnsembleRun, error) {
		run := EnsembleRun{Seed: seed}
		spec := es.Spec
		spec.Seed = seed
		if es.AdversaryFor != nil {
			spec.Adversary = es.AdversaryFor(seed)
		}
		sys, err := NewSystem(spec)
		if err != nil {
			return run, err
		}
		var deadline time.Time
		if es.Timeout > 0 {
			deadline = time.Now().Add(es.Timeout)
		}
		// Quantized driving loop: cancellation and timeouts are honored
		// every quantum of 16 predicate windows.
		quantum := 16 * every
		for run.Steps < horizon {
			if err := ctx.Err(); err != nil {
				return run, err
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return run, ErrRunTimeout
			}
			chunk := horizon - run.Steps
			if chunk > quantum {
				chunk = quantum
			}
			if es.Until == nil {
				if err := sys.RunStepsBatch(chunk); err != nil {
					return run, err
				}
				run.Steps += chunk
				continue
			}
			hit, ok, err := sys.RunUntilEvery(es.Until, every, chunk)
			if err != nil {
				return run, err
			}
			if ok {
				run.Steps += hit
				run.Converged = true
				return run, nil
			}
			run.Steps += chunk
		}
		return run, nil
	})

	out := &EnsembleResult{Runs: make([]EnsembleRun, len(results))}
	var hits []float64
	for i, r := range results {
		run := r.Value
		run.Seed = r.Seed
		run.Elapsed = r.Elapsed
		run.Err = r.Err
		out.Runs[i] = run
		if run.Err == nil && run.Converged {
			out.Converged++
			hits = append(hits, float64(run.Steps))
		}
	}
	if len(out.Runs) > 0 {
		out.SuccessRate = float64(out.Converged) / float64(len(out.Runs))
	}
	out.MeanSteps = par.Mean(hits)
	out.StepsP50 = par.Percentile(hits, 50)
	out.StepsP90 = par.Percentile(hits, 90)
	return out, nil
}
