package popsim_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"popsim"
	"popsim/internal/protocols"
)

func majoritySpec(seed int64) popsim.SystemSpec {
	return popsim.SystemSpec{
		Model:    popsim.TW,
		Protocol: protocols.Majority{},
		Initial:  protocols.MajorityConfig(70, 58),
		Seed:     seed,
	}
}

func majorityDone(c popsim.Configuration) bool { return protocols.MajorityConverged(c, "A") }

func TestRunEnsembleAggregates(t *testing.T) {
	res, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{
		Spec:     majoritySpec(0),
		Runs:     10,
		BaseSeed: 100,
		Workers:  4,
		Until:    majorityDone,
		Horizon:  5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 10 || res.Converged != 10 || res.SuccessRate != 1 {
		t.Fatalf("aggregates: %+v", res)
	}
	if res.MeanSteps <= 0 || res.StepsP50 <= 0 || res.StepsP90 < res.StepsP50 {
		t.Fatalf("step stats: mean %.0f p50 %.0f p90 %.0f", res.MeanSteps, res.StepsP50, res.StepsP90)
	}
	for i, r := range res.Runs {
		if r.Seed != int64(100+i) || r.Err != nil || !r.Converged || r.Steps <= 0 {
			t.Fatalf("run %d: %+v", i, r)
		}
	}
	// Hitting times are the exact bisected values: re-running one seed
	// sequentially must reproduce its ensemble entry.
	sys, err := popsim.NewSystem(majoritySpec(103))
	if err != nil {
		t.Fatal(err)
	}
	hit, ok, err := sys.RunUntilEvery(majorityDone, 64, 5_000_000)
	if err != nil || !ok {
		t.Fatalf("replay: ok=%v err=%v", ok, err)
	}
	if got := res.Runs[3].Steps; got != hit {
		t.Fatalf("ensemble steps %d != replay hitting step %d", got, hit)
	}
}

func TestRunEnsembleHorizonOnly(t *testing.T) {
	res, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{
		Spec:    majoritySpec(0),
		Runs:    3,
		Horizon: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if r.Err != nil || r.Converged || r.Steps != 2000 {
			t.Fatalf("horizon-only run: %+v", r)
		}
	}
	if res.Converged != 0 || res.SuccessRate != 0 {
		t.Fatalf("aggregates: %+v", res)
	}
}

func TestRunEnsembleAdversaryFactory(t *testing.T) {
	s := popsim.SKnO(protocols.Pairing{}, 1)
	res, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{
		Spec: popsim.SystemSpec{
			Model:    popsim.I3,
			Simulate: &s,
			Initial:  protocols.PairingConfig(2, 2),
		},
		Runs: 4,
		AdversaryFor: func(seed int64) popsim.Adversary {
			return popsim.BudgetedAdversary(seed+1000, 0.05, 1)
		},
		Until:   func(c popsim.Configuration) bool { return protocols.PairingDone(c, 2, 2) },
		Horizon: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged != 4 {
		t.Fatalf("converged %d/4: %+v", res.Converged, res.Runs)
	}
}

func TestRunEnsembleRejectsSharedMutableState(t *testing.T) {
	spec := majoritySpec(1)
	spec.Scheduler = popsim.RandomScheduler(1)
	if _, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{Spec: spec, Runs: 2}); !errors.Is(err, popsim.ErrEnsembleSpec) {
		t.Fatalf("shared scheduler accepted: %v", err)
	}
	spec = majoritySpec(1)
	spec.Adversary = popsim.UOAdversary(2, 0.1, 1)
	if _, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{Spec: spec, Runs: 2}); !errors.Is(err, popsim.ErrEnsembleSpec) {
		t.Fatalf("shared adversary accepted: %v", err)
	}
	if _, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{Spec: majoritySpec(1)}); !errors.Is(err, popsim.ErrEnsembleSpec) {
		t.Fatalf("zero runs accepted: %v", err)
	}
}

func TestRunEnsembleTimeoutAndCancellation(t *testing.T) {
	// A parity workload that cannot converge (predicate never true) with a
	// tiny timeout: every run must report ErrRunTimeout.
	res, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{
		Spec:    majoritySpec(0),
		Runs:    2,
		Until:   func(popsim.Configuration) bool { return false },
		Every:   16,
		Horizon: 1 << 30,
		Timeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if !errors.Is(r.Err, popsim.ErrRunTimeout) {
			t.Fatalf("run without timeout error: %+v", r)
		}
	}
	// A cancelled context marks runs instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = popsim.RunEnsemble(ctx, popsim.EnsembleSpec{Spec: majoritySpec(0), Runs: 4, Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("run without cancellation error: %+v", r)
		}
	}
}
