// Ensemble: sweep the exact-majority protocol across 32 seeds on a bounded
// worker pool (popsim.RunEnsemble) and print the hitting-time statistics —
// the parallelism small populations get from seeds.
//
//	go run ./examples/ensemble
package main

import (
	"context"
	"fmt"
	"log"

	"popsim"
	"popsim/internal/protocols"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 1000
	done := func(c popsim.Configuration) bool { return protocols.MajorityConverged(c, "A") }
	spec := popsim.SystemSpec{
		Model:    popsim.TW,
		Protocol: protocols.Majority{},
		Initial:  protocols.MajorityConfig(n/2+16, n/2-16), // A leads by 32
	}

	// The seed ensemble: 32 independent runs fan out across the
	// worker pool; hitting times are exact (the batched fast path bisects
	// the predicate-flipping chunk).
	res, err := popsim.RunEnsemble(context.Background(), popsim.EnsembleSpec{
		Spec:     spec,
		Runs:     32,
		BaseSeed: 1,
		Until:    done,
		Horizon:  50_000_000,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ensemble: %d runs, %d converged (success rate %.2f)\n",
		len(res.Runs), res.Converged, res.SuccessRate)
	fmt.Printf("hitting times: mean %.0f, p50 %.0f, p90 %.0f interactions\n",
		res.MeanSteps, res.StepsP50, res.StepsP90)

	return nil
}
