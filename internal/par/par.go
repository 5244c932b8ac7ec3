// Package par is the parallel execution subsystem: it scales
// population-protocol workloads across cores along the two axes the
// engine cannot reach on its own.
//
//   - HybridRunner executes ONE large counts-native run on P workers, each
//     owning an O(|Q|) counts vector over a slice of the population and its
//     own deterministic RNG stream (sched.SplitStream), with an exact
//     multivariate-hypergeometric re-deal at epoch barriers. This is a
//     distinct execution mode with its own scheduling contract — see
//     hybrid.go — equivalent to the sequential uniform-random scheduler
//     statistically, not step for step.
//   - Ensemble fans MANY independent seeded runs across a bounded worker
//     pool with cancellation and per-run results — the shape of every
//     multi-seed sweep in the experiment harness.
//
// Both layers are deterministic for a fixed (seed, parallelism) pair and
// race-clean: hybrid workers share only the memoized transition cache
// (behind a mutex, consulted on cold state pairs only) and synchronize
// through barriers otherwise.
package par

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n), keeping at most `workers`
// invocations in flight (workers ≤ 0 means GOMAXPROCS). It always completes
// or abandons every index before returning: once ctx is cancelled, remaining
// indices are skipped. The returned error is ctx's error if cancelled,
// otherwise the lowest-index error fn produced (deterministic regardless of
// scheduling), otherwise nil.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by the
// nearest-rank method (rank ⌈p/100·N⌉) on a sorted copy (0 for an empty
// slice).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
