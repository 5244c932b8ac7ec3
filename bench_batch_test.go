// Benchmarks for the collision-aware batch tier (counts backend v2) — the
// regime built for n = 10⁸–10⁹, where populations are constructed
// counts-native (O(|Q|) state, never an O(n) agent vector) and dynamics
// advance run-at-a-time: a hypergeometric collision-free run length, one
// collision interaction, O(|Q|²) multinomial application per run.
//
// CI publishes this family as BENCH_batch.json and gates it with
// perf/budgets_batch.json: the n = 10⁸ majority seconds-to-consensus row is
// a wall-clock budget (one benchmark op is a whole run, ≤ 30 s), and the
// hybrid P=4 row must clear 2× over the sequential batch row (max_ratio
// 0.5) on the 4-vCPU runners.
package popsim_test

import (
	"fmt"
	"testing"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/par"
	"popsim/internal/pp"
	"popsim/internal/protocols"
)

// majorityCells is the counts-native two-cell majority population — the
// construction path that makes 10⁸ agents as cheap to stand up as 10².
func majorityCells(as, bs int64) ([]pp.State, pp.Counts) {
	return []pp.State{protocols.StrongA, protocols.StrongB}, pp.Counts{as, bs}
}

// BenchmarkBatchDynamicsThroughput measures raw batch-mode stepping at
// n ∈ {10⁶, 10⁸} (majority, TW, balanced). Each reported op is one
// interaction; the batch sampler amortizes it over E[L] ≈ 0.63√n
// collision-free steps per hypergeometric draw, so ns/op stays flat as n
// grows a hundredfold — the property this row family pins.
func BenchmarkBatchDynamicsThroughput(b *testing.B) {
	for _, n := range []int64{1_000_000, 100_000_000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			states, counts := majorityCells(n/2, n/2)
			ce, err := engine.NewCountEngineFromCounts(model.TW, protocols.Majority{}, states, counts, 1,
				engine.CountOptions{Batch: engine.BatchOn})
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
		})
	}
}

// BenchmarkBatchConsensus is the seconds-to-consensus gate: one benchmark
// op is one full majority run at n = 10⁸ with a 55/45 split, batch tier on,
// driven through RunUntil with the O(|Q|) predicate. The perf budget bounds
// the row at 30 s/op (max_sec_op in perf/budgets_batch.json); the measured
// single-core time is ~8 s (≈ 108·n interactions at sub-ns/step).
func BenchmarkBatchConsensus(b *testing.B) {
	b.Run("majority/n=100000000", func(b *testing.B) {
		const n = 100_000_000
		out := protocols.Majority{}
		var steps int64
		for i := 0; i < b.N; i++ {
			states, counts := majorityCells(55*n/100, 45*n/100)
			ce, err := engine.NewCountEngineFromCounts(model.TW, out, states, counts, int64(i+1),
				engine.CountOptions{Batch: engine.BatchOn})
			if err != nil {
				b.Fatal(err)
			}
			in := ce.Interner()
			_, ok, err := ce.RunUntil(func(c pp.Counts) bool {
				for id, v := range c {
					if v != 0 && out.Output(in.State(uint32(id))) != "A" {
						return false
					}
				}
				return true
			}, 1<<20, 1<<50)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			steps += int64(ce.Steps())
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
	})
}

// BenchmarkHybridThroughput measures the counts hybrid against the
// sequential batch tier on the same counts-native n = 10⁸ majority
// population. Each worker owns a private counts vector over an n/P slice
// and advances it with the same collision-aware batch dynamics; slices
// re-mix through multivariate-hypergeometric splits at epoch barriers. On
// the 4-vCPU CI runners the P=4 row is gated at ≤ 0.5× the seq-batch row
// (≥ 2× speedup); on a single-core host the P rows serialize and only
// measure coordination overhead.
func BenchmarkHybridThroughput(b *testing.B) {
	const n = 100_000_000
	b.Run("seq-batch", func(b *testing.B) {
		states, counts := majorityCells(n/2, n/2)
		ce, err := engine.NewCountEngineFromCounts(model.TW, protocols.Majority{}, states, counts, 1,
			engine.CountOptions{Batch: engine.BatchOn})
		if err != nil {
			b.Fatal(err)
		}
		if err := ce.RunSteps(1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := ce.RunSteps(b.N); err != nil {
			b.Fatal(err)
		}
	})
	for _, p := range []int{1, 2, 4} {
		p := p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			states, counts := majorityCells(n/2, n/2)
			hr, err := par.NewHybridFromCounts(model.TW, protocols.Majority{}, states, counts, 1,
				par.HybridOptions{Shards: p})
			if err != nil {
				b.Fatal(err)
			}
			if err := hr.RunSteps(1); err != nil { // warm caches and worker slices
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := hr.RunSteps(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}
