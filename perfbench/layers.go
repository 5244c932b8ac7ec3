package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/par"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sched"
)

// perLayer is every per-layer metric, with its unit. Every traced run prints
// all of them; a metric a workload does not exercise reads 0 there (the
// layer did no work on it) and the report lists it as not exercised.
var perLayer = map[string]string{
	"popsim.new_system_ms":             "ms",
	"popsim.run_self_ms":               "ms",
	"popsim.predicate_ms":              "ms",
	"popsim.predicate_calls":           "count",
	"engine.ns_per_interaction":        "ns",
	"popsim.block_ns_per_interaction":  "ns",
	"popsim.batch_ns_per_interaction":  "ns",
	"pp.interned_states":               "count",
	"sim.interactions_per_event":       "ratio",
	"sim.omissions":                    "count",
	"verify.ms":                        "ms",
	"verify.matched_pairs":             "count",
	"engine.block_ns_per_interaction":  "ns",
	"engine.batch_ns_per_interaction":  "ns",
	"engine.batch_runs":                "count",
	"engine.batch_mean_run_len":        "count",
	"engine.batch_collisions":          "count",
	"engine.batch_run_len_ratio":       "ratio",
	"sched.block_ns_per_pair":          "ns",
	"sched.next_run_ns":                "ns",
	"sched.hypergeom_ns":               "ns",
	"sched.multinomial_ns":             "ns",
	"sched.fill_ns_per_word":           "ns",
	"engine.checkpoint_us":             "us",
	"engine.checkpoint_bytes":          "bytes",
	"par.hybrid_ns_per_interaction_p1": "ns",
	"par.hybrid_ns_per_interaction_p2": "ns",
	"par.barrier_wait_share":           "ratio",
	"serve.parse_spec_us":              "us",
	"serve.cache_key_us":               "us",
	"report.marshal_us":                "us",
	"serve.submit_ms":                  "ms",
	"serve.job_elapsed_ms":             "ms",
	"serve.queue_wait_ms":              "ms",
	"serve.cache_hit_ratio":            "ratio",
	"serve.hit_latency_ms_p50":         "ms",
	"bench.generator_lag_ms_p99":       "ms",
	"bench.trace_overhead_ratio":       "ratio",
}

// finishLayers completes a traced run: it checks every metric the workload
// set is a per-layer metric, fills the ones it does not exercise with 0, and
// writes the spans out.
func finishLayers(cfg config, out *outcome, tr *tracer) error {
	var idle []string
	for name, unit := range perLayer {
		if m, ok := out.Metrics[name]; ok {
			if m.Unit != unit {
				return fmt.Errorf("metric %s in %s, want %s", name, m.Unit, unit)
			}
			continue
		}
		out.set(name, 0, unit)
		idle = append(idle, name)
	}
	for name := range out.Metrics {
		if _, ok := perLayer[name]; !ok {
			return fmt.Errorf("metric %s is not a per-layer metric", name)
		}
	}
	sort.Strings(idle)
	out.note("not exercised by %s (reported as 0): %s", cfg.workload, strings.Join(idle, ", "))
	return tr.write(cfg.spans)
}

// The isolated rows call one layer's public function directly, on the
// workload's own population and counts, outside any op.

// majorityCounts is a two-cell majority population: a agents in StrongA,
// the rest in StrongB.
func majorityCounts(n, a int64) ([]pp.State, pp.Counts) {
	return []pp.State{protocols.StrongA, protocols.StrongB}, pp.Counts{a, n - a}
}

// countEngineNs times CountEngine.RunSteps over steps interactions after a
// warm-up of steps/8, and reports ns per interaction and the block length
// (0 on the batch tier).
func countEngineNs(n, a int64, steps int, wantBatch bool) (float64, int, error) {
	states, counts := majorityCounts(n, a)
	ce, err := engine.NewCountEngineFromCounts(model.TW, protocols.Majority{}, states, counts, 1, engine.CountOptions{})
	if err != nil {
		return 0, 0, err
	}
	if ce.Batch() != wantBatch {
		return 0, 0, fmt.Errorf("n=%d: batch tier %v, want %v", n, ce.Batch(), wantBatch)
	}
	if err := ce.RunSteps(steps / 8); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := ce.RunSteps(steps); err != nil {
		return 0, 0, err
	}
	blockLen := 0
	if !wantBatch {
		blockLen = ce.BlockLen()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(steps), blockLen, nil
}

// perCall times f called calls times and returns ns per call.
func perCall(calls int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// sink keeps measured results alive so the calls are not optimized away.
var sink int64

// schedLayers measures the samplers the counts tiers draw from: the block
// sampler on the block scenario's counts, and the batch tier's run, hyper-
// geometric, multinomial and stream-fill draws on the batch scenario's.
func schedLayers(out *outcome, block, batch countsScenario, blockLen int, scale int) {
	_, bc := majorityCounts(block.n, block.a)
	cs := sched.NewCountScheduler(1, blockLen)
	pairs := 0
	t0 := time.Now()
	for pairs < (1<<22)/scale {
		pairs += len(cs.Block(bc, 1<<20))
	}
	out.set("sched.block_ns_per_pair", float64(time.Since(t0).Nanoseconds())/float64(pairs), "ns")

	_, counts := majorityCounts(batch.n, batch.a)
	bs := sched.NewBatchScheduler(1, int(batch.n))
	out.set("sched.next_run_ns", perCall(20000/scale, func() { sink += bs.NextRun(counts).L }), "ns")

	rng := sched.NewBufStream(sched.NewStream(1))
	twoL := 2 * int64(0.63*math.Sqrt(float64(batch.n)))
	var h sched.HypSampler
	out.set("sched.hypergeom_ns", perCall(200000/scale, func() { sink += h.Draw(&rng, batch.n, batch.a, twoL) }), "ns")

	var b sched.BinSampler
	probs := []float64{float64(batch.a), float64(batch.n - batch.a)}
	cells := make([]int64, len(probs))
	out.set("sched.multinomial_ns", perCall(200000/scale, func() {
		b.Multinomial(&rng, twoL/2, probs, cells)
		sink += cells[0]
	}), "ns")

	words := make([]uint64, 256)
	fill := perCall((1<<14)/scale, func() {
		rng.Fill(words)
		sink += int64(words[0])
	})
	out.set("sched.fill_ns_per_word", fill/float64(len(words)), "ns")
}

// hybridLayers runs par.HybridRunner.RunSteps at n = 10⁸ (55/45 majority,
// counts-native) with P = 1 and P = 2, and the share of P = 2 worker time
// spent waiting at epoch barriers. These rows feed the tier audit; no timed
// workload runs a parallel engine.
func hybridLayers(out *outcome, smoke bool) error {
	n, steps := int64(100_000_000), 600_000_000
	if smoke {
		n, steps = 1_000_000, 3_000_000
	}
	states, counts := majorityCounts(n, n*55/100)
	for _, p := range []int{1, 2} {
		hr, err := par.NewHybridFromCounts(model.TW, protocols.Majority{}, states, counts, 1, par.HybridOptions{Shards: p})
		if err != nil {
			return err
		}
		probe := hr.Probe()
		t0 := time.Now()
		if err := hr.RunSteps(steps); err != nil {
			return err
		}
		out.set(fmt.Sprintf("par.hybrid_ns_per_interaction_p%d", p), float64(time.Since(t0).Nanoseconds())/float64(steps), "ns")
		if p == 2 {
			var busy, wait float64
			for _, w := range probe.Snapshot().Workers {
				busy += w.BusySec
				wait += w.BarrierWaitSec
			}
			out.set("par.barrier_wait_share", ratio(wait, busy+wait), "ratio")
		}
	}
	return nil
}
