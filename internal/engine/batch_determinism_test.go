package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sim"
)

// Batch-mode determinism contracts: chunking invariance (aggregate vs
// expanded application must be byte-identical, not merely
// distribution-equal), exact hitting steps through the rewind-and-replay
// path, checkpoint/resume at run boundaries (mirroring the block-mode
// checkpoint suite), and the counts-native constructor.

// TestBatchGranularityInvariance pins that a batch engine stepped in any
// call pattern — whole-budget aggregate, single steps, odd chunks — produces
// byte-identical counts at equal step counts. This is the strongest
// engine-level witness that the expanded pair order IS the batch dynamics:
// the aggregate path must land on exactly the state the expansion defines.
func TestBatchGranularityInvariance(t *testing.T) {
	const n = 4096
	const budget = 20_000
	maj := protocols.Majority{}
	cfg := func() pp.Configuration { return protocols.MajorityConfig(n/2+16, n/2-16) }
	newEngine := func() *engine.CountEngine {
		ce, err := engine.NewCountEngine(model.TW, maj, cfg(), 7, engine.CountOptions{Batch: engine.BatchOn})
		if err != nil {
			t.Fatal(err)
		}
		return ce
	}
	whole := newEngine()
	if err := whole.RunSteps(budget); err != nil {
		t.Fatal(err)
	}
	single := newEngine()
	for i := 0; i < budget; i++ {
		if err := single.RunSteps(1); err != nil {
			t.Fatal(err)
		}
	}
	odd := newEngine()
	for left := budget; left > 0; {
		k := 13
		if k > left {
			k = left
		}
		if err := odd.RunSteps(k); err != nil {
			t.Fatal(err)
		}
		left -= k
	}
	if whole.Steps() != budget || single.Steps() != budget || odd.Steps() != budget {
		t.Fatalf("step counters diverged: %d/%d/%d", whole.Steps(), single.Steps(), odd.Steps())
	}
	countsEqual(t, "single-step vs whole-budget", single.Counts(), whole.Counts())
	countsEqual(t, "odd-chunk vs whole-budget", odd.Counts(), whole.Counts())

	// Continue past the first comparison point: the schedulers must have
	// landed in identical positions too, not just identical counts.
	for _, ce := range []*engine.CountEngine{whole, single, odd} {
		if err := ce.RunSteps(5_000); err != nil {
			t.Fatal(err)
		}
	}
	countsEqual(t, "continued single vs whole", single.Counts(), whole.Counts())
	countsEqual(t, "continued odd vs whole", odd.Counts(), whole.Counts())
}

// TestBatchHittingExact pins the exact-hitting contract: RunUntil with a
// coarse evaluation cadence (aggregate fast path + rewind/replay/bisect)
// must report the same absolute hitting step as a per-interaction reference
// (RunSteps(1), checking after each) — also where runs are much longer than
// the check interval (n = 2¹⁸, E[L] ≈ 320) and when the call enters mid-run
// after an odd RunSteps, far from or just before the hit. After a hit the
// engine sits at a run close of the uninterrupted trajectory: a checkpoint
// needs no fill, and the counts match a plain RunSteps run to the same step.
func TestBatchHittingExact(t *testing.T) {
	maj := protocols.Majority{}
	for _, tc := range []struct {
		as, bs int
		seeds  []int64
		pre    int // interactions applied before RunUntil; < 0: −pre before the hit
		every  []int
	}{
		{2048 + 32, 2048 - 32, []int64{3, 17, 29}, 0, []int{1, 4096}},
		{2048 + 32, 2048 - 32, []int64{3}, 1001, []int{1, 4096}},
		{2048 + 32, 2048 - 32, []int64{3}, -5, []int{1, 4096}},
		{5 << 15, 3 << 15, []int64{5}, 0, []int{1, 64, 4096}},
		{5 << 15, 3 << 15, []int64{5}, 1001, []int{1, 64, 4096}},
		{5 << 15, 3 << 15, []int64{5}, -77, []int{1, 64, 4096}},
	} {
		n := tc.as + tc.bs
		pred := func(in *pp.Interner) func(pp.Counts) bool {
			return func(c pp.Counts) bool {
				var a int64
				for id, cnt := range c {
					if cnt > 0 && maj.Output(in.State(uint32(id))) == "A" {
						a += cnt
					}
				}
				return a == int64(n)
			}
		}
		for _, seed := range tc.seeds {
			mk := func() *engine.CountEngine {
				ce, err := engine.NewCountEngine(model.TW, maj, protocols.MajorityConfig(tc.as, tc.bs), seed, engine.CountOptions{Batch: engine.BatchOn})
				if err != nil {
					t.Fatal(err)
				}
				return ce
			}
			ref := mk()
			refPred := pred(ref.Interner())
			for !refPred(ref.Counts()) {
				if ref.Steps() >= 2000*n {
					t.Fatalf("seed %d: reference did not converge", seed)
				}
				if err := ref.RunSteps(1); err != nil {
					t.Fatal(err)
				}
			}
			pre := tc.pre
			if pre < 0 {
				pre += ref.Steps()
			}
			for _, every := range tc.every {
				ce := mk()
				if err := ce.RunSteps(pre); err != nil {
					t.Fatal(err)
				}
				hit, ok, err := ce.RunUntil(pred(ce.Interner()), every, 2000*n)
				if err != nil || !ok {
					t.Fatalf("seed %d every=%d: ok=%v err=%v", seed, every, ok, err)
				}
				tag := fmt.Sprintf("n=%d seed %d pre %d every %d", n, seed, pre, every)
				if pre+hit != ref.Steps() {
					t.Fatalf("%s: hitting step %d, reference %d", tag, pre+hit, ref.Steps())
				}
				plain := mk()
				if err := plain.RunSteps(ce.Steps()); err != nil {
					t.Fatal(err)
				}
				countsEqual(t, tag+": stopped vs plain", ce.Counts(), plain.Counts())
				ck, err := ce.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if ck.Steps != ce.Steps() {
					t.Fatalf("%s: checkpoint filled %d → %d after a hit", tag, ce.Steps(), ck.Steps)
				}
			}
		}
	}
}

// TestBatchCheckpointDeterminism mirrors TestCountCheckpointDeterminism for
// batch mode: every protocol, two-way and one-way, interrupted at an
// arbitrary mid-run step. The checkpoint's boundary fill completes the
// active run (expanded pairs plus the terminating collision), so ck.Steps
// lands at or after the interrupt point; the resumed engine must match the
// uninterrupted run byte for byte, and taking the checkpoint must leave the
// snapshotted engine unperturbed.
func TestBatchCheckpointDeterminism(t *testing.T) {
	const n = 2048
	const seed = int64(11)
	budget := 20 * n
	for _, w := range ckptWorkloads() {
		for _, kind := range []model.Kind{model.TW, model.IO} {
			w, kind := w, kind
			t.Run(fmt.Sprintf("%s/%v", w.name, kind), func(t *testing.T) {
				var protocol any = w.proto
				if kind.OneWay() {
					protocol = pp.OneWayAdapter{P: w.proto}
				}
				opts := engine.CountOptions{Batch: engine.BatchOn}
				newEngine := func() *engine.CountEngine {
					ce, err := engine.NewCountEngine(kind, protocol, w.cfg(n), seed, opts)
					if err != nil {
						t.Fatal(err)
					}
					return ce
				}

				ref := newEngine()
				if err := ref.RunSteps(budget); err != nil {
					t.Fatal(err)
				}

				k1 := budget/3 + 7 // lands mid-run with overwhelming probability
				ce := newEngine()
				if err := ce.RunSteps(k1); err != nil {
					t.Fatal(err)
				}
				ck, err := ce.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if !ck.Batch || ck.BlockLen != 0 {
					t.Fatalf("checkpoint batch=%v blockLen=%d, want batch/0", ck.Batch, ck.BlockLen)
				}
				// The fill is bounded by the active run: L + 1 ≤ n/2 + 1.
				if ck.Steps < k1 || ck.Steps > k1+n/2+1 {
					t.Fatalf("checkpoint at step %d, want in [%d, %d]", ck.Steps, k1, k1+n/2+1)
				}
				res, err := engine.ResumeCountEngine(kind, protocol, ck, engine.CountOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Batch() || res.Steps() != ck.Steps {
					t.Fatalf("resumed batch=%v at step %d, want batch at %d", res.Batch(), res.Steps(), ck.Steps)
				}
				if err := res.RunSteps(budget - ck.Steps); err != nil {
					t.Fatal(err)
				}
				if res.Steps() != budget || ref.Steps() != budget {
					t.Fatalf("steps: resumed %d, ref %d, want %d", res.Steps(), ref.Steps(), budget)
				}
				countsEqual(t, "batch resumed vs uninterrupted", res.Counts(), ref.Counts())

				if err := ce.RunSteps(budget - ce.Steps()); err != nil {
					t.Fatal(err)
				}
				countsEqual(t, "batch snapshotted engine vs uninterrupted", ce.Counts(), ref.Counts())
			})
		}
	}
}

// TestBatchCheckpointHittingStep pins exact hitting steps across a batch
// checkpoint/resume round trip.
func TestBatchCheckpointHittingStep(t *testing.T) {
	const n = 2048
	const seed = int64(5)
	maj := protocols.Majority{}
	cfg := protocols.MajorityConfig(n/2+16, n/2-16)
	opts := engine.CountOptions{Batch: engine.BatchOn}
	pred := func(in *pp.Interner) func(pp.Counts) bool {
		return func(c pp.Counts) bool {
			var a int64
			for id, cnt := range c {
				if cnt > 0 && maj.Output(in.State(uint32(id))) == "A" {
					a += cnt
				}
			}
			return a == int64(n)
		}
	}

	ref, err := engine.NewCountEngine(model.TW, maj, cfg, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	refHit, ok, err := ref.RunUntil(pred(ref.Interner()), 64, 2000*n)
	if err != nil || !ok {
		t.Fatalf("reference did not converge: hit=%d ok=%v err=%v", refHit, ok, err)
	}

	ce, err := engine.NewCountEngine(model.TW, maj, cfg, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.RunSteps(refHit / 2); err != nil {
		t.Fatal(err)
	}
	ck, err := ce.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ResumeCountEngine(model.TW, maj, ck, engine.CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hit, ok, err := res.RunUntil(pred(res.Interner()), 64, 2000*n)
	if err != nil || !ok {
		t.Fatalf("resumed run did not converge: ok=%v err=%v", ok, err)
	}
	if got := ck.Steps + hit; got != refHit {
		t.Fatalf("resumed hitting step %d (checkpoint %d + %d), uninterrupted %d", got, ck.Steps, hit, refHit)
	}
}

// TestBatchCheckpointWrapped covers the fault-tolerant simulators in batch
// mode, including event totals across the interruption.
func TestBatchCheckpointWrapped(t *testing.T) {
	const n = 96
	maj := protocols.Majority{}
	simCfg := protocols.MajorityConfig(n/2+4, n/2-4)
	workloads := []struct {
		name     string
		kind     model.Kind
		protocol any
		wrap     pp.Configuration
	}{
		{"skno", model.IT, sim.SKnO{P: maj, O: 0}, sim.SKnO{P: maj, O: 0}.WrapConfig(simCfg)},
		{"sid", model.IO, sim.SID{P: maj}, sim.SID{P: maj}.WrapConfig(simCfg)},
		{"naming", model.IO, sim.Naming{P: maj, N: n}, sim.Naming{P: maj, N: n}.WrapConfig(simCfg)},
	}
	budget := 400 * n
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			opts := engine.CountOptions{Batch: engine.BatchOn, TrackEvents: true}
			ref, err := engine.NewCountEngine(w.kind, w.protocol, w.wrap, 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.RunSteps(budget); err != nil {
				t.Fatal(err)
			}

			ce, err := engine.NewCountEngine(w.kind, w.protocol, w.wrap, 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ce.RunSteps(budget/2 + 3); err != nil {
				t.Fatal(err)
			}
			ck, err := ce.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !ck.TrackEvents || !ck.Batch {
				t.Fatalf("checkpoint dropped flags: trackEvents=%v batch=%v", ck.TrackEvents, ck.Batch)
			}
			res, err := engine.ResumeCountEngine(w.kind, w.protocol, ck, engine.CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.RunSteps(budget - ck.Steps); err != nil {
				t.Fatal(err)
			}
			countsEqual(t, "wrapped batch resumed vs uninterrupted", res.Counts(), ref.Counts())
			if res.EventCount() != ref.EventCount() {
				t.Fatalf("simulation events: resumed %d, uninterrupted %d", res.EventCount(), ref.EventCount())
			}
		})
	}
}

// TestNewCountEngineFromCounts pins the counts-native constructor: feeding
// the same configuration as (states, counts) — including duplicate states,
// which must merge by interned identity — yields an engine byte-identical in
// trajectory to NewCountEngine on the per-agent configuration, and the
// validation errors hold.
func TestNewCountEngineFromCounts(t *testing.T) {
	const n = 4096
	maj := protocols.Majority{}
	cfg := protocols.MajorityConfig(n/2+16, n/2-16)
	opts := engine.CountOptions{Batch: engine.BatchOn}

	ref, err := engine.NewCountEngine(model.TW, maj, cfg, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Per-agent states with unit counts: maximal duplicate merging.
	ones := make(pp.Counts, len(cfg))
	for i := range ones {
		ones[i] = 1
	}
	fc, err := engine.NewCountEngineFromCounts(model.TW, maj, []pp.State(cfg), ones, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fc.N() != n || !fc.Batch() {
		t.Fatalf("from-counts engine: n=%d batch=%v", fc.N(), fc.Batch())
	}
	countsEqual(t, "initial from-counts vs config", fc.Counts(), ref.Counts())
	for i := 0; i < 4; i++ {
		if err := ref.RunSteps(5_000); err != nil {
			t.Fatal(err)
		}
		if err := fc.RunSteps(5_000); err != nil {
			t.Fatal(err)
		}
		countsEqual(t, "from-counts trajectory", fc.Counts(), ref.Counts())
	}

	// Pre-aggregated form: one entry per distinct state.
	agg, err := engine.NewCountEngineFromCounts(model.TW, maj,
		[]pp.State{cfg[0], cfg[len(cfg)-1]}, pp.Counts{int64(n/2 + 16), int64(n/2 - 16)}, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.RunSteps(5_000); err != nil {
		t.Fatal(err)
	}

	// Validation.
	if _, err := engine.NewCountEngineFromCounts(model.TW, maj, []pp.State{cfg[0]}, pp.Counts{1, 2}, 1, opts); !errors.Is(err, engine.ErrConfig) {
		t.Fatalf("length mismatch: err=%v", err)
	}
	if _, err := engine.NewCountEngineFromCounts(model.TW, maj, []pp.State{cfg[0]}, pp.Counts{-1}, 1, opts); !errors.Is(err, engine.ErrConfig) {
		t.Fatalf("negative count: err=%v", err)
	}
	if _, err := engine.NewCountEngineFromCounts(model.TW, maj, []pp.State{cfg[0]}, pp.Counts{1}, 1, opts); !errors.Is(err, engine.ErrConfig) {
		t.Fatalf("population of one: err=%v", err)
	}
}
