package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sched"
	"popsim/internal/sim"
)

// countInvariants asserts the counts vector is a valid configuration of n
// agents: non-negative entries summing to n.
func countInvariants(t *testing.T, ce *engine.CountEngine) {
	t.Helper()
	var n int64
	for id, v := range ce.Counts() {
		if v < 0 {
			t.Fatalf("negative count %d for state %d", v, id)
		}
		n += v
	}
	if n != int64(ce.N()) {
		t.Fatalf("counts sum to %d, population is %d", n, ce.N())
	}
}

// majorityConvergedCounts is protocols.MajorityConverged at the counts
// level: every agent outputs the letter.
func majorityConvergedCounts(in *pp.Interner, letter string) func(pp.Counts) bool {
	out := protocols.Majority{}
	return func(c pp.Counts) bool {
		for id, v := range c {
			if v == 0 {
				continue
			}
			if out.Output(in.State(uint32(id))) != letter {
				return false
			}
		}
		return true
	}
}

func TestCountEngineBasicRun(t *testing.T) {
	for _, blockLen := range []int{1, 8} {
		ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
			protocols.MajorityConfig(40, 24), 1, engine.CountOptions{BlockLen: blockLen})
		if err != nil {
			t.Fatal(err)
		}
		if err := ce.RunSteps(10_000); err != nil {
			t.Fatal(err)
		}
		if ce.Steps() != 10_000 {
			t.Fatalf("Steps = %d, want 10000", ce.Steps())
		}
		countInvariants(t, ce)
		if got := len(ce.Config()); got != 64 {
			t.Fatalf("materialized %d agents, want 64", got)
		}
	}
}

func TestCountEngineDeterministicAndChunkingInvariant(t *testing.T) {
	run := func(chunks []int) pp.Counts {
		ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
			protocols.MajorityConfig(30, 20), 7, engine.CountOptions{BlockLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range chunks {
			if err := ce.RunSteps(k); err != nil {
				t.Fatal(err)
			}
		}
		return ce.Counts().Clone()
	}
	whole := run([]int{5000})
	split := run([]int{1, 63, 936, 4000})
	if !whole.Equal(split) {
		t.Fatalf("chunking changed the execution: %v vs %v", whole, split)
	}
}

// TestCountEngineExactHittingTime: on a deterministic (per seed) counts
// execution, RunUntil must report the same absolute hitting step at every
// predicate cadence as a per-interaction reference (RunSteps(1), checking
// after each) of the same seed — also where blocks are much longer than the
// check interval, and when the call enters mid-block after an odd RunSteps,
// far from or just before the hit. After a hit the engine sits at a block
// boundary of the uninterrupted trajectory: a checkpoint needs no fill, and
// the counts match a plain RunSteps run to the same step.
func TestCountEngineExactHittingTime(t *testing.T) {
	for _, tc := range []struct {
		as, bs   int
		blockLen int // 0 = auto (256 at n = 2¹⁸)
		pre      int // interactions applied before RunUntil; < 0: −pre before the hit
		every    []int
	}{
		{36, 28, 1, 0, []int{1, 512}},
		{36, 28, 16, 0, []int{1, 512}},
		{36, 28, 16, 7, []int{1, 512}},
		{36, 28, 16, -5, []int{1, 512}},
		{5 << 15, 3 << 15, 0, 0, []int{1, 64, 4096}},
		{5 << 15, 3 << 15, 0, 1001, []int{1, 64, 4096}},
		{5 << 15, 3 << 15, 0, -77, []int{1, 64, 4096}},
	} {
		mk := func() *engine.CountEngine {
			ce, err := engine.NewCountEngine(model.TW, protocols.Majority{},
				protocols.MajorityConfig(tc.as, tc.bs), 11, engine.CountOptions{BlockLen: tc.blockLen})
			if err != nil {
				t.Fatal(err)
			}
			return ce
		}
		ref := mk()
		refPred := majorityConvergedCounts(ref.Interner(), "A")
		for !refPred(ref.Counts()) {
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
			hit, ok, err := ce.RunUntil(majorityConvergedCounts(ce.Interner(), "A"), every, 5_000_000_000)
			if err != nil || !ok {
				t.Fatalf("every=%d run: ok=%v err=%v", every, ok, err)
			}
			tag := fmt.Sprintf("n=%d blockLen %d pre %d every %d", tc.as+tc.bs, ce.BlockLen(), pre, every)
			if pre+hit != ref.Steps() {
				t.Fatalf("%s: hitting step %d != reference %d", tag, pre+hit, ref.Steps())
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

// TestCountEngineHittingReplayWrapped: wrapped simulators mint states all
// run long (|Q| passes the 256-state pool threshold on the way to a hit), so RunUntil's
// rewound replay of a hitting quantum meets a state table the first pass
// grew. The replay must still retrace the first pass: same hitting step as
// a per-interaction reference, and the same counts as a plain RunSteps run
// to the step where the engine stopped — also when the call enters
// mid-block or mid-run. every = 2¹⁶ spans the whole run in one quantum.
func TestCountEngineHittingReplayWrapped(t *testing.T) {
	const n = 32
	maj := protocols.Majority{}
	simCfg := protocols.MajorityConfig(n/2+8, n/2-8)
	for _, w := range []struct {
		name     string
		kind     model.Kind
		protocol any
		wrap     pp.Configuration
		opts     []engine.CountOptions
	}{
		{"skno", model.IT, sim.SKnO{P: maj, O: 0}, sim.SKnO{P: maj, O: 0}.WrapConfig(simCfg),
			[]engine.CountOptions{{BlockLen: 8}, {Batch: engine.BatchOn}}},
		{"sid", model.IO, sim.SID{P: maj}, sim.SID{P: maj}.WrapConfig(simCfg),
			[]engine.CountOptions{{BlockLen: 8}}},
	} {
		for _, opts := range w.opts {
			mk := func() *engine.CountEngine {
				ce, err := engine.NewCountEngine(w.kind, w.protocol, w.wrap, 3, opts)
				if err != nil {
					t.Fatal(err)
				}
				return ce
			}
			pred := func(in *pp.Interner) func(pp.Counts) bool {
				var isA []bool // projected output per state ID, memoized
				return func(c pp.Counts) bool {
					for id, v := range c {
						for len(isA) <= id {
							st := sim.Project(pp.Configuration{in.State(uint32(len(isA)))})[0]
							isA = append(isA, maj.Output(st) == "A")
						}
						if v > 0 && !isA[id] {
							return false
						}
					}
					return true
				}
			}
			ref := mk()
			refPred := pred(ref.Interner())
			for !refPred(ref.Counts()) {
				if err := ref.RunSteps(1); err != nil {
					t.Fatal(err)
				}
			}
			for _, pre := range []int{0, 7, ref.Steps() - 5} {
				for _, every := range []int{64, 1 << 16} {
					ce := mk()
					if err := ce.RunSteps(pre); err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("%s %+v pre %d every %d", w.name, opts, pre, every)
					hit, ok, err := ce.RunUntil(pred(ce.Interner()), every, 5_000_000)
					if err != nil || !ok {
						t.Fatalf("%s: ok=%v err=%v", tag, ok, err)
					}
					if pre+hit != ref.Steps() {
						t.Fatalf("%s: hitting step %d, reference %d", tag, pre+hit, ref.Steps())
					}
					plain := mk()
					if err := plain.RunSteps(ce.Steps()); err != nil {
						t.Fatal(err)
					}
					countsEqual(t, tag+": replayed vs plain", ce.Counts(), plain.Counts())
				}
			}
		}
	}
}

func TestCountEngineStateSpaceBound(t *testing.T) {
	// SID state spaces scale with n: a tiny MaxStates must fail loudly with
	// ErrStateSpace (at construction here: distinct initial states > bound).
	s := sim.SID{P: protocols.Majority{}}
	cfg := s.WrapConfig(protocols.MajorityConfig(20, 12))
	_, err := engine.NewCountEngine(model.IO, s, cfg, 1, engine.CountOptions{MaxStates: 4})
	if !errors.Is(err, engine.ErrStateSpace) {
		t.Fatalf("want ErrStateSpace, got %v", err)
	}
	// Mid-run overflow takes the same error, and leaves consistent counts.
	ce, err := engine.NewCountEngine(model.IO, s, cfg, 1, engine.CountOptions{MaxStates: 40})
	if err != nil {
		t.Fatal(err)
	}
	err = ce.RunSteps(1_000_000)
	if !errors.Is(err, engine.ErrStateSpace) {
		t.Fatalf("want mid-run ErrStateSpace, got %v", err)
	}
	countInvariants(t, ce)
}

func TestCountEngineRejectsBadSpecs(t *testing.T) {
	if _, err := engine.NewCountEngine(model.TW, protocols.Majority{},
		protocols.MajorityConfig(1, 0), 1, engine.CountOptions{}); !errors.Is(err, engine.ErrConfig) {
		t.Fatalf("population 1 accepted: %v", err)
	}
	if _, err := engine.NewCountEngine(model.IO, protocols.Majority{},
		protocols.MajorityConfig(4, 4), 1, engine.CountOptions{}); !errors.Is(err, engine.ErrConfig) {
		t.Fatalf("two-way protocol under IO accepted: %v", err)
	}
}

// TestCountEngineWrappedEventCounts: a canonical wrapped simulator run on
// the counts backend must report simulation-event totals in line with a
// sequential run of the same workload (statistical agreement — different
// stream family, so compare within tolerance over the same budget).
func TestCountEngineWrappedEventCounts(t *testing.T) {
	s := sim.SKnO{P: protocols.Majority{}, O: 0}
	cfg := s.WrapConfig(protocols.MajorityConfig(40, 24))
	const steps = 30_000

	ce, err := engine.NewCountEngine(model.IT, s, cfg, 3, engine.CountOptions{TrackEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	countInvariants(t, ce)
	if ce.EventCount() == 0 {
		t.Fatal("counts run reported no simulation events")
	}

	// Sequential reference on the same budget.
	eng, err := engine.New(model.IT, s, cfg, sched.NewRandom(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunStepsBatch(steps); err != nil {
		t.Fatal(err)
	}
	seq := len(eng.Recorder().Events())
	got := ce.EventCount()
	lo, hi := seq*7/10, seq*13/10
	if got < lo || got > hi {
		t.Fatalf("counts event total %d outside [%d, %d] around sequential %d", got, lo, hi, seq)
	}
}

// TestCountEngineBlockAutoSelection pins the auto block-length policy: exact
// below the threshold, ~√n/2 above it.
func TestCountEngineBlockAutoSelection(t *testing.T) {
	small, err := engine.NewCountEngine(model.TW, protocols.Majority{},
		protocols.MajorityConfig(50, 50), 1, engine.CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if small.BlockLen() != 1 {
		t.Fatalf("n=100 block length %d, want 1 (exact mode)", small.BlockLen())
	}
	big, err := engine.NewCountEngine(model.TW, protocols.Majority{},
		protocols.MajorityConfig(5000, 5000), 1, engine.CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b := big.BlockLen(); b < 40 || b > 60 {
		t.Fatalf("n=10000 block length %d, want ≈ 50 (√n/2)", b)
	}
}
