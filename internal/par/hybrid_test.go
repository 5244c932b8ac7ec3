package par_test

import (
	"errors"
	"testing"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/par"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sim"
)

func hybCountsEqual(t *testing.T, tag string, a, b pp.Counts) {
	t.Helper()
	la, lb := len(a), len(b)
	n := la
	if lb > n {
		n = lb
	}
	for q := 0; q < n; q++ {
		var va, vb int64
		if q < la {
			va = a[q]
		}
		if q < lb {
			vb = b[q]
		}
		if va != vb {
			t.Fatalf("%s: counts diverge at state %d: %d vs %d", tag, q, va, vb)
		}
	}
}

// TestHybridDeterministicPerSeedP: same (seed, P) ⇒ byte-identical counts
// and exact step totals, run after run.
func TestHybridDeterministicPerSeedP(t *testing.T) {
	const n = 1 << 12
	mk := func() *par.HybridRunner {
		hr, err := par.NewHybrid(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+64, n/2-64),
			11, par.HybridOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return hr
	}
	a, b := mk(), mk()
	for i := 0; i < 3; i++ {
		if err := a.RunSteps(10_000); err != nil {
			t.Fatal(err)
		}
		if err := b.RunSteps(10_000); err != nil {
			t.Fatal(err)
		}
		if a.Steps() != b.Steps() {
			t.Fatalf("round %d: steps %d vs %d", i, a.Steps(), b.Steps())
		}
		hybCountsEqual(t, "same (seed,P)", a.Counts(), b.Counts())
	}
	if a.Steps() < 30_000 {
		t.Fatalf("applied %d interactions, want ≥ 30000", a.Steps())
	}
}

// TestHybridChunkingInvariance: the trajectory is invariant under RunSteps
// call granularity — wave barriers observe, they don't perturb. The wrapped
// simulator mints states throughout the run, so its dense IDs must come out
// in the same order whichever wave a worker first needs them in.
func TestHybridChunkingInvariance(t *testing.T) {
	skno := sim.SKnO{P: protocols.Majority{}, O: 0}
	cases := []struct {
		name     string
		k        model.Kind
		protocol any
		cfg      func() pp.Configuration
		n, total int
	}{
		{"majority", model.TW, protocols.Majority{},
			func() pp.Configuration { return protocols.MajorityConfig(1<<11+64, 1<<11-64) }, 1 << 12, 40_000},
		{"skno", model.IT, skno,
			func() pp.Configuration { return skno.WrapConfig(protocols.MajorityConfig(136, 120)) }, 256, 20_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *par.HybridRunner {
				hr, err := par.NewHybrid(tc.k, tc.protocol, tc.cfg(), 23, par.HybridOptions{Shards: 3})
				if err != nil {
					t.Fatal(err)
				}
				return hr
			}
			whole := mk()
			if err := whole.RunSteps(tc.total); err != nil {
				t.Fatal(err)
			}
			chunked := mk()
			for applied := 0; applied < tc.total; {
				k := min(997, tc.total-applied)
				if err := chunked.RunSteps(k); err != nil {
					t.Fatal(err)
				}
				applied += k
			}
			if whole.Steps() != chunked.Steps() {
				t.Fatalf("steps diverge under chunking: %d vs %d", whole.Steps(), chunked.Steps())
			}
			if whole.Interner().Len() != chunked.Interner().Len() {
				t.Fatalf("interned %d vs %d states", whole.Interner().Len(), chunked.Interner().Len())
			}
			for id := 0; id < whole.Interner().Len(); id++ {
				if a, b := whole.Interner().State(uint32(id)).Key(), chunked.Interner().State(uint32(id)).Key(); a != b {
					t.Fatalf("state ID %d is %s whole, %s chunked", id, a, b)
				}
			}
			hybCountsEqual(t, "chunked", whole.Counts(), chunked.Counts())
		})
	}
}

// TestHybridPreservesInvariants: counts stay a non-negative vector summing
// to n, and the step total honors the at-least-k contract with run-boundary
// overshoot only.
func TestHybridPreservesInvariants(t *testing.T) {
	const n = 1 << 10
	hr, err := par.NewHybrid(model.TW, protocols.Pairing{}, protocols.PairingConfig(n/2, n/2),
		5, par.HybridOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	nominal := 0
	for _, k := range []int{1, 63, 1000, 10_000} {
		if err := hr.RunSteps(k); err != nil {
			t.Fatal(err)
		}
		nominal += k
		var total int64
		for id, v := range hr.Counts() {
			if v < 0 {
				t.Fatalf("negative count %d for state %d after %d steps", v, id, hr.Steps())
			}
			total += v
		}
		if total != n {
			t.Fatalf("counts sum to %d, want %d", total, n)
		}
		if hr.Steps() < int64(nominal) {
			t.Fatalf("applied %d < nominal %d", hr.Steps(), nominal)
		}
	}
	// Overshoot is bounded by runs-in-flight: generous envelope, not exact.
	if hr.Steps() > int64(nominal)+int64(hr.P())*int64(40*32) {
		t.Fatalf("applied %d overshoots nominal %d beyond the run-boundary envelope", hr.Steps(), nominal)
	}
}

// TestHybridConverges: majority reaches consensus under the hybrid law and
// the hitting step is barrier-granular but plausible.
func TestHybridConverges(t *testing.T) {
	const n = 1 << 12
	hr, err := par.NewHybrid(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+n/8, n/2-n/8),
		3, par.HybridOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := protocols.Majority{}
	in := hr.Interner()
	applied, ok, err := hr.RunUntilCounts(func(c pp.Counts) bool {
		for id, v := range c {
			if v != 0 && out.Output(in.State(uint32(id))) != "A" {
				return false
			}
		}
		return true
	}, 4096, 2000*n)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no consensus after %d interactions", applied)
	}
	if applied < int64(n) {
		t.Fatalf("consensus after only %d interactions — implausibly fast for n=%d", applied, n)
	}
}

// TestHybridMatchesSequentialBatchConvergence: seconds-class statistical
// equivalence — hybrid convergence times stay within a constant factor of
// the sequential batch engine's on the same workload.
func TestHybridMatchesSequentialBatchConvergence(t *testing.T) {
	const n = 1 << 13
	out := protocols.Majority{}
	pred := func(in *pp.Interner) func(pp.Counts) bool {
		return func(c pp.Counts) bool {
			for id, v := range c {
				if v != 0 && out.Output(in.State(uint32(id))) != "A" {
					return false
				}
			}
			return true
		}
	}
	seqMean, hybMean := 0.0, 0.0
	const seeds = 3
	for s := int64(0); s < seeds; s++ {
		ce, err := engine.NewCountEngine(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+n/16, n/2-n/16),
			100+s, engine.CountOptions{Batch: engine.BatchOn})
		if err != nil {
			t.Fatal(err)
		}
		hit, ok, err := ce.RunUntil(pred(ce.Interner()), 4096, 2000*n)
		if err != nil || !ok {
			t.Fatalf("sequential seed %d: ok=%v err=%v", s, ok, err)
		}
		seqMean += float64(hit) / seeds

		hr, err := par.NewHybrid(model.TW, protocols.Majority{}, protocols.MajorityConfig(n/2+n/16, n/2-n/16),
			200+s, par.HybridOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		applied, ok, err := hr.RunUntilCounts(pred(hr.Interner()), 4096, 2000*n)
		if err != nil || !ok {
			t.Fatalf("hybrid seed %d: ok=%v err=%v", s, ok, err)
		}
		hybMean += float64(applied) / seeds
	}
	if r := hybMean / seqMean; r < 0.4 || r > 2.5 {
		t.Fatalf("hybrid/sequential convergence ratio %.2f outside [0.4, 2.5] (hyb %.0f, seq %.0f)", r, hybMean, seqMean)
	}
}

// TestHybridFromCounts: the counts-native constructor merges duplicate
// states, validates its inputs, and runs equivalently to the per-agent one.
func TestHybridFromCounts(t *testing.T) {
	const n = 1 << 10
	cfg := protocols.MajorityConfig(n/2+32, n/2-32)
	states := make([]pp.State, n)
	ones := make(pp.Counts, n)
	for i, s := range cfg {
		states[i] = s
		ones[i] = 1
	}
	a, err := par.NewHybridFromCounts(model.TW, protocols.Majority{}, states, ones, 9, par.HybridOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.NewHybrid(model.TW, protocols.Majority{}, cfg, 9, par.HybridOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.RunSteps(2000); err != nil {
			t.Fatal(err)
		}
		if err := b.RunSteps(2000); err != nil {
			t.Fatal(err)
		}
		hybCountsEqual(t, "from-counts vs per-agent", a.Counts(), b.Counts())
	}

	// Pre-aggregated form: two states with bulk counts.
	c, err := par.NewHybridFromCounts(model.TW, protocols.Majority{},
		[]pp.State{cfg[0], cfg[n-1]}, pp.Counts{n/2 + 32, n/2 - 32}, 9, par.HybridOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunSteps(2000); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().N(); got != n {
		t.Fatalf("pre-aggregated population %d, want %d", got, n)
	}

	if _, err := par.NewHybridFromCounts(model.TW, protocols.Majority{},
		[]pp.State{cfg[0]}, pp.Counts{1, 1}, 9, par.HybridOptions{}); !errors.Is(err, par.ErrHybrid) {
		t.Fatalf("length mismatch: got %v, want ErrHybrid", err)
	}
	if _, err := par.NewHybridFromCounts(model.TW, protocols.Majority{},
		[]pp.State{cfg[0]}, pp.Counts{-1}, 9, par.HybridOptions{}); !errors.Is(err, par.ErrHybrid) {
		t.Fatalf("negative count: got %v, want ErrHybrid", err)
	}
	if _, err := par.NewHybridFromCounts(model.TW, protocols.Majority{},
		[]pp.State{cfg[0]}, pp.Counts{1}, 9, par.HybridOptions{}); !errors.Is(err, par.ErrHybrid) {
		t.Fatalf("population of one: got %v, want ErrHybrid", err)
	}
}

// TestHybridWrapped: wrapped simulator states run under the hybrid with
// event counting, and the event total tracks the sequential batch engine's
// within a constant factor.
func TestHybridWrapped(t *testing.T) {
	const n = 256
	s := sim.SKnO{P: protocols.Majority{}, O: 0}
	cfg := s.WrapConfig(protocols.MajorityConfig(n/2+16, n/2-16))
	const budget = 40 * n

	hr, err := par.NewHybrid(model.IT, s, cfg, 5, par.HybridOptions{Shards: 2, TrackEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := hr.RunSteps(budget); err != nil {
		t.Fatal(err)
	}
	var total int64
	for id, v := range hr.Counts() {
		if v < 0 {
			t.Fatalf("negative count for state %d in wrapped run", id)
		}
		total += v
	}
	if total != n {
		t.Fatalf("wrapped counts sum to %d, want %d", total, n)
	}
	if hr.EventCount() == 0 {
		t.Fatal("wrapped run counted zero simulation events")
	}

	ce, err := engine.NewCountEngine(model.IT, s, cfg, 6,
		engine.CountOptions{Batch: engine.BatchOn, TrackEvents: true, MaxStates: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.RunSteps(budget); err != nil {
		t.Fatal(err)
	}
	seqPer := float64(ce.EventCount()) / float64(ce.Steps())
	hybPer := float64(hr.EventCount()) / float64(hr.Steps())
	if r := hybPer / seqPer; r < 0.5 || r > 2.0 {
		t.Fatalf("events-per-interaction ratio hybrid/sequential %.2f outside [0.5, 2.0]", r)
	}
}

// TestHybridRejectsUnboundedStateSpace: simulator state spaces that outgrow
// the bound fail loudly with par.ErrStateSpace rather than thrash.
func TestHybridRejectsUnboundedStateSpace(t *testing.T) {
	s := sim.SID{P: protocols.Majority{}}
	wrapped := s.WrapConfig(protocols.MajorityConfig(40, 24))
	hr, err := par.NewHybrid(model.IO, s, wrapped, 7, par.HybridOptions{Shards: 2, MaxStates: 64})
	if err != nil {
		// n distinct initial states may already exceed the bound.
		if !errors.Is(err, par.ErrStateSpace) {
			t.Fatalf("err = %v, want ErrStateSpace", err)
		}
		return
	}
	err = hr.RunSteps(1_000_000)
	if !errors.Is(err, par.ErrStateSpace) {
		t.Fatalf("got %v, want ErrStateSpace", err)
	}
}

// TestHybridClampsShards: P is clamped to n/2 and survives P=1.
func TestHybridClampsShards(t *testing.T) {
	hr, err := par.NewHybrid(model.TW, protocols.Pairing{}, protocols.PairingConfig(3, 3),
		1, par.HybridOptions{Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if hr.P() != 3 {
		t.Fatalf("P=%d, want clamp to 3", hr.P())
	}
	if err := hr.RunSteps(500); err != nil {
		t.Fatal(err)
	}
	one, err := par.NewHybrid(model.TW, protocols.Pairing{}, protocols.PairingConfig(32, 32),
		1, par.HybridOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.RunSteps(5000); err != nil {
		t.Fatal(err)
	}
	if one.Counts().N() != 64 {
		t.Fatal("P=1 hybrid lost population")
	}
}

// TestHybridOneWayModels: the one-way interaction models run on the hybrid.
func TestHybridOneWayModels(t *testing.T) {
	const n = 256
	if _, err := par.NewHybrid(model.IO, protocols.Or{}, protocols.OrConfig(10, 2), 1,
		par.HybridOptions{}); !errors.Is(err, par.ErrHybrid) {
		t.Fatalf("two-way protocol under IO: err = %v, want ErrHybrid", err)
	}
	for _, k := range []model.Kind{model.IT, model.IO} {
		hr, err := par.NewHybrid(k, pp.OneWayAdapter{P: protocols.Or{}}, protocols.OrConfig(n, 3),
			13, par.HybridOptions{Shards: 2})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := hr.RunSteps(20_000); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if hr.Counts().N() != n {
			t.Fatalf("%v: population drifted", k)
		}
	}
}
