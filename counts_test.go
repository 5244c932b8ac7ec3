package popsim_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"popsim"
	"popsim/internal/pp"
	"popsim/internal/protocols"
)

func countsMajoritySpec(as, bs int, seed int64) popsim.SystemSpec {
	return popsim.SystemSpec{
		Model:    popsim.TW,
		Protocol: protocols.Majority{},
		Initial:  protocols.MajorityConfig(as, bs),
		Seed:     seed,
	}
}

// allOutput builds the count predicate "every agent outputs letter" — the
// O(|Q|) form of protocols.MajorityConverged.
func allOutput(letter string) func(*popsim.StateCounts) bool {
	out := protocols.Majority{}
	return func(sc *popsim.StateCounts) bool {
		ok := true
		sc.Each(func(s popsim.State, n int64) bool {
			if out.Output(s) != letter {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
}

func TestSystemCountsSnapshot(t *testing.T) {
	sys, err := popsim.NewSystem(countsMajoritySpec(9, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc := sys.Counts()
	if sc.N() != 16 {
		t.Fatalf("N = %d, want 16", sc.N())
	}
	if got := sc.Count(popsim.Symbol("A")); got != 9 {
		t.Fatalf("Count(A) = %d, want 9", got)
	}
	if got := sc.CountFunc(func(s popsim.State) bool { return protocols.Majority{}.Output(s) == "B" }); got != 7 {
		t.Fatalf("CountFunc(B) = %d, want 7", got)
	}
	var seen int64
	sc.Each(func(_ popsim.State, n int64) bool { seen += n; return true })
	if seen != 16 {
		t.Fatalf("Each visited %d agents, want 16", seen)
	}
	// The snapshot must be detached from the live system.
	if err := sys.RunSteps(1000); err != nil {
		t.Fatal(err)
	}
	if sc.N() != 16 || sc.Count(popsim.Symbol("A")) != 9 {
		t.Fatal("snapshot mutated by the run")
	}
}

func TestSystemCountsProjectedSimulator(t *testing.T) {
	s := popsim.SKnO(protocols.Majority{}, 0)
	sys, err := popsim.NewSystem(popsim.SystemSpec{
		Model:    popsim.IT,
		Simulate: &s,
		Initial:  protocols.MajorityConfig(10, 6),
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	proj := sys.Counts().Projected()
	if proj.N() != 16 {
		t.Fatalf("projected N = %d, want 16", proj.N())
	}
	if got := proj.Count(popsim.Symbol("A")); got != 10 {
		t.Fatalf("projected Count(A) = %d, want 10", got)
	}
}

func TestRunUntilCountsBatchedBackend(t *testing.T) {
	// Small population: the batched agent-vector engine serves the run.
	sys, err := popsim.NewSystem(countsMajoritySpec(40, 24, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunUntilCounts(allOutput("A"), 64, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "batched" || !res.Converged || res.Degraded {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Final.N() != 64 || res.Final.CountFunc(func(s popsim.State) bool {
		return protocols.Majority{}.Output(s) == "A"
	}) != 64 {
		t.Fatalf("final counts wrong: N=%d", res.Final.N())
	}
	// Detached: the system's own engine must be untouched.
	if sys.Steps() != 0 {
		t.Fatalf("detached run advanced the system engine to %d steps", sys.Steps())
	}
}

func TestRunUntilCountsCountsBackend(t *testing.T) {
	n := popsim.DefaultCountsBackendN
	sys, err := popsim.NewSystem(countsMajoritySpec(n/2+n/64, n/2-n/64, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunUntilCounts(allOutput("A"), 1024, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "counts" || !res.Converged || res.Degraded {
		t.Fatalf("unexpected result: backend=%q converged=%v degraded=%v", res.Backend, res.Converged, res.Degraded)
	}
	if res.Steps <= 0 {
		t.Fatalf("hitting step %d", res.Steps)
	}
	if res.Final.N() != int64(n) {
		t.Fatalf("final N = %d, want %d", res.Final.N(), n)
	}
	if sys.Steps() != 0 {
		t.Fatal("detached counts run advanced the system engine")
	}
}

// TestRunUntilCountsDegradesOverBound: a wrapped state space beyond the
// counts bound (here at construction — SID's per-agent IDs at a
// counts-eligible population exceed any explicit bound; a mid-run overflow
// takes the same path, see the engine's own bound tests) must finish on the
// batched engine and say why.
func TestRunUntilCountsDegradesOverBound(t *testing.T) {
	n := popsim.DefaultCountsBackendN
	s := popsim.SID(protocols.Majority{})
	sys, err := popsim.NewSystem(popsim.SystemSpec{
		Model:         popsim.IO,
		Simulate:      &s,
		Initial:       protocols.MajorityConfig(n/2+8, n/2-8),
		Seed:          3,
		MaxFastStates: 100, // far below SID's n distinct initial states
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunUntilCounts(func(*popsim.StateCounts) bool { return false }, 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Backend != "batched" {
		t.Fatalf("expected a degraded batched run, got backend=%q degraded=%v", res.Backend, res.Degraded)
	}
	if !strings.Contains(res.DegradedReason, "state space") {
		t.Fatalf("reason %q does not name the state-space overflow", res.DegradedReason)
	}
	if res.Steps != 1024 {
		t.Fatalf("degraded run consumed %d steps, want the full horizon 1024", res.Steps)
	}
}

func TestRunUntilCountsRejectsCustomScheduling(t *testing.T) {
	spec := countsMajoritySpec(8, 8, 1)
	spec.Scheduler = popsim.RandomScheduler(1)
	sys, err := popsim.NewSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunUntilCounts(allOutput("A"), 64, 100); !errors.Is(err, popsim.ErrCountsSpec) {
		t.Fatalf("custom scheduler accepted: %v", err)
	}
	spec = countsMajoritySpec(8, 8, 1)
	spec.Adversary = popsim.UOAdversary(2, 0.1, 1)
	sys, err = popsim.NewSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunUntilCounts(allOutput("A"), 64, 100); !errors.Is(err, popsim.ErrCountsSpec) {
		t.Fatalf("adversary accepted: %v", err)
	}
}

// TestRunEnsembleCancellationMidSweep (satellite): cancelling the context
// while runs are in flight must stop the sweep promptly, marking the
// interrupted and never-started runs with the cancellation error.
func TestRunEnsembleCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := popsim.RunEnsemble(ctx, popsim.EnsembleSpec{
		Spec:    countsMajoritySpec(128, 128, 0),
		Runs:    4,
		Workers: 1,
		Until:   func(popsim.Configuration) bool { return false }, // never
		Every:   16,
		Horizon: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	cancelled := 0
	progressed := false
	for _, r := range res.Runs {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
			if r.Steps > 0 {
				progressed = true // interrupted mid-run, not just never started
			}
		}
	}
	if cancelled == 0 {
		t.Fatalf("no run carries the cancellation: %+v", res.Runs)
	}
	if !progressed {
		t.Fatal("no run was interrupted mid-flight (all cancelled before starting)")
	}
}

// TestStateCountsIDView pins the dense-ID observation surface: IDOf resolves
// canonical keys to stable dense IDs, CountByID reads them in O(1), unknown
// states and out-of-range IDs count zero, and an ID resolved on one
// predicate evaluation keeps denoting the same state for the rest of the run
// (state spaces grow append-only).
func TestStateCountsIDView(t *testing.T) {
	sys, err := popsim.NewSystem(countsMajoritySpec(60, 40, 7))
	if err != nil {
		t.Fatal(err)
	}
	sc := sys.Counts()
	a := protocols.StrongA
	idA := sc.IDOf(a)
	if idA < 0 {
		t.Fatalf("IDOf(%v) = %d, want a valid ID", a, idA)
	}
	if got, want := sc.CountByID(idA), sc.Count(a); got != want || got != 60 {
		t.Fatalf("CountByID(%d) = %d, Count = %d, want 60", idA, got, want)
	}
	if got := sc.IDOf(popsim.State(protocols.WeakA)); got == sc.IDOf(a) {
		t.Fatalf("IDOf(weak) collided with IDOf(strong): %d", got)
	}
	if got := sc.IDOf(pp.Symbol("Z")); got != -1 {
		t.Fatalf("IDOf(unknown) = %d, want -1", got)
	}
	if got := sc.CountByID(-1); got != 0 {
		t.Fatalf("CountByID(-1) = %d, want 0", got)
	}
	if got := sc.CountByID(1 << 20); got != 0 {
		t.Fatalf("CountByID(out of range) = %d, want 0", got)
	}

	// Stability across a run: resolve once inside the predicate, then check
	// every later evaluation agrees with the key-based lookup.
	idA = -1
	mismatch := false
	res, err := sys.RunUntilCounts(func(sc *popsim.StateCounts) bool {
		if idA < 0 {
			idA = sc.IDOf(a)
		}
		if sc.CountByID(idA) != sc.Count(a) {
			mismatch = true
		}
		return allOutput("A")(sc)
	}, 64, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("majority run did not converge")
	}
	if mismatch {
		t.Fatal("CountByID diverged from Count for a stable ID mid-run")
	}
}
