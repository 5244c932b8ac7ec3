package popsim_test

import (
	"errors"
	"testing"

	"popsim"
	"popsim/internal/protocols"
)

// batchSpec is countsJobSpec pinned to the collision-aware batch tier.
func batchSpec(n int) popsim.SystemSpec {
	spec := countsJobSpec(n)
	spec.CountBatch = popsim.BatchOn
	return spec
}

// countsNativeSpec builds a counts-native majority spec: as+bs agents in
// two cells, never materialized per-agent.
func countsNativeSpec(as, bs int64, seed int64) popsim.SystemSpec {
	return popsim.SystemSpec{
		Model:    popsim.TW,
		Protocol: protocols.Majority{},
		InitialCounts: []popsim.CountedState{
			{State: popsim.Symbol("A"), Count: as},
			{State: popsim.Symbol("B"), Count: bs},
		},
		Seed: seed,
	}
}

func TestCountBatchBackendSelection(t *testing.T) {
	// Large enough for the counts backend, far below the batch-auto
	// threshold: the spec's CountBatch knob decides the tier.
	n := 1 << 16
	for _, tc := range []struct {
		mode popsim.BatchMode
		want string
	}{
		{popsim.BatchAuto, "counts"},
		{popsim.BatchOff, "counts"},
		{popsim.BatchOn, "counts-batch"},
	} {
		spec := countsMajoritySpec(n/2+n/8, n/2-n/8, 3)
		spec.CountBatch = tc.mode
		sys, err := popsim.NewSystem(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunUntilCounts(allOutput("A"), 4096, 400*n)
		if err != nil {
			t.Fatalf("mode %v: %v", tc.mode, err)
		}
		if res.Backend != tc.want {
			t.Fatalf("mode %v: backend %q, want %q", tc.mode, res.Backend, tc.want)
		}
		if !res.Converged {
			t.Fatalf("mode %v: did not converge in %d steps", tc.mode, res.Steps)
		}
	}
}

func TestCountsNativeSystem(t *testing.T) {
	const n = 1 << 20
	spec := countsNativeSpec(n/2+n/8, n/2-n/8, 5)
	spec.CountBatch = popsim.BatchOn
	sys, err := popsim.NewSystem(spec)
	if err != nil {
		t.Fatal(err)
	}

	sc := sys.Counts()
	if sc.N() != n {
		t.Fatalf("N = %d, want %d", sc.N(), n)
	}
	if got := sc.Count(popsim.Symbol("A")); got != n/2+n/8 {
		t.Fatalf("Count(A) = %d", got)
	}

	// The agent-vector surface is closed.
	if err := sys.Step(); !errors.Is(err, popsim.ErrCountsOnly) {
		t.Fatalf("Step: %v", err)
	}
	if err := sys.RunSteps(10); !errors.Is(err, popsim.ErrCountsOnly) {
		t.Fatalf("RunSteps: %v", err)
	}
	if _, err := sys.StepBatch(10); !errors.Is(err, popsim.ErrCountsOnly) {
		t.Fatalf("StepBatch: %v", err)
	}
	if _, err := sys.RunUntil(func(popsim.Configuration) bool { return true }, 10); !errors.Is(err, popsim.ErrCountsOnly) {
		t.Fatalf("RunUntil: %v", err)
	}
	if cfg := sys.Config(); cfg != nil {
		t.Fatalf("Config = %d agents, want nil", len(cfg))
	}

	// The counts backend serves the run, on the batch tier.
	res, err := sys.RunUntilCounts(allOutput("A"), 1<<16, 400*n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "counts-batch" || !res.Converged {
		t.Fatalf("backend %q converged %v (steps %d)", res.Backend, res.Converged, res.Steps)
	}
	if res.Final.N() != n {
		t.Fatalf("final N = %d", res.Final.N())
	}

	job, err := sys.NewCountsJob()
	if err != nil {
		t.Fatal(err)
	}
	if !job.Batch() {
		t.Fatal("counts job did not select batch dynamics")
	}
	if err := job.RunSteps(100_000); err != nil {
		t.Fatal(err)
	}
	if job.Steps() < 100_000 {
		t.Fatalf("job steps %d", job.Steps())
	}
}

func TestCountsNativeSpecValidation(t *testing.T) {
	base := countsNativeSpec(600, 400, 1)
	for name, mut := range map[string]func(*popsim.SystemSpec){
		"both initials": func(s *popsim.SystemSpec) { s.Initial = protocols.MajorityConfig(2, 2) },
		"simulator": func(s *popsim.SystemSpec) {
			sim := popsim.SID(protocols.Majority{})
			s.Simulate = &sim
			s.Protocol = nil
		},
		"scheduler": func(s *popsim.SystemSpec) { s.Scheduler = popsim.RandomScheduler(1) },
		"nil state": func(s *popsim.SystemSpec) {
			s.InitialCounts = []popsim.CountedState{{State: nil, Count: 2}}
		},
	} {
		spec := base
		mut(&spec)
		if _, err := popsim.NewSystem(spec); !errors.Is(err, popsim.ErrSpec) {
			t.Errorf("%s: err = %v, want ErrSpec", name, err)
		}
	}
	// Engine-level rejections surface at construction (eager validation).
	bad := countsNativeSpec(-1, 4, 1)
	if _, err := popsim.NewSystem(bad); err == nil {
		t.Error("negative count accepted")
	}
}

func TestRunHybridCountsConverges(t *testing.T) {
	const n = 1 << 13
	spec := countsMajoritySpec(n/2+n/8, n/2-n/8, 7)
	sys, err := popsim.NewSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunHybridCounts(popsim.HybridOptions{Shards: 4}, allOutput("A"), 0, 2000*n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "hybrid" || res.Degraded {
		t.Fatalf("backend %q degraded %v (%s)", res.Backend, res.Degraded, res.DegradedReason)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d steps", res.Steps)
	}
	if res.Final.N() != n || res.Final.CountFunc(func(s popsim.State) bool {
		return protocols.Majority{}.Output(s) == "A"
	}) != n {
		t.Fatalf("final counts: N=%d", res.Final.N())
	}
	// The system's own engine was untouched (detached run).
	if sys.Steps() != 0 {
		t.Fatalf("system engine stepped %d times", sys.Steps())
	}
}

func TestRunHybridCountsDeterministic(t *testing.T) {
	const n = 1 << 12
	run := func() *popsim.HybridResult {
		sys, err := popsim.NewSystem(countsMajoritySpec(n/2+n/16, n/2-n/16, 11))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunHybridCounts(popsim.HybridOptions{Shards: 3}, allOutput("A"), 0, 2000*n)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.Converged != b.Converged {
		t.Fatalf("runs diverged: %d/%v vs %d/%v", a.Steps, a.Converged, b.Steps, b.Converged)
	}
	same := true
	a.Final.Each(func(s popsim.State, c int64) bool {
		if b.Final.Count(s) != c {
			same = false
			return false
		}
		return true
	})
	if !same {
		t.Fatal("final counts diverged between identical runs")
	}
}

func TestRunHybridCountsCountsNative(t *testing.T) {
	const n = 1 << 20
	sys, err := popsim.NewSystem(countsNativeSpec(n/2+n/8, n/2-n/8, 13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunHybridCounts(popsim.HybridOptions{Shards: 4}, allOutput("A"), 0, 400*n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "hybrid" || !res.Converged {
		t.Fatalf("backend %q converged %v (steps %d)", res.Backend, res.Converged, res.Steps)
	}
}

func TestRunHybridCountsDegrades(t *testing.T) {
	const n = 1 << 12
	sys, err := popsim.NewSystem(countsMajoritySpec(n/2+n/8, n/2-n/8, 17))
	if err != nil {
		t.Fatal(err)
	}
	// A one-state bound the hybrid cannot hold; the sequential counts
	// backend's default bound absorbs the run.
	res, err := sys.RunHybridCounts(popsim.HybridOptions{Shards: 2, MaxStates: 1}, allOutput("A"), 64, 2000*n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedReason == "" {
		t.Fatalf("expected degrade, got backend %q", res.Backend)
	}
	if res.Backend != "counts" {
		t.Fatalf("degrade backend %q", res.Backend)
	}
	if !res.Converged {
		t.Fatalf("degraded run did not converge in %d steps", res.Steps)
	}
}

func TestRunHybridCountsRejectsCustomScheduling(t *testing.T) {
	spec := countsMajoritySpec(40, 24, 1)
	spec.Adversary = popsim.UOAdversary(1, 0.1, 1)
	sys, err := popsim.NewSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunHybridCounts(popsim.HybridOptions{}, nil, 0, 100); !errors.Is(err, popsim.ErrCountsSpec) {
		t.Fatalf("err = %v, want ErrCountsSpec", err)
	}
}

func TestRunHybridCountsRejectsQuenchedTopology(t *testing.T) {
	topo, err := popsim.ParseTopology("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	spec := countsMajoritySpec(600, 400, 1)
	spec.Topology = topo
	sys, err := popsim.NewSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunHybridCounts(popsim.HybridOptions{}, nil, 0, 100); !errors.Is(err, popsim.ErrCountsSpec) {
		t.Fatalf("err = %v, want ErrCountsSpec", err)
	}
}

// TestCountsJobBatchInterruptResume is the facade-level batch-mode
// checkpoint determinism pin: a batch-dynamics job checkpointed mid-run and
// resumed on a fresh System converges at the identical exact hitting step
// with identical final counts as the uninterrupted batch run.
func TestCountsJobBatchInterruptResume(t *testing.T) {
	const n = 2048
	const horizon = 40 * n * 10

	sysRef, err := popsim.NewSystem(batchSpec(n))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sysRef.NewCountsJob()
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Batch() {
		t.Fatal("job did not select batch dynamics")
	}
	refHit, ok, err := ref.Run(majorityCountsDone, 64, horizon)
	if err != nil || !ok {
		t.Fatalf("reference run: hit=%d ok=%v err=%v", refHit, ok, err)
	}

	sysA, err := popsim.NewSystem(batchSpec(n))
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := sysA.NewCountsJob()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := jobA.Run(majorityCountsDone, 64, refHit/2); err != nil || ok {
		t.Fatalf("converged or failed before interruption: ok=%v err=%v", ok, err)
	}
	ck, err := jobA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Batch() {
		t.Fatal("checkpoint does not record batch mode")
	}

	sysB, err := popsim.NewSystem(batchSpec(n))
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := sysB.ResumeCountsJob(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !jobB.Batch() {
		t.Fatal("resumed job left batch mode")
	}
	hit, ok, err := jobB.Run(majorityCountsDone, 64, horizon)
	if err != nil || !ok {
		t.Fatalf("resumed run: ok=%v err=%v", ok, err)
	}
	if hit != refHit {
		t.Fatalf("resumed hitting step %d, uninterrupted %d", hit, refHit)
	}
	want, got := ref.Counts(), jobB.Counts()
	same := true
	want.Each(func(s popsim.State, c int64) bool {
		if got.Count(s) != c {
			same = false
			return false
		}
		return true
	})
	if !same || want.N() != got.N() {
		t.Fatal("final counts differ between resumed and uninterrupted batch runs")
	}
}
