package main

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"popsim"
	"popsim/internal/serve"
)

func TestRunNative(t *testing.T) {
	if err := run([]string{"-protocol", "majority", "-n", "8", "-seed", "3"}); err != nil {
		t.Fatalf("native run: %v", err)
	}
}

func TestRunNativeOneWayModel(t *testing.T) {
	// OR is IO-computable natively via the one-way adapter.
	if err := run([]string{"-protocol", "or", "-model", "IO", "-n", "6", "-seed", "2"}); err != nil {
		t.Fatalf("native IO run: %v", err)
	}
}

func TestRunSimulators(t *testing.T) {
	cases := [][]string{
		{"-protocol", "pairing", "-sim", "skno", "-o", "1", "-model", "I3",
			"-omission-rate", "0.05", "-omission-budget", "1", "-n", "4", "-seed", "5"},
		{"-protocol", "leader", "-sim", "sid", "-model", "IO", "-n", "6", "-seed", "6"},
		{"-protocol", "majority", "-sim", "naming", "-model", "IO", "-n", "6", "-seed", "7"},
		{"-protocol", "pairing", "-sim", "sid", "-model", "T3", "-n", "4", "-seed", "8",
			"-omission-rate", "0.1"},
	}
	for _, args := range cases {
		args := args
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("ppsim %v: %v", args, err)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "nope"},
		{"-model", "XX"},
		{"-sim", "bogus"},
		{"-progress", "-runs", "3"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunProgressFlag: -progress arms the probe reporter on each single-run
// mode without perturbing the run (the runs are too short to print a line;
// what's under test is the arm/stop wiring).
func TestRunProgressFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "majority", "-n", "16", "-seed", "3", "-progress"},
		{"-protocol", "or", "-n", "4096", "-counts", "-seed", "2", "-progress"},
		{"-protocol", "or", "-n", "4096", "-counts", "-shards", "2", "-seed", "4", "-horizon", "40000000", "-progress"},
	} {
		args := args
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("ppsim %v: %v", args, err)
			}
		})
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"pairing", "majority", "leader", "parity", "or"} {
		if _, err := serve.WorkloadByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := serve.WorkloadByName("threshold-of-doom"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRunSpec drives the declarative path: a scenario file runs through the
// in-process job manager and must succeed (or fail) exactly like its flag
// form.
func TestRunSpec(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"protocol":"or","n":64,"runs":2,"seed":9,"horizon":1000000}`)
	if err := run([]string{"-spec", good}); err != nil {
		t.Fatalf("spec run: %v", err)
	}
	sim := write("sim.json", `{"protocol":"leader","sim":"sid","model":"IO","n":6,"seed":6}`)
	if err := run([]string{"-spec", sim}); err != nil {
		t.Fatalf("simulator spec run: %v", err)
	}
	short := write("short.json", `{"protocol":"leader","n":64,"horizon":10}`)
	if err := run([]string{"-spec", short}); err == nil {
		t.Error("non-convergence under -spec not reported")
	}
	typo := write("typo.json", `{"protocol":"or","n":64,"horizont":5}`)
	if err := run([]string{"-spec", typo}); err == nil {
		t.Error("typoed spec field accepted")
	}
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestRunSpecExclusiveWithFlags(t *testing.T) {
	p := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(p, []byte(`{"protocol":"or","n":64}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-spec", p, "-protocol", "majority"},
		{"-spec", p, "-n", "128"},
		{"-spec", p, "-counts"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunShardsNeedsCounts: the only multi-core single run is the counts
// hybrid, so -shards without -counts fails and names the mode to use.
func TestRunShardsNeedsCounts(t *testing.T) {
	err := run([]string{"-protocol", "majority", "-n", "300", "-shards", "2", "-seed", "4"})
	if err == nil || !strings.Contains(err.Error(), "-counts -shards") {
		t.Fatalf("-shards without -counts: err = %v, want one naming -counts -shards", err)
	}
}

// TestRunHybridCounts: -counts -shards composes into the counts
// hybrid, and -batch pins the counts backend's sampling tier.
func TestRunHybridCounts(t *testing.T) {
	if err := run([]string{"-protocol", "majority", "-n", "2048", "-counts", "-shards", "2",
		"-seed", "3", "-horizon", "50000000"}); err != nil {
		t.Fatalf("hybrid run: %v", err)
	}
	if err := run([]string{"-protocol", "or", "-n", "65536", "-counts", "-batch", "on",
		"-seed", "3", "-horizon", "50000000"}); err != nil {
		t.Fatalf("batch-on counts run: %v", err)
	}
	if err := run([]string{"-protocol", "majority", "-n", "64", "-counts", "-batch", "never"}); err == nil {
		t.Fatal("bad -batch value accepted")
	}
}

func TestRunEnsembleMode(t *testing.T) {
	if err := run([]string{"-protocol", "or", "-n", "64", "-runs", "4", "-seed", "9",
		"-horizon", "1000000"}); err != nil {
		t.Fatalf("ensemble run: %v", err)
	}
	// With a per-run adversary factory.
	if err := run([]string{"-protocol", "pairing", "-sim", "skno", "-o", "1", "-model", "I3",
		"-n", "4", "-runs", "3", "-seed", "11", "-omission-rate", "0.05", "-omission-budget", "1",
		"-horizon", "2000000"}); err != nil {
		t.Fatalf("ensemble with adversary: %v", err)
	}
}

func TestRunRejectsBadParallelFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "-1"},
		{"-runs", "-2"},
		{"-workers", "-1"},
		{"-shards", "2", "-runs", "2"},       // -shards needs -counts
		{"-seed", "notanumber"},              // flag parse error
		{"-n", "x"},                          // flag parse error
		{"-horizon", "true"},                 // flag parse error
		{"-no-such-flag"},                    // unknown flag
		{"-protocol", "majority", "-n", "1"}, // population too small
	} {
		args := args
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunCounts drives the -counts mode across the workloads on small
// populations (served by the batched backend with the counts view rebuilt
// per check) and a simulator run (predicate on projected counts).
func TestRunCounts(t *testing.T) {
	cases := [][]string{
		{"-protocol", "majority", "-n", "300", "-counts", "-seed", "4", "-horizon", "5000000"},
		{"-protocol", "pairing", "-n", "8", "-counts", "-seed", "2"},
		{"-protocol", "leader", "-n", "64", "-counts", "-seed", "3", "-horizon", "5000000"},
		{"-protocol", "parity", "-n", "48", "-counts", "-seed", "5", "-horizon", "5000000"},
		{"-protocol", "or", "-n", "64", "-counts", "-seed", "6", "-horizon", "1000000"},
		{"-protocol", "majority", "-sim", "skno", "-o", "0", "-model", "IT",
			"-n", "32", "-counts", "-seed", "7", "-horizon", "5000000"},
	}
	for _, args := range cases {
		args := args
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("ppsim %v: %v", args, err)
			}
		})
	}
}

// TestRunCountsBackend crosses the DefaultCountsBackendN threshold so the
// run executes on the O(|Q|) counts engine end to end.
func TestRunCountsBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("million-interaction counts run")
	}
	// The or epidemic converges in O(n log n) interactions, so crossing the
	// backend threshold stays cheap (the CLI majority workload's fixed
	// 2-agent margin would not converge at this n within any sane horizon).
	n := strconv.Itoa(popsim.DefaultCountsBackendN + 1024)
	if err := run([]string{"-protocol", "or", "-n", n, "-counts", "-seed", "1",
		"-horizon", "100000000"}); err != nil {
		t.Fatalf("counts-backend run: %v", err)
	}
}

// TestRunCountsRejectsBadCombos: -counts composes with -shards (the hybrid)
// but not with -runs, and adversary specs are outside the count-predicate
// contract (the facade's ErrCountsSpec surfaces as a CLI error).
func TestRunCountsRejectsBadCombos(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "majority", "-n", "100", "-counts", "-runs", "2"},
		{"-protocol", "majority", "-n", "100", "-counts", "-omission-rate", "0.1"},
	} {
		args := args
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	err := run([]string{"-protocol", "majority", "-n", "100", "-counts", "-omission-rate", "0.1"})
	if !errors.Is(err, popsim.ErrCountsSpec) {
		t.Errorf("adversary under -counts: err = %v, want ErrCountsSpec", err)
	}
}

func TestRunHybridRejectsAdversary(t *testing.T) {
	// The hybrid (-counts -shards) cannot host an omission adversary; the
	// facade must refuse rather than silently drop the faults.
	err := run([]string{"-protocol", "majority", "-n", "100", "-counts", "-shards", "2", "-omission-rate", "0.1"})
	if !errors.Is(err, popsim.ErrCountsSpec) {
		t.Fatalf("hybrid run with adversary: err = %v, want ErrCountsSpec", err)
	}
}

func TestRunNonConvergenceIsAnError(t *testing.T) {
	// A horizon far too small must surface as a non-convergence error, in
	// every mode.
	for _, args := range [][]string{
		{"-protocol", "leader", "-n", "64", "-horizon", "10"},
		{"-protocol", "leader", "-n", "64", "-horizon", "10", "-counts", "-shards", "2"},
		{"-protocol", "leader", "-n", "64", "-horizon", "10", "-runs", "2"},
		{"-protocol", "leader", "-n", "64", "-horizon", "10", "-counts"},
	} {
		args := args
		if err := run(args); err == nil {
			t.Errorf("args %v: non-convergence not reported", args)
		}
	}
}

// TestRunTopology drives -topology through every execution mode: native,
// counts and ensemble.
func TestRunTopology(t *testing.T) {
	cases := [][]string{
		{"-protocol", "or", "-topology", "cycle", "-n", "64", "-seed", "3"},
		{"-protocol", "or", "-topology", "grid", "-n", "64", "-seed", "3"},
		{"-protocol", "or", "-topology", "cliques:4", "-n", "64", "-seed", "3"},
		{"-protocol", "or", "-topology", "regular:4", "-n", "64", "-seed", "3"},
		{"-protocol", "or", "-topology", "powerlaw:3", "-n", "64", "-seed", "3"},
		{"-protocol", "walkmajority", "-topology", "cycle", "-n", "32", "-seed", "5", "-horizon", "20000000"},
		{"-protocol", "walkleader", "-topology", "cycle", "-n", "16", "-seed", "5", "-horizon", "20000000"},
		{"-protocol", "or", "-topology", "cycle", "-n", "64", "-counts", "-seed", "3"},
		{"-protocol", "or", "-topology", "cycle", "-n", "64", "-runs", "3", "-seed", "9", "-horizon", "5000000"},
	}
	for _, args := range cases {
		args := args
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("ppsim %v: %v", args, err)
			}
		})
	}
}

// TestRunTopologyRejects: unknown families and graphs invalid at the given n
// fail before anything runs.
func TestRunTopologyRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "or", "-topology", "moebius", "-n", "64"},
		{"-protocol", "or", "-topology", "cycle:3", "-n", "64"},
		{"-protocol", "or", "-topology", "grid", "-n", "13"},      // prime n has no grid
		{"-protocol", "or", "-topology", "regular:1", "-n", "64"}, // matchings never connect
	} {
		args := args
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSpecTopology: the declarative path carries the topology too — the
// same scenario document popsimd accepts over HTTP.
func TestRunSpecTopology(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "cycle.json")
	doc := `{"protocol":"or","n":64,"topology":"cycle","seed":9,"horizon":1000000}`
	if err := os.WriteFile(good, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", good}); err != nil {
		t.Fatalf("topology spec run: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"protocol":"or","n":64,"topology":"moebius"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", bad}); err == nil {
		t.Error("unknown topology in spec accepted")
	}
}
