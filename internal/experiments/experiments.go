// Package experiments reproduces every result of the paper as an executable
// experiment, one entry per theorem/figure (see DESIGN.md §3 for the index):
//
//	FIG1   — the model hierarchy and its inclusion edges
//	THM31  — Lemma 1 / Theorem 3.1: the I* run violates Pairing safety
//	THM32  — Theorem 3.2: one omission defeats simulation in T1/I1/I2
//	THM33  — Theorem 3.3: graceful-degradation threshold ≤ 1
//	THM41  — Theorem 4.1: SKnO simulates every TW protocol in I3/I4
//	COR1   — Corollary 1: SKnO with o = 0 simulates TW in IT
//	THM45  — Theorem 4.5: SID simulates TW in IO with unique IDs
//	THM46  — Theorem 4.6: Nn naming + SID with knowledge of n
//	FIG4   — the possibility/impossibility map, each cell backed by runs
//	PERF   — engine throughput and simulation slow-down (engineering)
//
// Each experiment returns machine-checkable tables plus a Pass verdict:
// "does the paper's claim reproduce on this run".
package experiments

import (
	"context"
	"fmt"
	"sort"

	"popsim/internal/adversary"
	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/par"
	"popsim/internal/pp"
	"popsim/internal/report"
	"popsim/internal/sched"
	"popsim/internal/sim"
	"popsim/internal/trace"
	"popsim/internal/verify"
)

// Config tunes an experiment run.
type Config struct {
	// Seed makes runs reproducible.
	Seed int64
	// Quick reduces sweep sizes (used by tests and smoke runs).
	Quick bool
	// Workers bounds the worker pool the sweeps fan out on (0 =
	// GOMAXPROCS). Every cell keeps its own seed, so results are identical
	// at any worker count.
	Workers int
}

// sweep runs fn(i) for every cell index [0, n) on a bounded worker pool
// (par.ForEach): the experiment sweeps are embarrassingly parallel — each
// cell builds its own engine from its own seed — so they fan out across
// cores and report into per-cell slots, with rows emitted in order
// afterwards.
func sweep(cfg Config, n int, fn func(i int) error) error {
	return par.ForEach(context.Background(), n, cfg.Workers, fn)
}

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (e.g. "THM41").
	ID string
	// Pass reports whether the paper's claim reproduced.
	Pass bool
	// Tables carry the regenerated figures/tables.
	Tables []*report.Table
	// Notes carry free-form findings.
	Notes []string
}

// Experiment is one reproducible paper result.
type Experiment struct {
	// ID is the experiment identifier.
	ID string
	// Claim is the paper result being reproduced.
	Claim string
	// Run executes the experiment.
	Run func(Config) (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "FIG1", Claim: "Figure 1: interaction-model hierarchy and inclusions", Run: Fig1},
		{ID: "THM31", Claim: "Theorem 3.1 (Lemma 1): omissions defeat any simulator in T3/I3", Run: Thm31},
		{ID: "THM32", Claim: "Theorem 3.2: one omission defeats simulation in T1/I1/I2", Run: Thm32},
		{ID: "THM33", Claim: "Theorem 3.3: graceful-degradation threshold is at most 1", Run: Thm33},
		{ID: "THM41", Claim: "Theorem 4.1: SKnO simulates TW in I3/I4 given an omission bound", Run: Thm41},
		{ID: "COR1", Claim: "Corollary 1: TW simulation in IT with Θ(|Q|·log n) memory", Run: Cor1},
		{ID: "THM45", Claim: "Theorem 4.5: SID simulates TW in IO with unique IDs", Run: Thm45},
		{ID: "THM46", Claim: "Theorem 4.6: naming + SID simulate TW in IO knowing n", Run: Thm46},
		{ID: "FIG4", Claim: "Figure 4: map of possibility/impossibility results", Run: Fig4},
		{ID: "GRAPHS", Claim: "Graphical protocols: cycle vs complete convergence under edge scheduling", Run: Graphs},
		{ID: "PERF", Claim: "Engine throughput and simulation slow-down", Run: Perf},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// simMetrics aggregates one verified simulation run.
type simMetrics struct {
	Steps      int // physical interactions (injected omissions included)
	Omissions  int
	Events     int
	Pairs      int // completed simulated interactions
	Unmatched  int
	Dropped    int
	MaxMem     int // max simulator memory per agent (bytes), over the run's end state
	MeanMem    float64
	Verified   bool
	VerifyErr  string
	Converged  bool
	PhysPerSim float64 // physical interactions per simulated interaction
}

// runVerified executes a simulator protocol under a model, verifies the
// event record against δP, and gathers metrics. pred (optional) is the
// problem-level convergence predicate evaluated on the projected
// configuration; the engine stops early when it holds and stays there.
func runVerified(
	k model.Kind,
	protocol any,
	wrapped pp.Configuration,
	simCfg pp.Configuration,
	delta verify.DeltaFunc,
	adv adversary.Adversary,
	seed int64,
	maxSteps int,
	pred func(pp.Configuration) bool,
) (*simMetrics, error) {
	rec := &trace.Recorder{}
	opts := []engine.Option{engine.WithRecorder(rec)}
	if adv != nil {
		opts = append(opts, engine.WithAdversary(adv))
	}
	eng, err := engine.New(k, protocol, wrapped, sched.NewRandom(seed), opts...)
	if err != nil {
		return nil, err
	}
	m := &simMetrics{}
	if pred == nil {
		if err := eng.RunSteps(maxSteps); err != nil {
			return nil, err
		}
		m.Converged = true
	} else {
		ok, err := eng.RunUntilProjected(pred, maxSteps)
		if err != nil {
			return nil, err
		}
		m.Converged = ok
	}
	m.Steps = rec.Steps()
	m.Omissions = rec.Omissions()
	m.Events = len(rec.Events())
	// Literal Definition-3/4 verification (see verify.Verify); the strict
	// replay-exact variant is exercised separately by the sim test suite.
	rep := verify.Verify(rec.Events(), simCfg, delta)
	m.Pairs = len(rep.Pairs)
	m.Unmatched = rep.Unmatched()
	m.Dropped = len(rep.DroppedIdentity)
	m.Verified = rep.OK()
	if err := rep.Err(); err != nil {
		m.VerifyErr = err.Error()
	}
	total := 0
	for _, st := range eng.Config() {
		b := sim.StateMemory(st)
		total += b
		if b > m.MaxMem {
			m.MaxMem = b
		}
	}
	if n := len(eng.Config()); n > 0 {
		m.MeanMem = float64(total) / float64(n)
	}
	if m.Pairs > 0 {
		m.PhysPerSim = float64(m.Steps) / float64(m.Pairs)
	}
	return m, nil
}

// check marks a note and folds a condition into the running pass verdict.
func check(res *Result, cond bool, format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	if cond {
		res.Notes = append(res.Notes, "PASS: "+note)
		return
	}
	res.Pass = false
	res.Notes = append(res.Notes, "FAIL: "+note)
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
