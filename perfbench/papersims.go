package main

import (
	"fmt"

	"popsim"
	"popsim/internal/pp"
	"popsim/internal/protocols"
)

// paperScenario is one of the paper's simulated runs of exact majority,
// wrapped by one of the paper's simulators under a weak interaction model.
type paperScenario struct {
	name  string
	model popsim.Model
	wrap  func(n int) popsim.Simulator
	n, a  int // population, agents initially in A
	// budget is the omission budget of the scenario's adversary (0 = none).
	budget int
	seeds  []int64
}

// paperHorizon bounds every op; the slowest op of the list takes under 10⁶.
const paperHorizon = 4_000_000

// paperScenarios starts every scenario from a 3:1 split: from the registry
// majority workload's 2-agent gap, SID and Naming need 1–2·10⁶ interactions
// at n = 48 and do not converge within 2·10⁶ at n = 64, and SKnO under I3
// does not converge within 4·10⁶ at n = 32. (Those small-n runs were also
// no steadier: their recorded event lists made peak RSS vary by half
// between runs.) Every op lasts 0.3–1.7 s on the reference box.
func paperScenarios(smoke bool) []paperScenario {
	maj := protocols.Majority{}
	list := []paperScenario{
		// Corollary 1: SKnO with o = 0 under Immediate Transmission.
		{name: "skno-o0-IT", model: popsim.IT, n: 256, wrap: func(int) popsim.Simulator { return popsim.SKnO(maj, 0) }},
		// Theorem 4.1: SKnO with o = 2 under I3, against a budgeted
		// omission adversary that inserts at most 2 omissions.
		{name: "skno-o2-I3", model: popsim.I3, n: 32, budget: 2, wrap: func(int) popsim.Simulator { return popsim.SKnO(maj, 2) }},
		// Theorem 4.5: SID under Immediate Observation.
		{name: "sid-IO", model: popsim.IO, n: 128, wrap: func(int) popsim.Simulator { return popsim.SID(maj) }},
		// Theorem 4.6: Naming (Nn+SID) under Immediate Observation.
		{name: "naming-IO", model: popsim.IO, n: 96, wrap: func(n int) popsim.Simulator { return popsim.Naming(maj, n) }},
	}
	for i := range list {
		list[i].a = 3 * list[i].n / 4
		list[i].seeds = []int64{1, 2, 3}
		if smoke {
			list[i].n = max(8, list[i].n/8)
			list[i].a = 3 * list[i].n / 4
			list[i].seeds = []int64{1}
		}
	}
	return list
}

func (s paperScenario) label() string { return fmt.Sprintf("%s-majority-n%d-a%d", s.name, s.n, s.a) }

// initial is the simulated initial configuration: a agents in A, the rest B.
func (s paperScenario) initial() pp.Configuration {
	return protocols.MajorityConfig(s.a, s.n-s.a)
}

func majorityDone(c popsim.Configuration) bool { return protocols.MajorityConverged(c, "A") }

// op is one run the way cmd/ppsim drives a simulator: NewSystem (which
// wraps the initial configuration), RunUntil simulated consensus, then
// VerifySimulation against Definitions 3–4.
func (s paperScenario) op(seed int64, initial pp.Configuration) func(*tracer, int) (opResult, error) {
	return func(tr *tracer, id int) (opResult, error) {
		root := tr.begin("op", id, -1)
		defer tr.end(root)
		sm := s.wrap(s.n)
		if !s.model.OneWay() {
			sm = sm.TwoWayEmbedded()
		}
		spec := popsim.SystemSpec{Model: s.model, Simulate: &sm, Initial: initial, Seed: seed}
		if s.budget > 0 {
			spec.Adversary = popsim.BudgetedAdversary(seed+1, 0.02, s.budget)
		}
		sp := tr.begin("popsim.NewSystem", id, root)
		sys, err := popsim.NewSystem(spec)
		tr.end(sp)
		if err != nil {
			return opResult{}, err
		}
		if tr != nil {
			sys.Probe()
		}
		sp = tr.begin("popsim.RunUntil", id, root)
		pred, agg := timedPred(tr, "popsim.predicate", id, sp, majorityDone)
		done, err := sys.RunUntil(pred, paperHorizon)
		tr.closeAggregate(agg)
		tr.end(sp)
		if err != nil {
			return opResult{}, err
		}
		if !done {
			return opResult{}, fmt.Errorf("no simulated consensus within %d interactions", paperHorizon)
		}
		if om := sys.Omissions(); om > s.budget {
			return opResult{}, fmt.Errorf("%d omissions exceed the adversary budget %d", om, s.budget)
		}
		sp = tr.begin("verify.VerifySimulation", id, root)
		rep, err := sys.VerifySimulation()
		tr.end(sp)
		if err != nil {
			return opResult{}, fmt.Errorf("VerifySimulation: %w", err)
		}
		res := opResult{steps: sys.Steps()}
		if tr != nil {
			res.counts = map[string]float64{
				"events":    float64(sys.SimulatedSteps()),
				"omissions": float64(sys.Omissions()),
				"pairs":     float64(len(rep.Pairs)),
				"states":    float64(sys.Probe().Snapshot().States),
			}
		}
		return res, nil
	}
}

// paperOps builds the inputs of every op of one pass.
func paperOps(list []paperScenario) []op {
	var ops []op
	for _, s := range list {
		initial := s.initial()
		for _, seed := range s.seeds {
			ops = append(ops, op{scenario: s.label(), seed: seed, run: s.op(seed, initial)})
		}
	}
	return ops
}

// paperWarmUp runs every scenario once at half its population from a 3:1
// split, on a seed outside the timed list, so each simulator's code and heap
// are warm.
func paperWarmUp(list []paperScenario) error {
	for _, s := range list {
		s.n = max(8, s.n/2)
		s.a = 3 * s.n / 4
		if _, err := s.op(0, s.initial())(nil, -1); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.label(), err)
		}
	}
	return nil
}

func runPaperSims(cfg config) (*outcome, error) {
	out := newOutcome()
	list := paperScenarios(cfg.smoke)
	var ops []op
	setupS, err := medianSetup(setupCount(cfg), func() error {
		ops = paperOps(list)
		return paperWarmUp(list)
	})
	if err != nil {
		return nil, err
	}
	w := newOpWorkload(cfg, out, ops)
	if !cfg.trace {
		return out, w.endToEnd(setupS, w.timed())
	}
	p, tr := w.traced()
	l := tr.layers()
	n := float64(p.ok)
	out.set("popsim.new_system_ms", ratio(msOf(l["popsim.NewSystem"].busy), n), "ms")
	out.set("popsim.run_self_ms", ratio(msOf(l["popsim.RunUntil"].self), n), "ms")
	out.set("popsim.predicate_ms", ratio(msOf(l["popsim.predicate"].busy), n), "ms")
	out.set("popsim.predicate_calls", ratio(float64(l["popsim.predicate"].calls), n), "count")
	out.set("engine.ns_per_interaction", ratio(float64(l["popsim.RunUntil"].self.Nanoseconds()), float64(p.steps)), "ns")
	out.set("pp.interned_states", ratio(p.counts["states"], n), "count")
	out.set("sim.interactions_per_event", ratio(float64(p.steps), p.counts["events"]), "ratio")
	out.set("sim.omissions", p.counts["omissions"], "count")
	out.set("verify.ms", ratio(msOf(l["verify.VerifySimulation"].busy), n), "ms")
	out.set("verify.matched_pairs", ratio(p.counts["pairs"], n), "count")
	out.note("setup %.3f s (median of %d)", setupS, setupCount(cfg))
	return out, finishLayers(cfg, out, tr)
}
