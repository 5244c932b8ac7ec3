// Package popsim is a library for building, running, breaking and verifying
// population-protocol simulations, reproducing Di Luna, Flocchini, Izumi,
// Izumi, Santoro & Viglietta, "On the Power of Weaker Pairwise Interaction:
// Fault-Tolerant Simulation of Population Protocols" (ICDCS 2017,
// arXiv:1610.09435).
//
// It provides:
//
//   - the ten interaction models of the paper (TW, T1–T3, IT, IO, I1–I4)
//     with their omission-fault transition relations;
//   - the omission adversaries UO, NO and NO1, and the constructive
//     adversaries of the impossibility proofs (Lemma 1, Theorems 3.1–3.3);
//   - the two-way protocol simulators SKnO (token/joker, Theorem 4.1 and
//     Corollary 1), SID (ID-locking, Theorem 4.5) and Nn+SID (naming,
//     Theorem 4.6);
//   - a verifier for the paper's formal simulation correctness notion
//     (event sequences, perfect matchings, derived executions —
//     Definitions 3 and 4);
//   - a library of classical protocols (pairing, majority, leader election,
//     threshold counting, modulo counting, OR) used as workloads.
//
// The facade in this package re-exports the pieces a typical user needs;
// power users can reach the sub-packages directly. Quickstart:
//
//	sys, err := popsim.NewSystem(popsim.SystemSpec{
//		Model:    popsim.IO,
//		Simulate: popsim.SID(protocolOfYourChoice),
//		Initial:  initialStates,
//		Seed:     1,
//	})
//	err = sys.RunUntil(pred, 100_000)
//	report := sys.VerifySimulation()
//
// See examples/ for complete programs and cmd/experiments for the
// reproduction harness that regenerates every figure and theorem of the
// paper.
package popsim

import (
	"errors"

	"popsim/internal/adversary"
	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/obs"
	"popsim/internal/pp"
	"popsim/internal/sched"
	"popsim/internal/sim"
	"popsim/internal/trace"
	"popsim/internal/verify"
)

// Re-exported core types.
type (
	// State is an immutable agent state; see pp.State.
	State = pp.State
	// Symbol is a named constant state.
	Symbol = pp.Symbol
	// Configuration is the tuple of all agents' states.
	Configuration = pp.Configuration
	// Interaction is one ordered meeting of two agents.
	Interaction = pp.Interaction
	// Run is a sequence of interactions.
	Run = pp.Run
	// OmissionSide says which side(s) of an interaction lost information.
	OmissionSide = pp.OmissionSide
	// TwoWayProtocol is a standard two-way population protocol.
	TwoWayProtocol = pp.TwoWay
	// OneWayProtocol is a one-way (IT/IO-style) protocol.
	OneWayProtocol = pp.OneWay
	// Model is an interaction model kind.
	Model = model.Kind
	// Adversary injects omissive interactions.
	Adversary = adversary.Adversary
	// Scheduler produces the interaction sequence.
	Scheduler = sched.Scheduler
	// VerifyReport is the outcome of simulation verification.
	VerifyReport = verify.Report
	// Topology is an interaction-graph family (the scenario axis of
	// graphical population protocols); the zero value is the complete graph.
	Topology = model.Topology
	// Graph is a built topology instance (CSR adjacency over the agents).
	Graph = model.Graph
	// RunProbe is the pull-based live-progress surface every backend
	// publishes into at its natural boundaries; see obs.RunProbe.
	RunProbe = obs.RunProbe
	// ProbeSnapshot is a point-in-time read of a RunProbe.
	ProbeSnapshot = obs.Snapshot
)

// ParseTopology parses a topology name ("complete", "cycle", "grid",
// "cliques[:k]", "regular[:d]", "powerlaw[:m]"; "" means complete) into its
// canonical Topology value.
func ParseTopology(s string) (Topology, error) { return model.ParseTopology(s) }

// The ten interaction models (Figure 1 of the paper).
const (
	TW = model.TW
	T1 = model.T1
	T2 = model.T2
	T3 = model.T3
	IT = model.IT
	IO = model.IO
	I1 = model.I1
	I2 = model.I2
	I3 = model.I3
	I4 = model.I4
)

// Omission sides.
const (
	OmissionNone    = pp.OmissionNone
	OmissionStarter = pp.OmissionStarter
	OmissionReactor = pp.OmissionReactor
	OmissionBoth    = pp.OmissionBoth
)

// Simulator is a configured wrapper protocol: it wraps a two-way protocol
// into a protocol for a weaker model and knows how to build wrapped initial
// configurations.
type Simulator struct {
	// Protocol is the wrapper protocol to hand to the engine: a
	// OneWayProtocol for the one-way models, or its TwoWayEmbedded form
	// for the two-way omissive models.
	Protocol any
	// Wrap builds the wrapped initial configuration from the simulated
	// one.
	Wrap func(Configuration) Configuration
	// Delta is δP of the simulated protocol, for verification.
	Delta verify.DeltaFunc
}

// TwoWayEmbedded converts the simulator's one-way wrapper protocol into a
// two-way protocol (fs = g, fr = f), so it can run under TW and T1–T3; see
// pp.TwoWayEmbed for the omission-hook semantics.
func (s Simulator) TwoWayEmbedded() Simulator {
	ow, ok := s.Protocol.(pp.OneWay)
	if !ok {
		return s
	}
	return Simulator{Protocol: pp.TwoWayEmbed{OW: ow}, Wrap: s.Wrap, Delta: s.Delta}
}

// SKnO returns the token/joker simulator of Section 4.1 for protocol p with
// a promised bound o on the number of omissions (Theorem 4.1; with o = 0
// under IT it is the simulator of Corollary 1).
func SKnO(p TwoWayProtocol, o int) Simulator {
	s := sim.SKnO{P: p, O: o}
	return Simulator{Protocol: s, Wrap: s.WrapConfig, Delta: p.Delta}
}

// SID returns the ID-locking simulator of Section 4.2 for protocol p
// (Theorem 4.5). Wrap assigns IDs 1..n in configuration order.
func SID(p TwoWayProtocol) Simulator {
	s := sim.SID{P: p}
	return Simulator{Protocol: s, Wrap: s.WrapConfig, Delta: p.Delta}
}

// Naming returns the Nn+SID simulator of Section 4.3 for protocol p and
// known population size n (Theorem 4.6).
func Naming(p TwoWayProtocol, n int) Simulator {
	s := sim.Naming{P: p, N: n}
	return Simulator{Protocol: s, Wrap: s.WrapConfig, Delta: p.Delta}
}

// RandomScheduler returns the seeded uniform-random scheduler (globally fair
// with probability 1).
func RandomScheduler(seed int64) Scheduler { return sched.NewRandom(seed) }

// ScriptScheduler replays a fixed run, then delegates to cont (may be nil).
func ScriptScheduler(run Run, cont Scheduler) Scheduler { return sched.NewScript(run, cont) }

// UOAdversary returns the malignant unbounded omission adversary
// (Definition 1).
func UOAdversary(seed int64, rate float64, maxBurst int, sides ...OmissionSide) Adversary {
	return adversary.NewUO(seed, rate, maxBurst, sides...)
}

// BudgetedAdversary returns a UO-style adversary inserting at most budget
// omissions — the "knowledge on omissions" promise of Section 4.1.
func BudgetedAdversary(seed int64, rate float64, budget int, sides ...OmissionSide) Adversary {
	return adversary.NewBudgeted(seed, rate, budget, sides...)
}

// NO1Adversary returns the single-omission adversary of Definition 2.
func NO1Adversary(at int, mk func(n int) Interaction) Adversary {
	return adversary.NewNO1(at, mk)
}

// SystemSpec configures a System.
type SystemSpec struct {
	// Model is the interaction model to run under.
	Model Model
	// Simulate wraps a two-way protocol for the weak model. Exactly one
	// of Simulate and Protocol must be set.
	Simulate *Simulator
	// Protocol runs a protocol natively (TwoWayProtocol for two-way
	// models, OneWayProtocol for one-way models).
	Protocol any
	// Initial is the (simulated) initial configuration.
	Initial Configuration
	// InitialCounts is the counts-native initial configuration — Count
	// agents in each State — for populations too large to materialize
	// per-agent (the batch tier's 10⁸–10⁹ operating range). Mutually
	// exclusive with Initial. A counts-native system runs on the counts
	// backend only (RunUntilCounts, NewCountsJob, RunHybridCounts): it has
	// no agent-vector engine, so the per-agent surface (Step, RunSteps,
	// RunUntil, Config, …) is unavailable and state-space
	// overflow surfaces as an error instead of degrading. Requires a native
	// Protocol: wrapped initial configurations are position-dependent
	// (SKnO's token holder, SID's per-agent IDs), so simulator systems
	// build from Initial.
	InitialCounts []CountedState
	// Seed drives the default random scheduler (and, for randomized
	// topology families, the graph construction).
	Seed int64
	// Scheduler overrides the default random scheduler. Mutually exclusive
	// with a non-complete Topology (the topology picks the scheduler).
	Scheduler Scheduler
	// Topology restricts interactions to the edges of a graph family
	// (graphical population protocols). The zero value is the complete
	// graph — exactly the historical behavior, served by the pre-existing
	// schedulers. Non-complete topologies build their graph
	// deterministically from (len(Initial), Seed) and sample uniform
	// ordered adjacent pairs; on any connected graph this scheduler is
	// globally fair with probability 1, so protocol correctness transfers
	// and only convergence time changes. Protocols whose convergence
	// argument needs complete mixing (e.g. static pairwise-elimination
	// leader election, whose two last leaders never meet unless adjacent)
	// genuinely do not terminate on sparse graphs.
	Topology Topology
	// Adversary optionally injects omissions.
	Adversary Adversary
	// MaxFastStates bounds the interned state space of the batched fast
	// path (0 = engine default, 1024). Raise it for large finite-state
	// protocols that would otherwise be kicked onto the slow path.
	MaxFastStates int
	// MaxBatchChunk caps one scheduler batch request of the fast path
	// (0 = engine default, 1024).
	MaxBatchChunk int
	// CountBatch selects the counts backend's collision-aware batch tier
	// (see BatchMode): the default BatchAuto enables batch dynamics for
	// populations of at least DefaultCountBatchN agents, BatchOn/BatchOff
	// force it. It applies to every counts-backend execution the system
	// spawns (RunUntilCounts, NewCountsJob, hybrid degrade paths); the
	// agent-vector paths ignore it.
	CountBatch BatchMode
}

// CountedState is one cell of a counts-native initial configuration:
// Count agents sharing State.
type CountedState struct {
	State State
	Count int64
}

// System is a runnable population-protocol system.
type System struct {
	eng   *engine.Engine // nil for counts-native systems (InitialCounts)
	rec   *trace.Recorder
	spec  SystemSpec
	graph *Graph // materialized topology; nil for complete

	// Counts-native initial cells (InitialCounts systems only).
	cstates []pp.State
	ccounts pp.Counts

	// probe, when armed, is handed to every engine the system drives — its
	// own agent-vector engine and the detached count/batched engines of the
	// RunUntilCounts family — so one probe follows the run across backend
	// selection and degrades.
	probe *obs.RunProbe
}

// Probe returns the system's progress probe, arming one on first call. The
// probe follows the system's runs across backends: the agent-vector engine,
// the detached counts engines behind RunUntilCounts (including their degrade
// fallbacks), and hybrid runs, all publish into it at their boundary points.
// Safe to Snapshot concurrently with a run.
func (s *System) Probe() *obs.RunProbe {
	if s.probe == nil {
		s.SetProbe(obs.NewRunProbe())
	}
	return s.probe
}

// SetProbe attaches an existing probe; nil disarms future runs (engines
// already driving keep the probe they were armed with).
func (s *System) SetProbe(probe *obs.RunProbe) {
	s.probe = probe
	if s.eng != nil {
		s.eng.SetProbe(probe)
	}
}

// ErrSpec reports an invalid SystemSpec.
var ErrSpec = errors.New("popsim: invalid system spec")

// ErrCountsOnly reports an agent-vector operation on a counts-native
// (InitialCounts) system, which runs the counts backend only.
var ErrCountsOnly = errors.New("popsim: counts-native system has no agent-vector engine")

// countsNative reports whether the system was built from InitialCounts.
func (s *System) countsNative() bool { return s.eng == nil }

// NewSystem assembles a system from a spec.
func NewSystem(spec SystemSpec) (*System, error) {
	if spec.InitialCounts != nil {
		return newCountsNativeSystem(spec)
	}
	if (spec.Simulate == nil) == (spec.Protocol == nil) {
		return nil, errors.Join(ErrSpec, errors.New("set exactly one of Simulate and Protocol"))
	}
	protocol := spec.Protocol
	initial := spec.Initial
	if spec.Simulate != nil {
		protocol = spec.Simulate.Protocol
		initial = spec.Simulate.Wrap(spec.Initial)
	}
	var graph *Graph
	sch := spec.Scheduler
	if !spec.Topology.IsComplete() {
		if sch != nil {
			return nil, errors.Join(ErrSpec, errors.New("Topology and Scheduler are mutually exclusive"))
		}
		g, err := spec.Topology.Build(len(initial), spec.Seed)
		if err != nil {
			return nil, errors.Join(ErrSpec, err)
		}
		graph = g
		sch = sched.NewEdgeRandom(g, spec.Seed)
	}
	if sch == nil {
		sch = sched.NewEdgeScheduler(nil, spec.Seed) // complete: *sched.Random itself
	}
	rec := &trace.Recorder{}
	opts := []engine.Option{engine.WithRecorder(rec)}
	if spec.Adversary != nil {
		opts = append(opts, engine.WithAdversary(spec.Adversary))
	}
	if spec.MaxFastStates > 0 || spec.MaxBatchChunk > 0 {
		opts = append(opts, engine.WithFastLimits(spec.MaxFastStates, spec.MaxBatchChunk))
	}
	eng, err := engine.New(spec.Model, protocol, initial, sch, opts...)
	if err != nil {
		return nil, err
	}
	return &System{eng: eng, rec: rec, spec: spec, graph: graph}, nil
}

// TopologyGraph returns the materialized interaction graph, or nil for the
// complete topology (which is never materialized — its schedulers sample
// pairs directly).
func (s *System) TopologyGraph() *Graph { return s.graph }

// Step applies one scheduled interaction (plus injected omissions).
func (s *System) Step() error {
	if s.countsNative() {
		return ErrCountsOnly
	}
	return s.eng.Step()
}

// RunSteps applies k scheduled interactions.
func (s *System) RunSteps(k int) error {
	if s.countsNative() {
		return ErrCountsOnly
	}
	return s.eng.RunSteps(k)
}

// StepBatch applies up to k scheduled interactions through the engine's
// dense-ID batched fast path (seed-identical to k Step calls, much cheaper
// for finite-state protocols). It returns the number of scheduled
// interactions consumed.
func (s *System) StepBatch(k int) (int, error) {
	if s.countsNative() {
		return 0, ErrCountsOnly
	}
	return s.eng.StepBatch(k)
}

// RunStepsBatch applies k scheduled interactions through the fast path,
// stopping early without error if the scheduler exhausts.
func (s *System) RunStepsBatch(k int) error {
	if s.countsNative() {
		return ErrCountsOnly
	}
	return s.eng.RunStepsBatch(k)
}

// RunUntil steps until pred holds on the *simulated* (projected)
// configuration or the horizon of scheduled interactions expires; reports
// whether pred was met. The engine stops exactly at the hitting step.
//
// pred runs once on entry and then only after interactions that change the
// simulated configuration: a simulator agent's simulated state moves only
// with a simulation event, so for the paper's simulators that is once every
// tens to hundreds of interactions, and pred must depend on the
// configuration alone. It receives a read-only view that the system keeps
// updating in place; the view is valid only during the call, so pred must
// neither keep nor mutate it (Clone it to keep a copy).
func (s *System) RunUntil(pred func(Configuration) bool, horizon int) (bool, error) {
	if s.countsNative() {
		return false, ErrCountsOnly
	}
	return s.eng.RunUntilProjected(pred, horizon)
}

// RunUntilEvery is RunUntil over the batched fast path, evaluating the
// (projected) predicate only every `every` scheduled interactions: the
// natural mode for large populations, where per-step predicate scans
// dominate the run time. The returned step count is the exact hitting time
// on the lean fast path (no adversary; the predicate-flipping chunk is
// bisected), `every`-step granular otherwise; see engine.RunUntilEvery.
func (s *System) RunUntilEvery(pred func(Configuration) bool, every, horizon int) (int, bool, error) {
	if s.countsNative() {
		return 0, false, ErrCountsOnly
	}
	return s.eng.RunUntilEvery(func(c Configuration) bool { return pred(sim.Project(c)) }, every, horizon)
}

// Config returns the raw (wrapped) configuration — nil for counts-native
// systems, whose population is never materialized per-agent (use Counts).
func (s *System) Config() Configuration {
	if s.countsNative() {
		return nil
	}
	return s.eng.Config()
}

// Projected returns the simulated configuration piP(C) — nil for
// counts-native systems (use Counts().Projected()).
func (s *System) Projected() Configuration {
	if s.countsNative() {
		return nil
	}
	return sim.Project(s.eng.Config())
}

// Steps returns the number of interactions applied by the system's own
// engine (0 for counts-native systems — counts runs are detached).
func (s *System) Steps() int {
	if s.countsNative() {
		return 0
	}
	return s.eng.Steps()
}

// Omissions returns the number of omissive interactions applied.
func (s *System) Omissions() int { return s.rec.Omissions() }

// SimulatedSteps returns the number of simulated-state update events.
func (s *System) SimulatedSteps() int { return len(s.rec.Events()) }

// VerifySimulation checks the recorded execution against the paper's
// simulation correctness notion (Definitions 3–4): it builds the event
// sequence E(Γ) and a perfect matching of simulated-state updates, with
// every pair δP-consistent. Only meaningful for systems built with
// Simulate.
func (s *System) VerifySimulation() (*VerifyReport, error) {
	if s.spec.Simulate == nil {
		return nil, errors.Join(ErrSpec, errors.New("VerifySimulation requires a simulator system"))
	}
	rep := verify.Verify(s.rec.Events(), s.spec.Initial, s.spec.Simulate.Delta)
	return rep, rep.Err()
}

// VerifySimulationStrict additionally constrains the matching so that the
// min-placement derived execution reproduces every recorded snapshot, and
// replays it under δP — a stronger guarantee than Definition 4 requires.
// SID executions always satisfy it; SKnO executions usually do, but
// protocols with one-sided identity transitions may legally fail the strict
// form while passing VerifySimulation.
func (s *System) VerifySimulationStrict() (*VerifyReport, error) {
	if s.spec.Simulate == nil {
		return nil, errors.Join(ErrSpec, errors.New("VerifySimulationStrict requires a simulator system"))
	}
	rep := verify.VerifyStrict(s.rec.Events(), s.spec.Initial, s.spec.Simulate.Delta)
	if err := rep.Err(); err != nil {
		return rep, err
	}
	if err := verify.Replay(rep, s.rec.Events(), s.spec.Initial, s.spec.Simulate.Delta); err != nil {
		return rep, err
	}
	return rep, nil
}
