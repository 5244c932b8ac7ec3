package popsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"popsim/internal/engine"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sim"
	"popsim/internal/verify"
)

// The projected RunUntil evaluates its predicate only after interactions
// that changed the simulated configuration. These tests hold it to the
// reference loop it replaces — Step, then pred(sim.Project(Config())) after
// every step — and pin the simulator contract the gate relies on.

// untilScenario is one system to run both ways; build returns a fresh spec
// (adversaries are stateful, so each run gets its own).
type untilScenario struct {
	name  string
	build func(seed int64) SystemSpec
}

var untilSeeds = []int64{1, 2, 3}

func untilScenarios() []untilScenario {
	maj := protocols.Majority{}
	majority := func(n int) Configuration { return protocols.MajorityConfig(3*n/4, n-3*n/4) }
	simulated := func(m Model, s Simulator, n int) func(int64) SystemSpec {
		return func(seed int64) SystemSpec {
			if !m.OneWay() {
				s = s.TwoWayEmbedded()
			}
			return SystemSpec{Model: m, Simulate: &s, Initial: majority(n), Seed: seed}
		}
	}
	return []untilScenario{
		{"skno-o0-IT", simulated(IT, SKnO(maj, 0), 24)},
		{"skno-o2-I3-budgeted", func(seed int64) SystemSpec {
			spec := simulated(I3, SKnO(maj, 2), 8)(seed)
			spec.Adversary = BudgetedAdversary(seed+1, 0.02, 2)
			return spec
		}},
		{"sid-IO", simulated(IO, SID(maj), 12)},
		{"naming-IO", simulated(IO, Naming(maj, 10), 10)},
		{"native-majority-TW", func(seed int64) SystemSpec {
			return SystemSpec{Model: TW, Protocol: maj, Initial: majority(32), Seed: seed}
		}},
	}
}

func majorityDone(c Configuration) bool { return protocols.MajorityConverged(c, "A") }

// referenceRunUntil is the loop System.RunUntil replaces: a step, then the
// predicate on a fresh projection, after every scheduled interaction.
func referenceRunUntil(s *System, pred func(Configuration) bool, horizon int) (bool, error) {
	if pred(sim.Project(s.Config())) {
		return true, nil
	}
	for i := 0; i < horizon; i++ {
		if err := s.Step(); err != nil {
			if errors.Is(err, engine.ErrExhausted) {
				return pred(sim.Project(s.Config())), nil
			}
			return false, err
		}
		if pred(sim.Project(s.Config())) {
			return true, nil
		}
	}
	return false, nil
}

// sameRun fails t unless the two systems ended identically: steps, omissions,
// the recorded events, the raw configuration and the verification outcome.
func sameRun(t *testing.T, got, want *System) {
	t.Helper()
	if got.Steps() != want.Steps() {
		t.Fatalf("Steps() = %d, reference %d", got.Steps(), want.Steps())
	}
	if got.Omissions() != want.Omissions() {
		t.Fatalf("Omissions() = %d, reference %d", got.Omissions(), want.Omissions())
	}
	if !reflect.DeepEqual(got.rec.Events(), want.rec.Events()) {
		t.Fatalf("recorded events differ: %d vs reference %d", len(got.rec.Events()), len(want.rec.Events()))
	}
	if got.Config().Key() != want.Config().Key() {
		t.Fatal("final configurations differ")
	}
	if want.spec.Simulate == nil {
		return
	}
	gr, gerr := got.VerifySimulation()
	wr, werr := want.VerifySimulation()
	if (gerr == nil) != (werr == nil) || len(gr.Pairs) != len(wr.Pairs) {
		t.Fatalf("VerifySimulation: %v with %d pairs, reference %v with %d", gerr, len(gr.Pairs), werr, len(wr.Pairs))
	}
	if gerr != nil {
		t.Fatalf("VerifySimulation: %v", gerr)
	}
}

func TestRunUntilMatchesStepwiseReference(t *testing.T) {
	const horizon = 2_000_000
	for _, sc := range untilScenarios() {
		for _, seed := range untilSeeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				got, err := NewSystem(sc.build(seed))
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewSystem(sc.build(seed))
				if err != nil {
					t.Fatal(err)
				}
				calls := 0
				ok, err := got.RunUntil(func(c Configuration) bool { calls++; return majorityDone(c) }, horizon)
				if err != nil {
					t.Fatal(err)
				}
				wok, werr := referenceRunUntil(want, majorityDone, horizon)
				if werr != nil {
					t.Fatalf("reference: %v", werr)
				}
				if !ok || !wok {
					t.Fatalf("met = %v, reference %v; want both true", ok, wok)
				}
				sameRun(t, got, want)
				// The gate: a wrapped run checks at most once per simulated
				// event, plus once on entry; a native one after every step.
				limit := got.SimulatedSteps() + 1
				if got.spec.Simulate == nil {
					limit = got.Steps() + 1
				}
				if calls > limit {
					t.Errorf("%d predicate calls for %d steps and %d events", calls, got.Steps(), got.SimulatedSteps())
				}
				t.Logf("hit at step %d: %d events, %d omissions, %d predicate calls", got.Steps(), got.SimulatedSteps(), got.Omissions(), calls)
			})
		}
	}
}

func TestRunUntilEdgeCases(t *testing.T) {
	never := func(Configuration) bool { return false }
	for _, sc := range untilScenarios() {
		spec := sc.build(untilSeeds[0])
		t.Run(sc.name+"/true-on-entry", func(t *testing.T) {
			s, err := NewSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			ok, err := s.RunUntil(func(Configuration) bool { calls++; return true }, 100)
			if err != nil || !ok || s.Steps() != 0 || calls != 1 {
				t.Fatalf("ok=%v err=%v steps=%d calls=%d, want a hit at step 0 after one call", ok, err, s.Steps(), calls)
			}
		})
		t.Run(sc.name+"/horizon", func(t *testing.T) {
			got, _ := NewSystem(sc.build(untilSeeds[0]))
			want, _ := NewSystem(sc.build(untilSeeds[0]))
			ok, err := got.RunUntil(never, 500)
			wok, werr := referenceRunUntil(want, never, 500)
			if err != nil || werr != nil || ok || wok {
				t.Fatalf("ok=%v err=%v, reference ok=%v err=%v", ok, err, wok, werr)
			}
			sameRun(t, got, want)
		})
		t.Run(sc.name+"/script-exhausts", func(t *testing.T) {
			// A scripted run of 3000 interactions, then nothing: both loops
			// meet the first-event predicate mid-script, and stop unmet on
			// the exhausted scheduler with the never-true one.
			probe, _ := NewSystem(sc.build(untilSeeds[0]))
			n := len(probe.Config())
			random := RandomScheduler(untilSeeds[0])
			script := make(Run, 3000)
			for i := range script {
				script[i], _ = random.Next(n)
			}
			for _, c := range []struct {
				pred func(Configuration) bool
				met  bool
			}{{never, false}, {firstEvent(probe), true}} {
				build := func() *System {
					spec := sc.build(untilSeeds[0])
					spec.Scheduler = ScriptScheduler(script, nil)
					s, err := NewSystem(spec)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				got, want := build(), build()
				ok, err := got.RunUntil(c.pred, 5000)
				wok, werr := referenceRunUntil(want, c.pred, 5000)
				if err != nil || werr != nil || ok != c.met || wok != c.met {
					t.Fatalf("ok=%v err=%v, reference ok=%v err=%v; want met=%v", ok, err, wok, werr, c.met)
				}
				sameRun(t, got, want)
			}
		})
	}
}

// firstEvent returns a predicate that holds once the projection differs from
// s's initial one — met at the first simulated event (or, natively, at the
// first state change).
func firstEvent(s *System) func(Configuration) bool {
	initial := sim.Project(s.Config()).Key()
	return func(c Configuration) bool { return c.Key() != initial }
}

// TestSimulatedChangeForwardsEvent pins the contract the predicate gate
// relies on (sim.Wrapped): across all three simulators, adversary injections
// included, a step that changes an agent's simulated state also forwards a
// simulation event for that agent.
func TestSimulatedChangeForwardsEvent(t *testing.T) {
	for _, sc := range untilScenarios() {
		for _, seed := range untilSeeds {
			s, err := NewSystem(sc.build(seed))
			if err != nil {
				t.Fatal(err)
			}
			if s.spec.Simulate == nil {
				continue
			}
			before := keys(sim.Project(s.Config()))
			changes := 0
			for step := 0; step < 20_000; step++ {
				seen := len(s.rec.Events())
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				after := keys(sim.Project(s.Config()))
				for agent := range after {
					if after[agent] == before[agent] {
						continue
					}
					changes++
					if !hasEventFor(s.rec.Events()[seen:], agent) {
						t.Fatalf("%s seed %d step %d: agent %d's simulated state went %s → %s with no event",
							sc.name, seed, s.Steps(), agent, before[agent], after[agent])
					}
				}
				before = after
			}
			if changes == 0 {
				t.Fatalf("%s seed %d: no simulated state changed in 20000 steps", sc.name, seed)
			}
		}
	}
}

func keys(c pp.Configuration) []string {
	out := make([]string, len(c))
	for i, s := range c {
		out[i] = s.Key()
	}
	return out
}

func hasEventFor(events []verify.Event, agent int) bool {
	for _, ev := range events {
		if ev.Agent == agent {
			return true
		}
	}
	return false
}
