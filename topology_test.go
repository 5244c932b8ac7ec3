package popsim_test

import (
	"errors"
	"testing"

	popsim "popsim"
	"popsim/internal/pp"
	"popsim/internal/protocols"
)

func mustTopology(t testing.TB, name string) popsim.Topology {
	t.Helper()
	topo, err := popsim.ParseTopology(name)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestTopologyCompletePinFacade: a spec that names the complete topology
// explicitly IS the historical system — same scheduler stream, same
// trajectory, interaction for interaction.
func TestTopologyCompletePinFacade(t *testing.T) {
	build := func(topo popsim.Topology) *popsim.System {
		sys, err := popsim.NewSystem(popsim.SystemSpec{
			Model:    popsim.TW,
			Protocol: protocols.Majority{},
			Initial:  protocols.MajorityConfig(40, 24),
			Seed:     7,
			Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	legacy := build(popsim.Topology{})           // zero value: the pre-topology spec
	pinned := build(mustTopology(t, "complete")) // explicit complete
	if g := pinned.TopologyGraph(); g != nil {
		t.Fatalf("complete topology materialized a graph (n=%d)", g.N())
	}
	for _, s := range []*popsim.System{legacy, pinned} {
		if err := s.RunStepsBatch(20000); err != nil {
			t.Fatal(err)
		}
	}
	a, b := legacy.Config(), pinned.Config()
	for i := range a {
		if !pp.Equal(a[i], b[i]) {
			t.Fatalf("explicit complete diverged from historical behavior at agent %d", i)
		}
	}
}

// TestTopologyEndToEnd: every non-complete family runs through the facade and
// the (graph-correct) OR epidemic converges on it.
func TestTopologyEndToEnd(t *testing.T) {
	const n = 64
	for _, name := range []string{"cycle", "grid", "cliques:4", "regular:4", "powerlaw:3"} {
		t.Run(name, func(t *testing.T) {
			sys, err := popsim.NewSystem(popsim.SystemSpec{
				Model:    popsim.TW,
				Protocol: protocols.Or{},
				Initial:  protocols.OrConfig(n, 1),
				Seed:     3,
				Topology: mustTopology(t, name),
			})
			if err != nil {
				t.Fatal(err)
			}
			if g := sys.TopologyGraph(); g == nil || g.N() != n {
				t.Fatalf("no topology graph attached")
			}
			_, ok, err := sys.RunUntilEvery(func(c popsim.Configuration) bool {
				return protocols.OrConverged(c, protocols.One)
			}, 500, 5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("OR epidemic did not converge on %s", name)
			}
		})
	}
}

// TestTopologyWalkProtocols: the walking-token protocols are graph-correct —
// they stabilize on a cycle where their static counterparts freeze.
func TestTopologyWalkProtocols(t *testing.T) {
	const n = 32
	t.Run("walkmajority", func(t *testing.T) {
		sys, err := popsim.NewSystem(popsim.SystemSpec{
			Model:    popsim.TW,
			Protocol: protocols.WalkMajority{},
			Initial:  protocols.WalkMajorityConfig(20, 12),
			Seed:     5,
			Topology: mustTopology(t, "cycle"),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := sys.RunUntilEvery(func(c popsim.Configuration) bool {
			return protocols.WalkMajorityConverged(c, "A")
		}, 1000, 20_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("walking majority did not stabilize to A on the cycle")
		}
	})
	t.Run("walkleader", func(t *testing.T) {
		sys, err := popsim.NewSystem(popsim.SystemSpec{
			Model:    popsim.TW,
			Protocol: protocols.WalkLeader{},
			Initial:  protocols.LeaderConfig(n),
			Seed:     5,
			Topology: mustTopology(t, "cycle"),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := sys.RunUntilEvery(protocols.LeaderElected, 1000, 20_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("walking leader election did not stabilize on the cycle")
		}
	})
}

// TestTopologyCountsRouting: RunUntilCounts only picks the O(|Q|) counts
// backend for the complete topology; any graph routes to the quenched batched
// edge-sampling engine, whatever the population size.
func TestTopologyCountsRouting(t *testing.T) {
	const n = popsim.DefaultCountsBackendN // large enough for the counts arm
	run := func(topo popsim.Topology) *popsim.CountsRunResult {
		sys, err := popsim.NewSystem(popsim.SystemSpec{
			Model:    popsim.TW,
			Protocol: protocols.Or{},
			Initial:  protocols.OrConfig(n, n/2),
			Seed:     1,
			Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunUntilCounts(func(*popsim.StateCounts) bool { return false }, 1000, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(popsim.Topology{}); res.Backend != "counts" {
		t.Fatalf("complete at n=%d: backend %q, want counts", n, res.Backend)
	}
	if res := run(mustTopology(t, "cycle")); res.Backend != "batched" {
		t.Fatalf("cycle at n=%d: backend %q, want batched (quenched)", n, res.Backend)
	}
}

// TestTopologySchedulerExclusive: Topology and a custom Scheduler cannot be
// combined.
func TestTopologySchedulerExclusive(t *testing.T) {
	_, err := popsim.NewSystem(popsim.SystemSpec{
		Model:     popsim.TW,
		Protocol:  protocols.Or{},
		Initial:   protocols.OrConfig(16, 1),
		Seed:      1,
		Scheduler: popsim.RandomScheduler(1),
		Topology:  mustTopology(t, "cycle"),
	})
	if !errors.Is(err, popsim.ErrSpec) {
		t.Fatalf("Topology+Scheduler: err = %v, want ErrSpec", err)
	}
}
