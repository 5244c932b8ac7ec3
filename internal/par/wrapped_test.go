package par_test

import (
	"errors"
	"strings"
	"testing"

	"popsim/internal/model"
	"popsim/internal/par"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sim"
	"popsim/internal/verify"
)

// TestHybridStateSpaceErrorContext: both ErrStateSpace sites — construction
// and mid-run — share one wording carrying the protocol name and where the
// bound was hit.
func TestHybridStateSpaceErrorContext(t *testing.T) {
	// Construction site: SID's n unique IDs exceed a tiny bound immediately.
	s := sim.SID{P: protocols.Majority{}}
	wrapped := s.WrapConfig(protocols.MajorityConfig(40, 24))
	_, err := par.NewHybrid(model.IO, s, wrapped, 1, par.HybridOptions{Shards: 2, MaxStates: 16})
	if !errors.Is(err, par.ErrStateSpace) {
		t.Fatalf("construction err = %v, want ErrStateSpace", err)
	}
	for _, want := range []string{s.Name(), "initial configuration"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("construction error %q misses %q", err, want)
		}
	}

	// Mid-run site: SKnO starts from 2 distinct states and mints more.
	sk := sim.SKnO{P: protocols.Pairing{}, O: 0}
	hr, err := par.NewHybrid(model.IT, sk, sk.WrapConfig(protocols.PairingConfig(16, 16)), 1,
		par.HybridOptions{Shards: 2, MaxStates: 16})
	if err != nil {
		t.Fatalf("construction: %v", err)
	}
	err = hr.RunSteps(1_000_000)
	if !errors.Is(err, par.ErrStateSpace) {
		t.Fatalf("mid-run err = %v, want ErrStateSpace", err)
	}
	for _, want := range []string{sk.Name(), "worker "} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mid-run error %q misses %q", err, want)
		}
	}
}

// TestHybridRejectsNonCanonicalWrapped: wrapped states without the
// canonical-key marker cannot be interned; construction must say so rather
// than thrash.
func TestHybridRejectsNonCanonicalWrapped(t *testing.T) {
	cfg := pp.Configuration{ncState{}, ncState{}, ncState{}, ncState{}}
	_, err := par.NewHybrid(model.IO, ncProto{}, cfg, 1, par.HybridOptions{Shards: 2})
	if !errors.Is(err, par.ErrHybrid) {
		t.Fatalf("err = %v, want ErrHybrid", err)
	}
	if !strings.Contains(err.Error(), "canonical") {
		t.Fatalf("error %q does not explain the canonical-key requirement", err)
	}
}

// ncState / ncProto: a minimal non-canonical wrapped protocol.
type ncState struct{}

func (ncState) Key() string             { return "nc" }
func (ncState) Simulated() pp.State     { return nil }
func (ncState) EventSeq() uint64        { return 0 }
func (ncState) LastEvent() verify.Event { return verify.Event{} }

type ncProto struct{}

func (ncProto) Name() string                 { return "nc" }
func (ncProto) Detect(s pp.State) pp.State   { return s }
func (ncProto) React(s, r pp.State) pp.State { return r }
