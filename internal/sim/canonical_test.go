package sim

// The canonical-key property suite. It lives inside package sim (unlike the
// black-box *_test.go files) because the property under test is about the
// split between behavioral fields and instrumentation fields, which only
// this package can name: two wrapped states must intern to the same dense ID
// if and only if they are behaviorally indistinguishable — same mode,
// simulated state and token/pairing content — regardless of the
// verification-only provenance (origin, gen, tags, event caches) they
// accumulated along the way.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/verify"
)

// behavioralSig computes a state's behavioral signature through a second,
// independent encoding of the behavioral fields (it never calls Key or
// Token.Key, so a bug that leaks provenance into those encodings cannot hide
// here). It returns ok=false for non-wrapped states.
func behavioralSig(s pp.State) (string, bool) {
	switch a := s.(type) {
	case *SKnOState:
		toks := make([]string, len(a.sending))
		for i, t := range a.sending {
			toks[i] = fmt.Sprintf("%d/%s/%s/%d", t.Kind, stKey(t.Q), stKey(t.Via), t.Idx)
		}
		debts := make([]string, 0, len(a.debt))
		for k, v := range a.debt {
			debts = append(debts, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(debts)
		return fmt.Sprintf("skno|%d|%s|%s|%s",
			a.mode, stKey(a.sim), strings.Join(toks, ","), strings.Join(debts, ",")), true
	case *SIDState:
		return fmt.Sprintf("sid|%d|%s|%d|%d|%s",
			a.id, stKey(a.sim), a.mode, a.otherID, stKey(a.otherSim)), true
	case *NamingState:
		inner := ""
		if a.inner != nil {
			inner, _ = behavioralSig(a.inner)
		}
		return fmt.Sprintf("nam|%d|%d|%d|%s|%s",
			a.myID, a.maxID, a.n, stKey(a.sim), inner), true
	}
	return "", false
}

func stKey(s pp.State) string {
	if s == nil {
		return "<nil>"
	}
	return s.Key()
}

// scrambleProvenance returns a copy of s with every instrumentation field
// rewritten to junk — origins, generation counters, event caches, token tags,
// lock tags — leaving the behavioral fields untouched.
func scrambleProvenance(s pp.State, rng *rand.Rand) pp.State {
	junkEv := verify.Event{Seq: rng.Uint64(), Tag: "junk", Role: verify.SimStarter}
	switch a := s.(type) {
	case *SKnOState:
		cp := a.clone()
		cp.origin = rng.Intn(1 << 16)
		cp.gen = rng.Uint64()
		cp.lastEvent = junkEv
		for i := range cp.sending {
			if cp.sending[i].Kind == ChangeToken {
				cp.sending[i].Tag = fmt.Sprintf("junk%d", rng.Intn(100))
			}
		}
		return cp
	case *SIDState:
		cp := a.clone()
		cp.gen = rng.Uint64()
		cp.lastEvent = junkEv
		if cp.mode == SIDLocked {
			cp.lockTag = fmt.Sprintf("junk%d", rng.Intn(100))
		}
		return cp
	case *NamingState:
		cp := a.clone()
		if cp.inner != nil {
			cp.inner = scrambleProvenance(cp.inner, rng).(*SIDState)
		}
		return cp
	}
	return s
}

// mutateBehavior returns a copy of s with one behavioral field changed (the
// negative direction of the iff), or ok=false when the state offers no
// applicable mutation.
func mutateBehavior(s pp.State, rng *rand.Rand) (pp.State, bool) {
	switch a := s.(type) {
	case *SKnOState:
		cp := a.clone()
		switch rng.Intn(3) {
		case 0:
			if cp.mode == Available {
				cp.mode = Pending
			} else {
				cp.mode = Available
			}
		case 1:
			cp.sending = append(cp.sending, Token{Kind: JokerToken}.Memoized())
		default:
			if cp.debt == nil {
				cp.debt = make(map[string]int)
			}
			cp.debt["A:zz:1"]++
		}
		return cp, true
	case *SIDState:
		cp := a.clone()
		switch rng.Intn(2) {
		case 0:
			cp.id += 1000
		default:
			cp.otherID += 1000
		}
		return cp, true
	case *NamingState:
		cp := a.clone()
		if cp.inner != nil {
			inner, ok := mutateBehavior(cp.inner, rng)
			if !ok {
				return nil, false
			}
			cp.inner = inner.(*SIDState)
			return cp, true
		}
		cp.maxID++
		return cp, true
	}
	return nil, false
}

// history drives cfg through `steps` random IO/IT-style interactions of the
// one-way protocol ow (reactor reads the starter's pre-state; the starter
// then applies Detect), injecting reactor-side omissions at `omRate` when
// the protocol detects them. It returns every intermediate state it saw.
func history(ow pp.OneWay, cfg pp.Configuration, steps int, omRate float64, rng *rand.Rand) []pp.State {
	seen := make([]pp.State, 0, steps*2)
	n := len(cfg)
	roa, hasOm := ow.(pp.ReactorOmissionAware)
	for i := 0; i < steps; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		if hasOm && rng.Float64() < omRate {
			cfg[b] = roa.OnReactorOmission(cfg[b])
		} else {
			pre := cfg[a]
			cfg[b] = ow.React(pre, cfg[b])
			cfg[a] = ow.Detect(pre)
		}
		seen = append(seen, cfg[a], cfg[b])
	}
	return seen
}

// TestCanonicalKeyIffBehavioral is the tentpole property: across random
// interaction histories of all three simulators, any two sampled wrapped
// states intern to the same dense ID iff their behavioral signatures agree —
// and every state keys identically to a provenance-scrambled copy of itself,
// while single behavioral mutations always change the key.
func TestCanonicalKeyIffBehavioral(t *testing.T) {
	cases := []struct {
		name   string
		ow     pp.OneWay
		cfg    func() pp.Configuration
		omRate float64
	}{
		{"skno-o0", SKnO{P: protocols.Pairing{}, O: 0},
			func() pp.Configuration {
				return SKnO{P: protocols.Pairing{}, O: 0}.WrapConfig(protocols.PairingConfig(3, 3))
			}, 0},
		{"skno-o1", SKnO{P: protocols.Majority{}, O: 1},
			func() pp.Configuration {
				return SKnO{P: protocols.Majority{}, O: 1}.WrapConfig(protocols.MajorityConfig(3, 2))
			}, 0.05},
		{"sid", SID{P: protocols.Majority{}},
			func() pp.Configuration {
				return SID{P: protocols.Majority{}}.WrapConfig(protocols.MajorityConfig(3, 3))
			}, 0},
		{"naming", Naming{P: protocols.Or{}, N: 5},
			func() pp.Configuration { return Naming{P: protocols.Or{}, N: 5}.WrapConfig(protocols.OrConfig(5, 2)) }, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				states := history(c.ow, c.cfg(), 400, c.omRate, rng)

				// Sample pairs: interned IDs must agree exactly when the
				// independent behavioral signatures agree.
				in := pp.NewInterner()
				type sample struct {
					id  uint32
					sig string
				}
				samples := make([]sample, 0, 200)
				for i := 0; i < 200 && i < len(states); i++ {
					s := states[rng.Intn(len(states))]
					sig, ok := behavioralSig(s)
					if !ok {
						t.Fatalf("non-wrapped state %T in history", s)
					}
					samples = append(samples, sample{id: in.Intern(s), sig: sig})
				}
				for i := 0; i < len(samples); i++ {
					for j := i + 1; j < len(samples); j++ {
						sameID := samples[i].id == samples[j].id
						sameSig := samples[i].sig == samples[j].sig
						if sameID != sameSig {
							t.Fatalf("seed %d: interned sameID=%v but sameSig=%v\nsig_i=%s\nsig_j=%s",
								seed, sameID, sameSig, samples[i].sig, samples[j].sig)
						}
					}
				}

				// Provenance invariance and behavioral sensitivity per state.
				for i := 0; i < 50; i++ {
					s := states[rng.Intn(len(states))]
					scr := scrambleProvenance(s, rng)
					if s.Key() != scr.Key() {
						t.Fatalf("seed %d: provenance leaked into Key:\n%s\n%s", seed, s.Key(), scr.Key())
					}
					if in.Intern(s) != in.Intern(scr) {
						t.Fatalf("seed %d: provenance variants interned differently", seed)
					}
					if mut, ok := mutateBehavior(s, rng); ok {
						if s.Key() == mut.Key() {
							t.Fatalf("seed %d: behavioral mutation left Key unchanged: %s", seed, s.Key())
						}
					}
				}
			}
		})
	}
}

// TestCanonicalMarkers: all three simulator state types declare the
// canonical-key contract, and Canonicalized accepts exactly configurations
// made of them (plus non-wrapped states).
func TestCanonicalMarkers(t *testing.T) {
	var (
		_ CanonicalKeyed = (*SKnOState)(nil)
		_ CanonicalKeyed = (*SIDState)(nil)
		_ CanonicalKeyed = (*NamingState)(nil)
	)
	skno := SKnO{P: protocols.Pairing{}, O: 1}
	cfg := skno.WrapConfig(protocols.PairingConfig(2, 2))
	if !Canonicalized(cfg) {
		t.Fatal("simulator configuration not recognized as canonical")
	}
	if !Canonicalized(protocols.PairingConfig(2, 2)) {
		t.Fatal("native configuration must be trivially canonical")
	}
	if Canonicalized(pp.Configuration{fakeWrapped{}}) {
		t.Fatal("non-canonical wrapped state accepted")
	}
}

// fakeWrapped is a Wrapped state without the canonical-key marker.
type fakeWrapped struct{}

func (fakeWrapped) Key() string             { return "fake" }
func (fakeWrapped) Simulated() pp.State     { return nil }
func (fakeWrapped) EventSeq() uint64        { return 0 }
func (fakeWrapped) LastEvent() verify.Event { return verify.Event{} }
