// Package sim contains the two-way protocol simulators of Section 4 of the
// paper, i.e. wrapper protocols that convert an arbitrary two-way protocol P
// into a protocol running on a weaker interaction model:
//
//   - SKnO (skno.go): the token/joker simulator of Section 4.1 for the
//     omissive one-way models I3 and I4, assuming a known upper bound o on
//     the number of omissions (Theorem 4.1). With o = 0 it is the
//     Immediate-Transmission simulator of Corollary 1.
//   - SID (sid.go): the ID-locking simulator of Section 4.2 for the
//     Immediate Observation model, assuming unique IDs (Theorem 4.5).
//   - Nn (naming.go): the naming protocol of Section 4.3 that, given
//     knowledge of n, assigns unique IDs and then hands over to SID
//     (Theorem 4.6).
//
// A simulator's local states live in QP × QS (Section 2.4): each wrapped
// state carries the simulated state (recovered by the projection piP, here
// the Simulated method) plus simulator bookkeeping.
package sim

import (
	"popsim/internal/pp"
	"popsim/internal/verify"
)

// Wrapped is the state of an agent running a simulator: simulated state plus
// simulator memory. Projection (piP of Section 2.4) is the Simulated method.
//
// Event plumbing: every transition that updates the simulated state bumps
// EventSeq and stores the event (without Index/Agent, which only the engine
// knows). The engine detects the bump and forwards the completed event to
// the trace recorder, which assigns the run-level provenance (per-agent Seq
// and Tag — see trace.Provenance); the state-carried Seq/Tag are exact only
// in direct, un-interned use and are treated as a debugging aid.
type Wrapped interface {
	pp.State
	// Simulated returns piP(state): the simulated protocol state.
	Simulated() pp.State
	// EventSeq returns the number of simulated-state updates this agent
	// has performed.
	EventSeq() uint64
	// LastEvent returns the event generated by the most recent update.
	// Only meaningful when EventSeq() > 0.
	LastEvent() verify.Event
}

// CanonicalKeyed marks wrapped states whose Key is canonical-behavioral: the
// encoding covers exactly what the simulator's transition functions read
// (mode, simulated state, token/pairing content) and excludes all
// verification-only provenance (origin indices, generation counters, tags).
//
// This is the state-identity contract the interned fast paths rely on: two
// CanonicalKeyed states with equal keys are behaviorally indistinguishable,
// so the interner sees a bounded state space for bounded-content simulators
// and cached transitions apply to every provenance variant of a state pair.
// The engine's batched path and the counts tiers only accept wrapped
// configurations whose states implement this interface; other Wrapped
// implementations stay on the stepwise path, where per-state provenance is
// exact and no event is lost. All simulators in this package are canonical.
type CanonicalKeyed interface {
	Wrapped
	// CanonicalKey is a marker method declaring the Key() contract above.
	CanonicalKey()
}

// AnyWrapped reports whether c contains at least one wrapped simulator
// state. Execution paths use it to pick state-space defaults: wrapped
// behavioral state spaces plateau far above typical finite-protocol sizes.
func AnyWrapped(c pp.Configuration) bool {
	for _, s := range c {
		if _, ok := s.(Wrapped); ok {
			return true
		}
	}
	return false
}

// Canonicalized reports whether every wrapped state of c declares the
// canonical-behavioral key contract (non-wrapped states are trivially
// canonical: their keys are their behavior). Interned execution paths call
// this before mirroring a configuration as dense IDs.
func Canonicalized(c pp.Configuration) bool {
	for _, s := range c {
		if _, wrapped := s.(Wrapped); !wrapped {
			continue
		}
		if _, ok := s.(CanonicalKeyed); !ok {
			return false
		}
	}
	return true
}

// Aux bits for transition caches (model.AuxFunc): whether the starter-side
// and/or reactor-side result of a transition advanced its simulation-event
// sequence. Batch loops branch on the memoized byte instead of inspecting
// states; the corresponding event content travels in the cache's payload
// channel (see TransitionEvents).
const (
	AuxStarterEvent uint8 = 1 << 0
	AuxReactorEvent uint8 = 1 << 1
)

// EventAux is the model.AuxFunc companion of TransitionEvents: the aux bits
// of one applied transition.
func EventAux(s, r, ns, nr pp.State) uint8 {
	var aux uint8
	if eventAdvanced(s, ns) {
		aux |= AuxStarterEvent
	}
	if eventAdvanced(r, nr) {
		aux |= AuxReactorEvent
	}
	return aux
}

// eventAdvanced reports whether after's event sequence moved past before's.
func eventAdvanced(before, after pp.State) bool {
	wa, ok := after.(Wrapped)
	if !ok {
		return false
	}
	var prev uint64
	if wb, ok := before.(Wrapped); ok {
		prev = wb.EventSeq()
	}
	return wa.EventSeq() != prev
}

// EventPair is the memoizable simulation-event payload of one transition
// (s, r) → (ns, nr): the starter-side and reactor-side events, nil when that
// side did not advance its simulated state. The event content — Role, Pre,
// Post, PartnerPre — is behavioral (equal for every provenance variant of
// the same canonical transition), so caches may store one EventPair per
// distinct state pair; the per-run fields (Index, Agent, Seq, Tag) are
// filled in by the consumer at emission time.
type EventPair struct {
	Starter, Reactor *verify.Event
}

// TransitionEvents extracts the memoizable event payload of one applied
// transition, or nil when neither side advanced. Used as the transition
// cache's payload function by the engine's batched path, replacing per-state LastEvent reads (which are only exact on
// un-interned states).
func TransitionEvents(s, r, ns, nr pp.State) *EventPair {
	se := sideEvent(s, ns)
	re := sideEvent(r, nr)
	if se == nil && re == nil {
		return nil
	}
	return &EventPair{Starter: se, Reactor: re}
}

// EventPayload is TransitionEvents adapted to the transition cache's
// payload-function signature (model.PayloadFunc). The indirection matters:
// returning a nil *EventPair directly would store a typed-nil inside the
// cache's any-valued payload map, which compares non-nil as an interface —
// this helper returns the untyped nil the cache treats as "no payload".
// The engine's batched path installs this.
func EventPayload(s, r, ns, nr pp.State) any {
	if p := TransitionEvents(s, r, ns, nr); p != nil {
		return p
	}
	return nil
}

// sideEvent returns a copy of after's last event if its event sequence
// advanced past before's, with the run-specific fields cleared.
func sideEvent(before, after pp.State) *verify.Event {
	wa, ok := after.(Wrapped)
	if !ok {
		return nil
	}
	var prev uint64
	if wb, ok := before.(Wrapped); ok {
		prev = wb.EventSeq()
	}
	if wa.EventSeq() == prev {
		return nil
	}
	ev := wa.LastEvent()
	ev.Index, ev.Agent, ev.Seq, ev.Tag = 0, 0, 0, ""
	return &ev
}

// Project maps a configuration of wrapped states to the configuration of
// simulated states, i.e. piP applied pointwise. Non-wrapped states map to
// themselves, so Project is safe on mixed configurations.
func Project(c pp.Configuration) pp.Configuration {
	out := make(pp.Configuration, len(c))
	for i, s := range c {
		out[i] = ProjectState(s)
	}
	return out
}

// ProjectState is piP on one state: the simulated state of a wrapped state,
// the state itself otherwise.
func ProjectState(s pp.State) pp.State {
	if w, ok := s.(Wrapped); ok {
		return w.Simulated()
	}
	return s
}

// MemoryBytes is implemented by wrapped states that can report the
// (approximate) size in bytes of their simulator bookkeeping, used by the
// memory-overhead experiments of Theorem 4.1 and Corollary 1.
type MemoryBytes interface {
	MemoryBytes() int
}

// StateMemory returns the approximate simulator memory of a state, or 0 if
// the state does not report it.
func StateMemory(s pp.State) int {
	if m, ok := s.(MemoryBytes); ok {
		return m.MemoryBytes()
	}
	return 0
}

// ConfigMemory sums StateMemory over a configuration.
func ConfigMemory(c pp.Configuration) int {
	total := 0
	for _, s := range c {
		total += StateMemory(s)
	}
	return total
}
