package sim

import (
	"sort"
	"strconv"
	"strings"

	"popsim/internal/pp"
	"popsim/internal/verify"
)

// Mode is the simulator-protocol state of an SKnO agent.
type Mode int

// Modes.
const (
	// Available: the agent has no outstanding announcement.
	Available Mode = iota + 1
	// Pending: the agent announced its simulated state and is waiting
	// for a state-change run.
	Pending
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Available:
		return "available"
	case Pending:
		return "pending"
	default:
		return "mode?"
	}
}

// SKnO is the token-based simulator of Section 4.1 of the paper
// (Theorem 4.1): it simulates an arbitrary two-way protocol P in the
// omissive one-way models I3 and I4, provided an upper bound O on the number
// of omissions in the run. With O = 0 under the Immediate Transmission
// model, it is the simulator of Corollary 1.
//
// Mechanics: every simulated state is represented as a run of O+1 numbered
// tokens. An available agent with an empty queue announces its simulated
// state by enqueueing the run ⟨q,1⟩…⟨q,O+1⟩ and becomes pending; as a
// starter it transmits the head of its queue. A reactor enqueues what it
// receives — or a joker ⟨J⟩ when it detects an omission (model I3; in I4 the
// *starter* detects the omission and mints the joker, compensating the
// reactor's unknowing loss). An available reactor that can assemble a
// complete run for some state q (jokers acting as wildcards, with the
// "Rummy" debt rule) consumes it, applies δP(q, ·)[1], and emits a
// state-change run ⟨(q, q′),1⟩…⟨(q, q′),O+1⟩ where q′ was its own simulated
// state; a pending agent in state q that assembles such a change run applies
// δP(q, q′)[0] and becomes available again.
type SKnO struct {
	// P is the simulated two-way protocol.
	P pp.TwoWay
	// O is the promised upper bound on omissions; runs have O+1 tokens.
	O int
}

var (
	_ pp.OneWay               = SKnO{}
	_ pp.StarterOmissionAware = SKnO{}
	_ pp.ReactorOmissionAware = SKnO{}
)

// runLen returns the number of tokens per run, o+1.
func (s SKnO) runLen() int { return s.O + 1 }

// Name implements pp.OneWay.
func (s SKnO) Name() string {
	return "skno(o=" + strconv.Itoa(s.O) + ")/" + s.P.Name()
}

// Wrap builds the initial wrapped state of an agent whose simulated state is
// sim. origin is a verification-only instrumentation index (normally the
// agent's position in the initial configuration); protocol logic never
// reads it.
func (s SKnO) Wrap(sim pp.State, origin int) *SKnOState {
	return &SKnOState{
		sim:    sim,
		mode:   Available,
		origin: origin,
	}
}

// WrapConfig wraps an entire simulated initial configuration.
func (s SKnO) WrapConfig(simCfg pp.Configuration) pp.Configuration {
	out := make(pp.Configuration, len(simCfg))
	for i, st := range simCfg {
		out[i] = s.Wrap(st, i)
	}
	return out
}

// SKnOState is the wrapped state QP × QS of one SKnO agent. Values are
// immutable: all transitions operate on clones.
type SKnOState struct {
	sim     pp.State
	mode    Mode
	sending []Token
	// debt is the paper's Jokers multi-set: slot → how many jokers were
	// used as substitutes for that slot ("Rummy rule").
	debt map[string]int

	// Verification-only instrumentation: never read by transitions and
	// excluded from the canonical Key, so the interner collapses states
	// that differ only in provenance. Runs driven through the interned
	// fast path recover per-agent provenance from the run-level recorder
	// (trace.Provenance), not from these fields.
	origin    int
	gen       uint64
	lastEvent verify.Event

	// key memoizes the canonical Key: states are immutable once
	// published, so the encoding is computed at most once per state
	// instead of once per comparison. clone deliberately drops it.
	key string
}

var (
	_ Wrapped     = (*SKnOState)(nil)
	_ MemoryBytes = (*SKnOState)(nil)
)

// Simulated implements Wrapped (the projection piP).
func (a *SKnOState) Simulated() pp.State { return a.sim }

// EventSeq implements Wrapped.
func (a *SKnOState) EventSeq() uint64 { return a.gen }

// LastEvent implements Wrapped.
func (a *SKnOState) LastEvent() verify.Event { return a.lastEvent }

// Mode returns the simulator-protocol state (available/pending).
func (a *SKnOState) Mode() Mode { return a.mode }

// Queue returns a copy of the sending queue.
func (a *SKnOState) Queue() []Token { return append([]Token(nil), a.sending...) }

// DebtSize returns the total multiplicity of the Jokers debt multiset.
func (a *SKnOState) DebtSize() int {
	total := 0
	for _, c := range a.debt {
		total += c
	}
	return total
}

// Key implements pp.State. The encoding is canonical-behavioral: it covers
// exactly what the transition functions read — simulated state, mode, the
// token queue (tag-free token keys, in order) and the joker debt — and
// excludes the instrumentation fields (origin, gen, event cache). Two SKnO
// states with equal keys are behaviorally indistinguishable, which is what
// lets the interner, transition cache and counts tiers treat wrapped runs
// as a bounded state space. Memoized on first call; memoization is
// unsynchronized: first calls must not race (executions are
// single-goroutine; share states across goroutines only after keying them).
func (a *SKnOState) Key() string {
	if a.key == "" {
		a.key = a.buildKey()
	}
	return a.key
}

// CanonicalKey implements CanonicalKeyed: Key is purely behavioral.
func (a *SKnOState) CanonicalKey() {}

func (a *SKnOState) buildKey() string {
	var b strings.Builder
	size := 32 + len(a.sim.Key())
	for _, t := range a.sending {
		size += len(t.Key()) + 1
	}
	for k := range a.debt {
		size += len(k) + 8
	}
	b.Grow(size)
	b.WriteString("skno{")
	b.WriteString(a.sim.Key())
	b.WriteByte(';')
	b.WriteString(a.mode.String())
	b.WriteByte(';')
	for i, t := range a.sending {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.Key())
	}
	b.WriteByte(';')
	keys := make([]string, 0, len(a.debt))
	for k := range a.debt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('*')
		b.WriteString(strconv.Itoa(a.debt[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// MemoryBytes implements MemoryBytes: an architecture-independent proxy for
// the simulator memory (token keys plus debt entries plus mode/counters).
func (a *SKnOState) MemoryBytes() int {
	total := 16 // mode, counters
	for _, t := range a.sending {
		total += len(t.Key())
	}
	for k, c := range a.debt {
		total += len(k) + 8*c
	}
	return total
}

// clone returns a deep copy ready for mutation.
func (a *SKnOState) clone() *SKnOState {
	// key is intentionally not copied: the clone is about to be mutated.
	cp := &SKnOState{
		sim:       a.sim,
		mode:      a.mode,
		sending:   append([]Token(nil), a.sending...),
		origin:    a.origin,
		gen:       a.gen,
		lastEvent: a.lastEvent,
	}
	if len(a.debt) > 0 {
		cp.debt = make(map[string]int, len(a.debt))
		for k, v := range a.debt {
			cp.debt[k] = v
		}
	}
	return cp
}

// announceRun builds the announcement run for state q.
func (s SKnO) announceRun(q pp.State) []Token {
	run := make([]Token, 0, s.runLen())
	for i := 1; i <= s.runLen(); i++ {
		run = append(run, Token{Kind: AnnounceToken, Q: q, Idx: i}.Memoized())
	}
	return run
}

// changeRun builds the state-change run for (q, via) tagged with the
// consumption provenance tag.
func (s SKnO) changeRun(q, via pp.State, tag string) []Token {
	run := make([]Token, 0, s.runLen())
	for i := 1; i <= s.runLen(); i++ {
		run = append(run, Token{Kind: ChangeToken, Q: q, Via: via, Idx: i, Tag: tag}.Memoized())
	}
	return run
}

// transmittedToken computes the token a starter in state st transmits,
// mirroring Detect: the head of the queue after the (possible) announcement.
func (s SKnO) transmittedToken(st *SKnOState) (Token, bool) {
	if st.mode == Available && len(st.sending) == 0 {
		return Token{Kind: AnnounceToken, Q: st.sim, Idx: 1}.Memoized(), true
	}
	if len(st.sending) > 0 {
		return st.sending[0], true
	}
	return Token{}, false
}

// Detect implements pp.OneWay: the starter-side update g. If the agent is
// available with an empty queue it announces its simulated state (becoming
// pending); in any case it pops the head of its queue — the transmitted
// token.
func (s SKnO) Detect(starter pp.State) pp.State {
	a, ok := starter.(*SKnOState)
	if !ok {
		return starter
	}
	cp := a.clone()
	if cp.mode == Available && len(cp.sending) == 0 {
		cp.mode = Pending
		cp.sending = append(cp.sending, s.announceRun(cp.sim)...)
	}
	if len(cp.sending) > 0 {
		cp.sending = cp.sending[1:]
	}
	return cp
}

// React implements pp.OneWay: the reactor-side update f. The reactor reads
// the starter's transmitted token, enqueues it (with the Rummy debt rule),
// then settles: preliminary check first, then the core consumption step.
func (s SKnO) React(starter, reactor pp.State) pp.State {
	sa, ok1 := starter.(*SKnOState)
	ra, ok2 := reactor.(*SKnOState)
	if !ok1 || !ok2 {
		return reactor
	}
	cp := ra.clone()
	if tok, ok := s.transmittedToken(sa); ok {
		s.receive(cp, tok)
	}
	s.settle(cp)
	return cp
}

// OnReactorOmission implements pp.ReactorOmissionAware (model I3): the
// reactor detected an omission, so it enqueues a joker in place of the lost
// token and settles.
func (s SKnO) OnReactorOmission(reactor pp.State) pp.State {
	ra, ok := reactor.(*SKnOState)
	if !ok {
		return reactor
	}
	cp := ra.clone()
	cp.sending = append(cp.sending, jokerTok)
	s.settle(cp)
	return cp
}

// OnStarterOmission implements pp.StarterOmissionAware (model I4): the
// starter detected that the transmission failed. It keeps its queue intact
// (nothing of its own was delivered or lost — in I4 the *reactor* applies g
// and unknowingly pops a token into the void) and mints a compensating
// joker, then settles.
func (s SKnO) OnStarterOmission(starter pp.State) pp.State {
	sa, ok := starter.(*SKnOState)
	if !ok {
		return starter
	}
	cp := sa.clone()
	cp.sending = append(cp.sending, jokerTok)
	s.settle(cp)
	return cp
}

// jokerTok is the (memoized) wildcard token.
var jokerTok = Token{Kind: JokerToken}.Memoized()

// receive enqueues a received token, applying the Rummy rule: if the token's
// slot is in the debt multiset, the token is converted back into a joker and
// the debt is repaid.
func (s SKnO) receive(a *SKnOState, tok Token) {
	if tok.Kind != JokerToken {
		slot := tok.SlotKey()
		if a.debt[slot] > 0 {
			a.debt[slot]--
			if a.debt[slot] == 0 {
				delete(a.debt, slot)
			}
			a.sending = append(a.sending, jokerTok)
			return
		}
	}
	a.sending = append(a.sending, tok)
}

// settle performs the reactor-side bookkeeping of the paper: the preliminary
// check (a pending agent retracting its own-state announcement) followed by
// the core step (an available agent consuming an announcement run, or a
// pending agent consuming a state-change run).
func (s SKnO) settle(a *SKnOState) {
	// Preliminary check.
	if a.mode == Pending {
		if used, ok := s.findRun(a, func(t Token) bool {
			return t.Kind == AnnounceToken && pp.Equal(t.Q, a.sim)
		}); ok {
			s.consume(a, used)
			a.mode = Available
		}
	}
	switch a.mode {
	case Available:
		s.consumeAnnouncement(a)
	case Pending:
		s.consumeChange(a)
	}
}

// runCandidate is one assemblable run: the tokens covering each index (some
// possibly jokers).
type runCandidate struct {
	// byIdx[i-1] is the queue position of the token used for index i, or
	// -1 if a joker must substitute.
	byIdx []int
	// jokers lists the queue positions of the jokers used.
	jokers []int
	// rep is a representative real token of the run (defines Q/Via/Tag).
	rep Token
	// key orders candidates deterministically.
	key string
}

// findRun tries to assemble a complete run (indices 1..o+1) from queue
// tokens matching the filter, using jokers as wildcards for missing indices.
// It returns the queue positions of all o+1 used tokens.
func (s SKnO) findRun(a *SKnOState, match func(Token) bool) ([]int, bool) {
	cands := s.candidates(a, match)
	if len(cands) == 0 {
		return nil, false
	}
	best := cands[0]
	used := make([]int, 0, s.runLen())
	used = append(used, best.jokers...)
	for _, pos := range best.byIdx {
		if pos >= 0 {
			used = append(used, pos)
		}
	}
	// Record joker debt for the substituted slots.
	for i, pos := range best.byIdx {
		if pos < 0 {
			slot := Token{Kind: best.rep.Kind, Q: best.rep.Q, Via: best.rep.Via, Idx: i + 1, Tag: best.rep.Tag}.SlotKey()
			if a.debt == nil {
				a.debt = make(map[string]int)
			}
			a.debt[slot]++
		}
	}
	return used, true
}

// candidates enumerates assemblable runs among tokens matching the filter,
// cheapest (fewest jokers) first, ties broken by run key. Runs are grouped
// by their content identity: (kind, Q) for announcements, (kind, Q, Via) for
// change runs — tags of change tokens may mix across consumptions, as in the
// paper, where tokens of equal (q, q′, i) are indistinguishable.
func (s SKnO) candidates(a *SKnOState, match func(Token) bool) []runCandidate {
	type group struct {
		byIdx []int
		rep   Token
	}
	groups := make(map[string]*group)
	jokers := make([]int, 0, 4)
	for pos, t := range a.sending {
		if t.Kind == JokerToken {
			jokers = append(jokers, pos)
			continue
		}
		if !match(t) {
			continue
		}
		gk := groupKey(t)
		g := groups[gk]
		if g == nil {
			g = &group{byIdx: make([]int, s.runLen())}
			for i := range g.byIdx {
				g.byIdx[i] = -1
			}
			g.rep = t
			groups[gk] = g
		}
		if t.Idx >= 1 && t.Idx <= s.runLen() && g.byIdx[t.Idx-1] < 0 {
			g.byIdx[t.Idx-1] = pos
		}
	}
	out := make([]runCandidate, 0, len(groups))
	for gk, g := range groups {
		missing := 0
		for _, pos := range g.byIdx {
			if pos < 0 {
				missing++
			}
		}
		if missing > len(jokers) {
			continue
		}
		out = append(out, runCandidate{
			byIdx:  g.byIdx,
			jokers: append([]int(nil), jokers[:missing]...),
			rep:    g.rep,
			key:    gk,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].jokers) != len(out[j].jokers) {
			return len(out[i].jokers) < len(out[j].jokers)
		}
		return out[i].key < out[j].key
	})
	return out
}

// groupKey is the content identity of a token's run.
func groupKey(t Token) string {
	switch t.Kind {
	case AnnounceToken:
		return "A:" + t.Q.Key()
	case ChangeToken:
		return "C:" + t.Q.Key() + ">" + t.Via.Key()
	default:
		return "J"
	}
}

// consume removes the tokens at the given queue positions.
func (s SKnO) consume(a *SKnOState, positions []int) {
	drop := make(map[int]bool, len(positions))
	for _, p := range positions {
		drop[p] = true
	}
	kept := a.sending[:0]
	for pos, t := range a.sending {
		if !drop[pos] {
			kept = append(kept, t)
		}
	}
	a.sending = kept
}

// consumeAnnouncement is the core step for available agents: assemble a
// complete announcement run for some state q, apply δP(q, ·)[1], and emit
// the state-change run.
func (s SKnO) consumeAnnouncement(a *SKnOState) {
	cands := s.candidates(a, func(t Token) bool { return t.Kind == AnnounceToken })
	if len(cands) == 0 {
		return
	}
	best := cands[0]
	q := best.rep.Q
	used := make([]int, 0, s.runLen())
	used = append(used, best.jokers...)
	for i, pos := range best.byIdx {
		if pos >= 0 {
			used = append(used, pos)
			continue
		}
		slot := Token{Kind: AnnounceToken, Q: q, Idx: i + 1}.SlotKey()
		if a.debt == nil {
			a.debt = make(map[string]int)
		}
		a.debt[slot]++
	}
	s.consume(a, used)

	pre := a.sim
	_, post := s.P.Delta(q, pre)
	a.gen++
	tag := strconv.Itoa(a.origin) + "." + strconv.FormatUint(a.gen, 10)
	a.sim = post
	a.lastEvent = verify.Event{
		Seq:        a.gen,
		Role:       verify.SimReactor,
		Pre:        pre,
		Post:       post,
		PartnerPre: q,
		Tag:        tag,
	}
	a.sending = append(a.sending, s.changeRun(q, pre, tag)...)
}

// consumeChange is the core step for pending agents: assemble a complete
// state-change run addressed to the agent's simulated state and complete the
// simulated interaction with δP(q, q′)[0].
func (s SKnO) consumeChange(a *SKnOState) {
	used, ok := s.findRun(a, func(t Token) bool {
		return t.Kind == ChangeToken && pp.Equal(t.Q, a.sim)
	})
	if !ok {
		return
	}
	// Identify the run's content before removal.
	var rep Token
	for _, pos := range used {
		if a.sending[pos].Kind == ChangeToken {
			rep = a.sending[pos]
			break
		}
	}
	s.consume(a, used)
	if rep.Kind != ChangeToken {
		// All-jokers runs carry no content; refuse (cannot happen with
		// o+1 ≥ 1 real token per run and at most o jokers, but guard
		// against a hostile mix).
		return
	}
	pre := a.sim
	post, _ := s.P.Delta(pre, rep.Via)
	a.gen++
	a.sim = post
	a.mode = Available
	a.lastEvent = verify.Event{
		Seq:        a.gen,
		Role:       verify.SimStarter,
		Pre:        pre,
		Post:       post,
		PartnerPre: rep.Via,
		Tag:        rep.Tag,
	}
}
