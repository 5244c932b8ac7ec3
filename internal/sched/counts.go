package sched

// Count-level scheduling: instead of picking two agent *indices* per
// interaction (Random.Next on the dense ID vector), CountScheduler picks two
// agent *states* per interaction directly from the configuration-vector
// counts, so the execution backend never touches per-agent storage at all.
// This is the sampling layer of the counts backend (engine.CountEngine),
// after Berenbrink et al., "Simulating Population Protocols in Sub-Constant
// Time per Interaction" (arXiv:2005.03584): once agents are exchangeable and
// states interned, the count process is itself a Markov chain and can be
// driven in O(log |Q|) work per interaction with O(|Q|) observation.
//
// # Sampling model and statistical-equivalence argument
//
// The sequential uniform-random scheduler induces, on the counts vector, the
// exact chain
//
//	P(starter state = q1, reactor state = q2 | counts c) =
//	    c[q1] · (c[q2] − [q1 = q2]) / (n · (n−1)),
//
// i.e. draw the starter's state with probability proportional to its count,
// remove one agent of that state, then draw the reactor's state from the
// remaining counts. CountScheduler realizes exactly this pair of
// without-replacement draws against an "available agents" pool:
//
//   - Exact mode (BlockLen == 1, the small-n fallback): the pool mirrors the
//     live counts — the backend returns every applied transition's results
//     through ApplyDelta — so the sampled process IS the sequential count
//     chain, equal in distribution to the agent-vector execution for every
//     finite run. This is the per-pair fallback the backend uses below
//     its population threshold.
//
//   - Block mode (BlockLen B > 1, the large-n fast path): the pool is
//     reloaded from the live counts only every B interactions; within a
//     block, the 2B draws come without replacement from the block-start
//     counts and transition results enter the pool only at the next reload.
//     This is the collision-free block dynamics of the batched simulators:
//     it differs from the exact chain only when an interaction would have
//     re-selected an agent already consumed in the current block and met its
//     *post*-transition state instead of its block-start state. With
//     B ≤ √n/2 the expected number of such collisions is at most
//     (2B)²/(2n) ≤ 1/2 per block — a per-interaction perturbation
//     probability of O(1/√n), vanishing exactly in the regime where the
//     block mode is selected and far below the epoch-local mixing loss the
//     hybrid runner's statistical-equivalence contract already tolerates.
//     The counts-vs-batched equivalence suite (internal/engine) pins final
//     count and convergence-step distributions for every protocol × model.
//
// Negative counts are impossible by construction: a block consumes at most
// its pool (≤ the block-start count of every state), and production only
// ever increments.
//
// # Pool representations
//
// The without-replacement pool has three representations, chosen per reload
// by the width of the state space and the mode:
//
//   - Block mode, |Q| ≤ smallPoolMax (64 — the overwhelmingly common case):
//     a plain weights array (poolScan), one O(|Q|) copy per reload, sampled
//     by a fully inlined branchless prefix scan with one 64-bit draw per
//     pair — the innermost loop of the counts backend, all of it in one or
//     two L1 lines with no function calls.
//
//   - |Q| ≤ flatPoolMax (256): a flat cumulative array (flatPool), rebuilt
//     in one O(|Q|) pass per reload. Draws locate the u-th weight unit
//     branchlessly — a full-array comparison count below smallPoolMax
//     states, a branchless binary search above it — and keep the array
//     cumulative with an O(|Q|) suffix decrement. This pool serves exact
//     mode for every narrow space and the 65–256-state block band.
//
//   - Wider state spaces (rare: wrapped simulators with heavy tails), or
//     populations of 2³¹ or more agents in block mode (where the one-draw
//     pair reduction below would lose its bias bound): a Fenwick tree
//     (fenwick) with O(log |Q|) point updates and inverse-cumulative
//     search — the structure the flat tiers replace in the common case,
//     retained only where the state space is too wide for suffix updates to
//     stay cheap.
//
// All representations realize the same inverse-CDF draw — entry i is
// selected by the u-th weight unit iff prefix(i−1) ≤ u < prefix(i) — so the
// choice is invisible in distribution; for equal draw indices it is
// invisible byte for byte (the flat-vs-Fenwick identity test pins this).
//
// # Stream contract
//
// CountScheduler draws from the SplitMix64 Stream family, like the hybrid
// runner's workers and unlike the sequential schedulers' lagged-Fibonacci
// ring: count-level executions are a distinct execution mode with a
// statistical (not replay) equivalence contract, so they use the generator
// family reserved for such modes. The derivation is pinned:
//
//	CountScheduler(seed) draws from SplitStream(seed, CountStreamIndex)
//
// (drained through a block-filled BufStream — byte-identical by the
// stream-identity contract) with CountStreamIndex below the hybrid's
// worker indexes (CountStreamIndex+1+w), so a counts run never shares a
// stream with any worker of a hybrid run on the same seed. Executions are deterministic per
// (seed, BlockLen) and invariant under chunking: pool state persists across
// Block calls, so consuming k pairs in any call pattern yields the identical
// pair sequence.
const CountStreamIndex = 1 << 30

// CountPair is one sampled ordered interaction at the state level: the
// starter's and reactor's interned state IDs.
type CountPair struct {
	S, R uint32
}

// poolKind names the active without-replacement pool representation.
type poolKind uint8

const (
	poolNone    poolKind = iota
	poolScan             // weights array, |Q| ≤ smallPoolMax, block mode only
	poolFlat             // flat cumulative array, |Q| ≤ flatPoolMax
	poolFenwick          // Fenwick tree, wide state spaces
)

const (
	// flatPoolMax is the state-space width up to which the pool is a flat
	// cumulative array instead of a Fenwick tree. 256 × 8 B = 2 KiB — four
	// L1 lines per 64 states — so even the widest flat pool's suffix
	// updates beat two tree descents of scattered loads.
	flatPoolMax = 256
	// smallPoolMax is the width up to which flat draws scan the whole
	// cumulative array (branchless comparison count) instead of binary
	// searching: for the handful-of-states protocols the backend mostly
	// runs, ≤64 independent comparisons resolve in fewer cycles than
	// log₂|Q| dependent probe steps.
	smallPoolMax = 64
)

// CountScheduler samples ordered (starter, reactor) state pairs from a
// counts vector, without replacement against a pool that reloads every
// BlockLen interactions (see the package comment above for the exact
// semantics of the two modes). Not safe for concurrent use.
type CountScheduler struct {
	rng      BufStream
	blockLen int
	sinceRel int // pairs sampled since the last pool reload
	kind     poolKind
	flat     flatPool
	pool     fenwick
	avail    []int64 // poolScan weights, mirroring block-start counts
	availTot int64   // Σ avail
	buf      []CountPair
	draws    []uint64 // block-fill scratch for the one-draw-per-pair paths
}

// NewCountScheduler returns a scheduler drawing from the documented stream
// of seed. blockLen ≤ 1 selects exact mode; the caller is responsible for
// keeping the pool synchronized through ApplyDelta in that mode.
func NewCountScheduler(seed int64, blockLen int) *CountScheduler {
	if blockLen < 1 {
		blockLen = 1
	}
	return &CountScheduler{
		rng:      NewBufStream(SplitStream(seed, CountStreamIndex)),
		blockLen: blockLen,
	}
}

// BlockLen returns the pool-reload cadence (1 = exact mode).
func (cs *CountScheduler) BlockLen() int { return cs.blockLen }

// BlockRemaining returns how many pairs remain until the next pool-reload
// boundary (0 when the scheduler is exactly at one). Exact mode is always at
// a boundary: its pool mirrors the live counts, so every position is fully
// determined by (counts, stream state).
func (cs *CountScheduler) BlockRemaining() int {
	if cs.blockLen <= 1 || cs.sinceRel == 0 {
		return 0
	}
	return cs.blockLen - cs.sinceRel
}

// StreamState returns the logical SplitMix64 state at the scheduler's current
// draw position — with BlockRemaining() == 0 it is, together with the live
// counts vector and BlockLen, the scheduler's complete state: at a block
// boundary the pool is a pure function of the counts (the next Block call
// reloads it), so ResumeCountScheduler(StreamState(), BlockLen()) continues
// the identical pair sequence. This is what makes counts-backend checkpoints
// O(|Q|): the whole sampler position is one uint64.
func (cs *CountScheduler) StreamState() uint64 { return cs.rng.Snapshot() }

// ResumeCountScheduler reconstructs a scheduler from a StreamState value
// captured at a block boundary. The pool starts unloaded and is rebuilt from
// the caller's counts on the first Block call — exactly what an uninterrupted
// scheduler does at every boundary, so the resumed pair sequence is
// byte-identical (the checkpoint determinism tests in internal/engine pin
// this end to end).
func ResumeCountScheduler(state uint64, blockLen int) *CountScheduler {
	if blockLen < 1 {
		blockLen = 1
	}
	return &CountScheduler{
		rng:      ResumeBufStream(state),
		blockLen: blockLen,
	}
}

// reload rebuilds the pool from counts, choosing the representation. Block
// mode prefers the scan pool for the narrowest spaces (its fused inline
// sampling needs nothing but a weights copy), then the flat cumulative
// array up to flatPoolMax; both one-draw-per-pair paths require a 31-bit
// population total — beyond it the multiply-shift pair reduction would lose
// its bias bound (< total/2³², far below the statistical-equivalence
// tolerance) and the Fenwick path's exact per-draw rejection sampling takes
// over. Exact mode draws by Intn, so only the width matters there.
func (cs *CountScheduler) reload(counts []int64) {
	if cs.blockLen > 1 && len(counts) <= smallPoolMax {
		cs.avail = append(cs.avail[:0], counts...)
		cs.availTot = 0
		for _, v := range counts {
			cs.availTot += v
		}
		if cs.availTot < 1<<31 {
			cs.kind = poolScan
			return
		}
	}
	if len(counts) <= flatPoolMax {
		cs.flat.load(counts)
		if cs.blockLen == 1 || cs.flat.total() < 1<<31 {
			cs.kind = poolFlat
			return
		}
	}
	cs.pool.load(counts)
	cs.kind = poolFenwick
}

// Block samples up to max ordered state pairs from counts, stopping at the
// next pool-reload boundary (so len(result) ≤ BlockLen and the absolute
// boundaries are invariant under chunking). The returned slice is owned by
// the scheduler and valid until the next Block call; it is empty only for
// max ≤ 0 or a population of fewer than two agents.
//
// In exact mode the caller must report every applied transition's result
// states through ApplyDelta before the next Block call; in block mode counts
// are only read at reload boundaries.
func (cs *CountScheduler) Block(counts []int64, max int) []CountPair {
	if max <= 0 {
		return nil
	}
	if cs.blockLen > 1 {
		return cs.blockSampled(counts, max)
	}
	// Exact mode never reloads once primed: ApplyDelta keeps pool == counts
	// incrementally (a reload would be correct but O(|Q|) per interaction).
	if cs.kind == poolNone || cs.poolTotal() < 2 || cs.poolSize() < len(counts) {
		cs.reload(counts)
		if cs.poolTotal() < 2 {
			return nil
		}
	}
	if cap(cs.buf) < 1 {
		cs.buf = make([]CountPair, 1)
	}
	var s, r uint32
	if cs.kind == poolFlat {
		s = cs.flat.draw(int64(cs.rng.Intn(int(cs.flat.total()))))
		r = cs.flat.draw(int64(cs.rng.Intn(int(cs.flat.total()))))
	} else {
		s = cs.pool.draw(cs.rng.Intn(int(cs.pool.total)))
		r = cs.pool.draw(cs.rng.Intn(int(cs.pool.total)))
	}
	cs.buf = cs.buf[:1]
	cs.buf[0] = CountPair{S: s, R: r}
	return cs.buf
}

// blockSampled is Block's B > 1 mode: pairs come without replacement from a
// pool reloaded every BlockLen pairs. Flat pools take one 64-bit draw per
// pair — each 32-bit half maps onto the remaining pool by multiply-shift,
// the same reduction the edge sampler uses, with the same contract: bias
// < total/2³², far below the statistical-equivalence tolerance. Fenwick
// pools use exact per-draw rejection sampling.
func (cs *CountScheduler) blockSampled(counts []int64, max int) []CountPair {
	// Reload only at block boundaries (and on a drained pool, which is
	// deterministic): states minted mid-block are production-only until the
	// next boundary, by the block semantics — reloading on state-space
	// growth here would move the boundary and break chunking invariance.
	if cs.sinceRel == 0 || cs.poolTotal() < 2 {
		cs.reload(counts)
		cs.sinceRel = 0
		if cs.poolTotal() < 2 {
			return nil
		}
	}
	k := cs.blockLen - cs.sinceRel
	if k > max {
		k = max
	}
	// The pool only drains in block mode: keep two agents per drawn pair.
	if avail := int(cs.poolTotal() / 2); k > avail {
		k = avail
	}
	if cap(cs.buf) < k {
		cs.buf = make([]CountPair, k)
	}
	buf := cs.buf[:k]
	switch cs.kind {
	case poolScan:
		// The innermost loop of the counts backend. One draw per pair at
		// fixed consumption, so the whole run of draws is block-filled in
		// a single sweep up front; the pair sampling itself is fused
		// inline — two branchless scans over the L1-resident weights and
		// two O(1) decrements, no function calls anywhere.
		if cap(cs.draws) < k {
			cs.draws = make([]uint64, k)
		}
		draws := cs.draws[:k]
		cs.rng.Fill(draws)
		avail, total := cs.avail, cs.availTot
		if len(avail) <= 4 {
			// Register band: the canonical protocols (majority, leader
			// election, OR) have 2–4 states, so the whole pool fits in
			// four locals and the sampling loop touches no memory at all
			// beyond the prefetched draws and the output buffer — the
			// loop-carried chain is a handful of ALU ops instead of a
			// store-to-load round trip per draw. Zero-weight padding
			// entries replicate the total and are never selected (every
			// u is strictly below it).
			var a0, a1, a2, a3 int64
			n := len(avail)
			a0 = avail[0]
			if n > 1 {
				a1 = avail[1]
			}
			if n > 2 {
				a2 = avail[2]
			}
			if n > 3 {
				a3 = avail[3]
			}
			for i, x := range draws {
				us := int64((uint64(uint32(x)) * uint64(total)) >> 32)
				c1 := a0
				c2 := c1 + a1
				c3 := c2 + a2
				// s counts cumulative sums ≤ u; the full sum never
				// qualifies (u < total), so three compares suffice.
				s := 3 - uint32(uint64(us-c1)>>63) - uint32(uint64(us-c2)>>63) - uint32(uint64(us-c3)>>63)
				m := uint32(1) << s
				a0 -= int64(m & 1)
				a1 -= int64((m >> 1) & 1)
				a2 -= int64((m >> 2) & 1)
				a3 -= int64((m >> 3) & 1)
				total--
				ur := int64(((x >> 32) * uint64(total)) >> 32)
				c1 = a0
				c2 = c1 + a1
				c3 = c2 + a2
				r := 3 - uint32(uint64(ur-c1)>>63) - uint32(uint64(ur-c2)>>63) - uint32(uint64(ur-c3)>>63)
				m = uint32(1) << r
				a0 -= int64(m & 1)
				a1 -= int64((m >> 1) & 1)
				a2 -= int64((m >> 2) & 1)
				a3 -= int64((m >> 3) & 1)
				total--
				buf[i] = CountPair{S: s, R: r}
			}
			avail[0] = a0
			if n > 1 {
				avail[1] = a1
			}
			if n > 2 {
				avail[2] = a2
			}
			if n > 3 {
				avail[3] = a3
			}
		} else {
			for i, x := range draws {
				us := int64((uint64(uint32(x)) * uint64(total)) >> 32)
				var s, r uint32
				var c int64
				for _, v := range avail {
					c += v
					s += 1 - uint32(uint64(us-c)>>63) // +1 when us ≥ c
				}
				avail[s]--
				total--
				ur := int64(((x >> 32) * uint64(total)) >> 32)
				c = 0
				for _, v := range avail {
					c += v
					r += 1 - uint32(uint64(ur-c)>>63)
				}
				avail[r]--
				total--
				buf[i] = CountPair{S: s, R: r}
			}
		}
		cs.availTot = total
	case poolFlat:
		// Same one-draw reduction against the cumulative array's
		// branchless binary search (the 65–256-state band).
		if cap(cs.draws) < k {
			cs.draws = make([]uint64, k)
		}
		draws := cs.draws[:k]
		cs.rng.Fill(draws)
		for i, x := range draws {
			buf[i] = cs.flat.pair(x)
		}
	default:
		for i := range buf {
			s := cs.pool.draw(cs.rng.Intn(int(cs.pool.total)))
			r := cs.pool.draw(cs.rng.Intn(int(cs.pool.total)))
			buf[i] = CountPair{S: s, R: r}
		}
	}
	cs.sinceRel += k
	if cs.sinceRel >= cs.blockLen {
		cs.sinceRel = 0
	}
	return buf
}

// poolTotal returns the remaining agents in whichever pool is active.
func (cs *CountScheduler) poolTotal() int64 {
	switch cs.kind {
	case poolScan:
		return cs.availTot
	case poolFlat:
		return cs.flat.total()
	}
	return cs.pool.total
}

// poolSize returns the width of whichever pool is active.
func (cs *CountScheduler) poolSize() int {
	switch cs.kind {
	case poolScan:
		return len(cs.avail)
	case poolFlat:
		return len(cs.flat.cum)
	}
	return cs.pool.size
}

// ApplyDelta restores one applied transition's two result states into the
// pool (exact mode only — the two consumed input states were removed by the
// draws themselves, so pool == live counts is maintained incrementally). In
// block mode it is a no-op: results enter the pool at the next reload.
func (cs *CountScheduler) ApplyDelta(ns, nr uint32) {
	if cs.blockLen > 1 {
		return
	}
	if cs.kind == poolFlat {
		// A state minted past the flat width grows the array transiently;
		// the next Block call's size check reloads, re-choosing the
		// representation for the wider space.
		cs.flat.grow(int(ns) + 1)
		cs.flat.grow(int(nr) + 1)
		cs.flat.add(ns, 1)
		cs.flat.add(nr, 1)
		return
	}
	cs.pool.grow(int(ns) + 1)
	cs.pool.grow(int(nr) + 1)
	cs.pool.add(ns, 1)
	cs.pool.add(nr, 1)
}

// flatPool is the narrow-state-space without-replacement pool: a flat
// cumulative array over the conceptual weights, cum[i] = Σ weights[0..i], so
// cum[len−1] is the live total and entry i holds weight units
// [cum[i−1], cum[i]). Draws locate the u-th unit branchlessly and keep the
// array cumulative with an O(|Q|) suffix decrement — at ≤ flatPoolMax
// entries the whole structure is a few L1 lines, so the "heavier" suffix
// update is cheaper than a Fenwick descent's dependent scattered probes.
type flatPool struct {
	cum []int64
	p2  int // largest power of two ≤ len(cum), the binary search's top step
}

// load rebuilds the cumulative array from weights in O(len(weights)).
func (f *flatPool) load(weights []int64) {
	if cap(f.cum) < len(weights) {
		f.cum = make([]int64, len(weights))
	}
	f.cum = f.cum[:len(weights)]
	var c int64
	for i, w := range weights {
		c += w
		f.cum[i] = c
	}
	f.p2 = 1
	for f.p2*2 <= len(f.cum) {
		f.p2 *= 2
	}
}

// total returns the remaining weight (the last cumulative sum).
func (f *flatPool) total() int64 {
	if len(f.cum) == 0 {
		return 0
	}
	return f.cum[len(f.cum)-1]
}

// grow extends the array to cover at least n weights (new weights zero: the
// appended entries replicate the final cumulative sum).
func (f *flatPool) grow(n int) {
	t := f.total()
	for len(f.cum) < n {
		f.cum = append(f.cum, t)
	}
	for f.p2*2 <= len(f.cum) {
		f.p2 *= 2
	}
}

// add adjusts weight i by d — a suffix update, keeping the array cumulative.
func (f *flatPool) add(i uint32, d int64) {
	for j := int(i); j < len(f.cum); j++ {
		f.cum[j] += d
	}
}

// draw finds the entry holding the u-th unit of weight (0 ≤ u < total),
// removes one unit of it, and returns its index: the count s of cumulative
// sums ≤ u — zero-weight entries replicate their predecessor's sum and are
// skipped by the strict bound — followed by a suffix decrement from s.
func (f *flatPool) draw(u int64) uint32 {
	cum := f.cum
	if len(cum) <= smallPoolMax {
		// Scan tier: every comparison reads a precomputed sum, so they are
		// mutually independent — unlike a weights scan, there is no
		// loop-carried prefix accumulation — and the decrement pass is a
		// masked subtract with a constant trip count: no data-dependent
		// branches anywhere for the predictor to miss.
		var s uint32
		for _, c := range cum {
			s += 1 - uint32(uint64(u-c)>>63) // +1 when u ≥ c, i.e. c ≤ u
		}
		for j := range cum {
			// −1 exactly on the suffix j ≥ s: the shift smears the sign of
			// j−s into an all-ones mask for j < s, clearing the subtrahend.
			cum[j] -= 1 &^ ((int64(j) - int64(s)) >> 63)
		}
		return s
	}
	// Search tier: branchless binary search for the count of sums ≤ u
	// (invariant cum[s−1] ≤ u), then a plain suffix decrement.
	var s int
	for step := f.p2; step > 0; step >>= 1 {
		if n := s + step; n <= len(cum) && cum[n-1] <= u {
			s = n
		}
	}
	for j := s; j < len(cum); j++ {
		cum[j]--
	}
	return uint32(s)
}

// pair draws one ordered without-replacement pair from a single 64-bit draw:
// each 32-bit half maps onto the remaining total by multiply-shift (callers
// guarantee total < 2³¹, so the bias is < total/2³²). The suffix decrement
// inside draw keeps cum[len−1] equal to the live total between the halves.
func (f *flatPool) pair(x uint64) CountPair {
	t := uint64(f.cum[len(f.cum)-1])
	s := f.draw(int64((uint64(uint32(x)) * t) >> 32))
	r := f.draw(int64(((x >> 32) * (t - 1)) >> 32))
	return CountPair{S: s, R: r}
}

// fenwick is a binary-indexed tree over non-negative int64 weights,
// supporting O(log size) point updates and inverse-cumulative search — the
// wide-state-space without-replacement pool of CountScheduler. Entry i of
// the conceptual weight array lives at tree position i+1.
type fenwick struct {
	tree  []int64
	size  int   // number of weights
	cap2  int   // power-of-two ≥ size, the search's top bit
	total int64 // sum of all weights
}

// load rebuilds the tree from weights in O(len(weights)).
func (f *fenwick) load(weights []int64) {
	n := len(weights)
	if cap(f.tree) < n+1 {
		f.tree = make([]int64, n+1)
	}
	f.tree = f.tree[:n+1]
	f.size = n
	f.cap2 = 1
	for f.cap2 < n {
		f.cap2 <<= 1
	}
	f.total = 0
	for i := range f.tree {
		f.tree[i] = 0
	}
	for i, w := range weights {
		f.tree[i+1] += w
		if p := (i + 1) + ((i + 1) & -(i + 1)); p <= n {
			f.tree[p] += f.tree[i+1]
		}
		f.total += w
	}
}

// grow extends the tree to cover at least n weights (new weights zero),
// preserving existing prefix sums. Runs only on state-space growth — rare by
// definition — so it favors clarity: each new node i is rebuilt bottom-up
// from the identity tree[i] = w_i + Σ tree[i−2^j] for 2^j < lsb(i), with the
// new leaf weight w_i = 0 and every referenced node already final (indices
// below i).
func (f *fenwick) grow(n int) {
	if n <= f.size {
		return
	}
	for len(f.tree) < n+1 {
		f.tree = append(f.tree, 0)
	}
	old := f.size
	f.size = n
	for f.cap2 < n {
		f.cap2 <<= 1
	}
	for i := old + 1; i <= n; i++ {
		f.tree[i] = 0
		lsb := i & -i
		for j := 1; j < lsb; j <<= 1 {
			f.tree[i] += f.tree[i-j]
		}
	}
}

// add adjusts entry i by d.
func (f *fenwick) add(i uint32, d int64) {
	f.total += d
	for j := int(i) + 1; j <= f.size; j += j & -j {
		f.tree[j] += d
	}
}

// draw finds the entry holding the u-th unit of weight (0 ≤ u < total),
// removes one unit of it, and returns its index.
func (f *fenwick) draw(u int) uint32 {
	target := int64(u)
	pos := 0
	for step := f.cap2; step > 0; step >>= 1 {
		next := pos + step
		if next <= f.size && f.tree[next] <= target {
			target -= f.tree[next]
			pos = next
		}
	}
	// pos is the largest index with prefix(pos) ≤ u, so entry pos holds it.
	f.add(uint32(pos), -1)
	return uint32(pos)
}
