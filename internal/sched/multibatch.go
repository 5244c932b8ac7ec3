// BatchScheduler: collision-aware aggregate interaction sampling over a
// counts vector — the full MultiBatched dynamics of Berenbrink et al.
// (arXiv:2005.03584), of which CountScheduler's √n/2 collision-free blocks
// are the warm-up act.
//
// The sequential uniform scheduler picks an ordered pair of distinct agents
// per interaction, independent of state. Partition that interaction sequence
// greedily into RUNS: a run is the maximal prefix in which every chosen
// agent is distinct, terminated by the first COLLISION interaction (one that
// re-selects an agent the run already used). Because agent selection never
// looks at state, the decomposition is exact, not approximate:
//
//   - The run length L follows the birthday-problem law
//     P(L ≥ ℓ) = ∏_{j<ℓ} (n−2j)(n−2j−1)/(n(n−1)),
//     inverted here by a running product against one uniform (E[L] ≈ 0.63·√n).
//   - The 2L distinct agents of a run are a uniform sample without
//     replacement, so their states are multivariate-hypergeometric in the
//     pre-run counts; the starter/reactor split of that sample is a uniform
//     L-subset, and the starter→reactor matching is a uniform bijection —
//     each step sampled exactly by HypSampler in O(|Q|²) conditional draws.
//     The run is applied as an aggregate state-pair matrix: sub-constant
//     work per interaction, since a run of Θ(√n) pairs costs O(|Q|²)
//     sampler draws plus ~3 float ops per pair for the length inversion.
//   - The collision interaction is resolved individually: conditioned on
//     terminating the run, its endpoints are uniform over ordered distinct
//     pairs with at least one endpoint among the 2L used agents. A used
//     endpoint's state is uniform over the used agents' POST-run states
//     (each used agent appeared in exactly one run pair, so its state is
//     that pair's output — the caller supplies the post multiset); a fresh
//     endpoint's state is uniform over counts − used.
//
// Once a run (and its collision) is applied, the updated counts vector is a
// complete summary — agents are exchangeable, so the next run starts fresh.
// No collision bookkeeping survives a run boundary, which is also what makes
// any run boundary a checkpoint: the scheduler's whole state is one
// SplitMix64 position (StreamState/ResumeBatchScheduler), exactly like
// CountScheduler's contract.
//
// Determinism: the pinned stream family is CountStreamIndex — the same
// stream the block sampler uses, consumed in a different order; batch mode
// is a DISTINCT execution mode, deterministic per seed, statistically
// equivalent to (never byte-identical with) the block and exact modes.
// Expansion of a run into an ordered pair sequence (needed when a caller
// truncates a run mid-way, and for exact hitting-time replay) shuffles with
// a side stream derived by mixing the run's start state — a pure function of
// the run, consuming nothing from the main stream, so expanding or not
// expanding never changes the trajectory.
package sched

import (
	"math/bits"

	"popsim/internal/pp"
)

// batchShuffleSalt decorrelates the expansion side stream from the main
// draw stream (an arbitrary odd constant, fixed forever).
const batchShuffleSalt = 0x7C159E3779B97F4A

// BatchCell is one aggregated cell of a run's state-pair matrix: M ordered
// interactions with starter state S and reactor state R.
type BatchCell struct {
	S, R uint32
	M    int64
}

// BatchRun is one sampled collision-free run: L interactions aggregated into
// Cells, terminated by one collision interaction the caller must resolve via
// CollidePair after applying the cells. The struct is reused by the next
// NextRun call; consume it first.
type BatchRun struct {
	Cells []BatchCell
	L     int64
	start uint64 // main-stream state at run start, keys the expansion shuffle
	n     int64
}

// BatchScheduler samples aggregate interaction runs over a counts vector for
// a population of n exchangeable agents. Obtain one with NewBatchScheduler;
// not safe for concurrent use.
type BatchScheduler struct {
	rng    BufStream
	n      int64
	invNN1 float64 // 1/(n(n−1)), precomputed once
	// surv[i] = P(run length ≥ i+1), the cumulative birthday-law survival
	// products, precomputed once per n so the per-run length inversion is a
	// binary search instead of an O(L) product walk (E[L] ≈ 0.63·√n — the
	// walk dominated the whole scheduler above n ≈ 10⁷). survFull records
	// that the table reaches the hard support bound (f < 2); otherwise the
	// astronomically rare u below surv[len-1] falls back to extending the
	// product sequentially, preserving the exact law.
	surv     []float64
	survFull bool
	hyp      HypSampler
	run      BatchRun
	h, s     []int64 // scratch: used-sample and starter-split state vectors
	r        []int64 // scratch: reactor pool

	// Lifetime draw tallies (RunStats) for progress reporting. They track
	// this scheduler instance only: a scheduler rebuilt from a StreamState
	// snapshot restarts them at zero, so callers that rewind (the engine's
	// exact-hitting replay) keep their own counters instead.
	statRuns       int64
	statRunLen     int64
	statCollisions int64
}

// NewBatchScheduler returns the batch sampler for a population of n agents
// (n ≥ 2), drawing from the documented count stream of seed
// (SplitStream(seed, CountStreamIndex), the family CountScheduler pins).
func NewBatchScheduler(seed int64, n int) *BatchScheduler {
	return newBatchScheduler(NewBufStream(SplitStream(seed, CountStreamIndex)), n)
}

// NewBatchSchedulerAt returns a batch sampler for a population of n agents
// drawing from SplitStream(seed, stream). The counts hybrid pins one
// stream per worker slice (CountStreamIndex+1+w, with CountStreamIndex+1+P
// reserved for the exchange deal), so P concurrent samplers never share draw
// positions and the whole run stays a pure function of (seed, P).
func NewBatchSchedulerAt(seed int64, stream, n int) *BatchScheduler {
	return newBatchScheduler(NewBufStream(SplitStream(seed, stream)), n)
}

// ResumeBatchScheduler reconstructs a batch sampler from a StreamState
// snapshot: the resumed draw sequence is byte-identical to what the
// snapshotted scheduler would have produced next. Snapshots are only valid
// at run boundaries (the engine's Checkpoint fills to one).
func ResumeBatchScheduler(state uint64, n int) *BatchScheduler {
	return newBatchScheduler(ResumeBufStream(state), n)
}

func newBatchScheduler(rng BufStream, n int) *BatchScheduler {
	nf := float64(n)
	nn1 := nf * (nf - 1)
	bs := &BatchScheduler{rng: rng, n: int64(n), invNN1: 1 / nn1}
	bs.buildSurv()
	return bs
}

// buildSurv precomputes the survival table surv[i] = P(L ≥ i+1) by the same
// product recurrence the sequential inversion used (identical operation
// order, so the extension fallback continues it bit-exactly). The table is
// sized ~4·√n — P(L > 4√n) ≈ e⁻³² — and capped at 64Ki entries; beyond it
// the inversion extends sequentially.
func (bs *BatchScheduler) buildSurv() {
	n := bs.n
	capLen := 64
	for int64(capLen)*int64(capLen) < 16*n && capLen < 1<<16 {
		capLen *= 2
	}
	surv := make([]float64, 1, capLen)
	surv[0] = 1.0
	prev := 1.0
	f := float64(n - 2)
	for f >= 2 && len(surv) < capLen {
		t := f * (f - 1)
		t = t * bs.invNN1
		next := prev * t
		surv = append(surv, next)
		prev = next
		f = f - 2
	}
	bs.surv = surv
	bs.survFull = f < 2
}

// drawRunLength inverts the birthday survival law: the largest L with
// P(length ≥ L) > u. surv is strictly decreasing, so L is the number of
// table entries above u — a binary search; only when every entry survives
// (and the table is capped short of the support bound) does the inversion
// extend the product walk, from exactly the loop state the table left off.
func (bs *BatchScheduler) drawRunLength(u float64) int64 {
	surv := bs.surv
	lo, hi := 0, len(surv) // invariant: surv[lo-1] > u, surv[hi] ≤ u (virtual)
	for lo < hi {
		mid := (lo + hi) / 2
		if surv[mid] > u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(surv) || bs.survFull {
		return int64(lo)
	}
	// Every tabulated value survives and the support extends further:
	// continue the product recurrence sequentially (probability ≈ e⁻³²).
	L := int64(len(surv))
	prev := surv[len(surv)-1]
	f := float64(bs.n - 2*L)
	for f >= 2 {
		t := f * (f - 1)
		t = t * bs.invNN1
		next := prev * t
		if next <= u {
			break
		}
		prev = next
		L++
		f = f - 2
	}
	return L
}

// N returns the population size the scheduler was built for.
func (bs *BatchScheduler) N() int64 { return bs.n }

// StreamState returns the logical SplitMix64 state at the current
// consumption point — the checkpointing surface, meaningful at run
// boundaries.
func (bs *BatchScheduler) StreamState() uint64 { return bs.rng.Snapshot() }

// RunStats returns this scheduler instance's lifetime draw tallies: runs
// sampled (NextRun calls), their total collision-free length, and collisions
// resolved (CollidePair calls). This is the progress-math surface the hybrid
// runner folds into its probe at merge barriers — per-worker schedulers are
// never rebuilt mid-run, so the tallies are cumulative there. They are NOT
// part of StreamState: a scheduler resumed from a snapshot restarts at zero.
func (bs *BatchScheduler) RunStats() (runs, totalLen, collisions int64) {
	return bs.statRuns, bs.statRunLen, bs.statCollisions
}

// NextRun samples the next collision-free run against the current counts
// vector (whose sum must be bs.n): its length L ≥ 1 and its aggregate
// state-pair matrix. The returned run is owned by the scheduler and reused.
// After applying the cells (and accumulating the used agents' post-state
// multiset), finish the run with CollidePair.
func (bs *BatchScheduler) NextRun(counts pp.Counts) *BatchRun {
	bs.run.start = bs.rng.Snapshot()
	bs.run.n = bs.n
	n := bs.n

	// Run length: largest L with P(length ≥ L) > u, inverted against the
	// precomputed survival table. The first pair is always collision-free
	// (survival(1) ≡ 1), so L ≥ 1.
	u := uniform53(bs.rng.Uint64())
	L := bs.drawRunLength(u)
	bs.run.L = L
	bs.statRuns++
	bs.statRunLen += L

	// States of the 2L used agents: conditional multivariate hypergeometric
	// over the pre-run counts.
	nStates := len(counts)
	h := resizeInt64(bs.h, nStates)
	rem := 2 * L
	nRem := n
	for q := 0; q < nStates; q++ {
		cq := counts[q]
		if rem == 0 || cq == 0 {
			h[q] = 0
			nRem -= cq
			continue
		}
		k := bs.hyp.Draw(&bs.rng, nRem, cq, rem)
		h[q] = k
		rem -= k
		nRem -= cq
	}
	bs.h = h

	// Starter split: the starters are a uniform L-subset of the 2L used
	// agents (place the sample in uniform order; odd slots start pairs).
	s := resizeInt64(bs.s, nStates)
	r := resizeInt64(bs.r, nStates)
	rem = L
	hRem := 2 * L
	for q := 0; q < nStates; q++ {
		hq := h[q]
		if rem == 0 || hq == 0 {
			s[q] = 0
			r[q] = hq
			hRem -= hq
			continue
		}
		k := bs.hyp.Draw(&bs.rng, hRem, hq, rem)
		s[q] = k
		r[q] = hq - k
		rem -= k
		hRem -= hq
	}
	bs.s, bs.r = s, r

	// Matching: the starters of each state draw their reactors uniformly
	// without replacement from the remaining reactor pool — row by row a
	// conditional multivariate hypergeometric over r.
	cells := bs.run.Cells[:0]
	poolN := L
	for q1 := 0; q1 < nStates; q1++ {
		row := s[q1]
		if row == 0 {
			continue
		}
		pool := poolN
		for q2 := 0; q2 < nStates && row > 0; q2++ {
			rq := r[q2]
			if rq == 0 {
				pool -= rq
				continue
			}
			var m int64
			if pool == rq {
				m = row // everything left is state q2: no draw needed
			} else {
				m = bs.hyp.Draw(&bs.rng, pool, rq, row)
			}
			pool -= rq
			if m == 0 {
				continue
			}
			cells = append(cells, BatchCell{S: uint32(q1), R: uint32(q2), M: m})
			row -= m
			r[q2] -= m
			poolN -= m
		}
	}
	bs.run.Cells = cells
	return &bs.run
}

// CollidePair samples the collision interaction terminating the current run:
// counts must be the POST-run counts vector and used the post-state multiset
// of the run's 2L used agents (Σ used = twoL). It returns the interned input
// states (s, r) of the colliding ordered pair; used is left unmodified.
func (bs *BatchScheduler) CollidePair(counts pp.Counts, used []int64, twoL int64) (uint32, uint32) {
	bs.statCollisions++
	n := bs.n
	fresh := n - twoL
	// Ordered distinct pairs with ≥1 used endpoint, by case weight:
	// both used U(U−1); starter used U·F; reactor used F·U.
	wBoth := uint64(twoL * (twoL - 1))
	wMix := uint64(twoL * fresh)
	total := wBoth + 2*wMix
	x := lemire64(&bs.rng, total)
	switch {
	case x < wBoth:
		s := pickFromMultiset(&bs.rng, used, twoL, ^uint32(0))
		r := pickFromMultiset(&bs.rng, used, twoL-1, s)
		return s, r
	case x < wBoth+wMix:
		s := pickFromMultiset(&bs.rng, used, twoL, ^uint32(0))
		r := pickFresh(&bs.rng, counts, used, fresh)
		return s, r
	default:
		s := pickFresh(&bs.rng, counts, used, fresh)
		r := pickFromMultiset(&bs.rng, used, twoL, ^uint32(0))
		return s, r
	}
}

// Expand appends the run's interaction sequence — the L collision-free
// ordered input pairs, in chain order — to dst. The order is a uniform
// interleaving keyed off the run's start state (a pure function of the run:
// expanding consumes nothing from the main stream and is identical on
// resume), which is what makes truncation granularity-invariant and
// hitting-time replay exact in distribution. The terminating collision pair
// is NOT included; it is sampled by CollidePair after the expanded pairs are
// applied.
func (r *BatchRun) Expand(dst []CountPair) []CountPair {
	base := len(dst)
	for _, c := range r.Cells {
		for i := int64(0); i < c.M; i++ {
			dst = append(dst, CountPair{S: c.S, R: c.R})
		}
	}
	sh := Stream{state: mix64(r.start + batchShuffleSalt)}
	pairs := dst[base:]
	for i := len(pairs) - 1; i > 0; i-- {
		j := sh.Intn(i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	return dst
}

// pickFromMultiset draws a uniform element of the multiset (total Σ = size)
// and returns its index; excl is an index whose multiplicity is reduced by
// one (pass ^uint32(0) for none) — the without-replacement second draw.
func pickFromMultiset(rng *BufStream, ms []int64, size int64, excl uint32) uint32 {
	idx := int64(lemire64(rng, uint64(size)))
	for q := 0; q < len(ms); q++ {
		c := ms[q]
		if uint32(q) == excl {
			c--
		}
		if idx < c {
			return uint32(q)
		}
		idx -= c
	}
	// Unreachable for consistent inputs; return the last nonempty state.
	for q := len(ms) - 1; q > 0; q-- {
		if ms[q] > 0 {
			return uint32(q)
		}
	}
	return 0
}

// pickFresh draws a uniform agent among the fresh (un-used) population:
// state q has counts[q] − used[q] fresh agents.
func pickFresh(rng *BufStream, counts pp.Counts, used []int64, fresh int64) uint32 {
	idx := int64(lemire64(rng, uint64(fresh)))
	for q := 0; q < len(counts); q++ {
		c := counts[q]
		if q < len(used) {
			c -= used[q]
		}
		if idx < c {
			return uint32(q)
		}
		idx -= c
	}
	for q := len(counts) - 1; q > 0; q-- {
		c := counts[q]
		if q < len(used) {
			c -= used[q]
		}
		if c > 0 {
			return uint32(q)
		}
	}
	return 0
}

// lemire64 returns a uniform value in [0, n) (Lemire multiply-shift with
// rejection over the raw 64-bit stream; n > 0).
func lemire64(rng *BufStream, n uint64) uint64 {
	hi, lo := bits.Mul64(rng.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(rng.Uint64(), n)
		}
	}
	return hi
}

// resizeInt64 returns a zeroed int64 slice of length n, reusing buf.
func resizeInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		buf = make([]int64, n)
		return buf
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
