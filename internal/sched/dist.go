// Deterministic discrete samplers for the batch dynamics (multibatch.go):
// hypergeometric, binomial and multinomial draws computed by truncated
// probability-mass inversion around the mode.
//
// Cross-platform determinism is a hard contract here — a batch checkpoint
// resumed on another machine must continue the identical draw sequence — so
// the samplers use only IEEE-754 basic operations (+, −, ×, ÷, comparisons),
// which Go evaluates correctly rounded and reproducibly on every platform.
// No math.Exp/Log/Lgamma, no libm variance, and every intermediate lands in
// an explicitly assigned float64 variable so the compiler cannot fuse a
// multiply-add (the Go spec permits FMA fusion only on unassigned
// intermediates). Each draw consumes exactly one 64-bit uniform from the
// stream (shortcut cases with a single-point support consume none, which is
// itself a pure function of the arguments and therefore deterministic).
//
// The inversion is truncated: unnormalized weights w(k) are grown outward
// from the mode (w(mode) = 1) by the exact pmf ratio recurrences until they
// fall below distTail, giving an O(σ) window; the uniform is then inverted
// against the window's cumulative sum in ascending-k order. The truncation
// error is below 2⁻⁵⁹ of the mass — orders of magnitude under the sampler's
// own floating-point noise and far below anything a statistical test can
// see — and, critically, the window boundaries are a deterministic function
// of the parameters, never of timing or platform.
package sched

import "math/bits"

// distTail is the relative weight (vs the mode's 1.0) below which the
// truncated inversion stops extending its window.
const distTail = 1e-18

// uniform53 maps a raw 64-bit draw to the dyadic uniform on [0, 1) with 53
// significant bits — the standard bit-exact construction.
func uniform53(x uint64) float64 {
	return float64(x>>11) * 0x1.0p-53
}

// HypSampler draws hypergeometric variates; it owns the reusable weight
// window so repeated draws (the batch scheduler issues O(|Q|²) per run)
// allocate nothing. The zero value is ready to use. Not safe for concurrent
// use; give each goroutine its own.
type HypSampler struct {
	w []float64
}

// Draw samples Hypergeometric(N, K, n): the number of marked items among n
// draws without replacement from a population of N items of which K are
// marked. Requires 0 ≤ K ≤ N, 0 ≤ n ≤ N; consumes at most one uniform.
func (h *HypSampler) Draw(rng *BufStream, N, K, n int64) int64 {
	lo := n + K - N
	if lo < 0 {
		lo = 0
	}
	hi := n
	if K < hi {
		hi = K
	}
	if lo >= hi {
		return lo // single-point support: deterministic, no draw
	}
	// Mode of the pmf: ⌊(n+1)(K+1)/(N+2)⌋, clamped into the support. From
	// N = 2³¹ on, the products below can pass 2⁶³ (at K ≈ n ≈ N/2 they do
	// from N ≈ 6·10⁹), so they are formed in 128 bits.
	narrow := N < 1<<31
	var mode int64
	if narrow {
		mode = (n + 1) * (K + 1) / (N + 2)
	} else {
		phi, plo := bits.Mul64(uint64(n+1), uint64(K+1))
		q, _ := bits.Div64(phi, plo, uint64(N+2)) // the quotient is below N+1
		mode = int64(q)
	}
	if mode < lo {
		mode = lo
	}
	if mode > hi {
		mode = hi
	}
	var up int
	var total, sumDown float64
	if narrow {
		h.w, up, total, sumDown = hypWindow(h.w[:0], N, K, n, lo, hi, mode)
	} else {
		h.w, up, total, sumDown = hypWindowWide(h.w[:0], N, K, n, lo, hi, mode)
	}
	w := h.w
	down := len(w) - up // window entries at indices mode−1..mode−down

	u := uniform53(rng.Uint64())
	target := u * total
	// Invert outward from the mode, in ascending-k order within each side:
	// the window spans ~±9σ but the selected k concentrates within ~1σ of
	// the mode, so splitting the scan at the mode (the down side owns
	// [0, sumDown), the mode-and-up side the rest) makes the expected walk
	// O(σ) short instead of traversing the whole lower tail. The split and
	// each side's accumulation order are part of the determinism contract;
	// rounding can leave target outside both partial sums by a margin, so
	// each side clamps to its outermost window entry.
	if target >= sumDown {
		cum := sumDown
		for i := 0; i < up; i++ {
			cum = cum + w[i]
			if target < cum {
				return mode + int64(i)
			}
		}
		return mode + int64(up) - 1
	}
	// k < mode: walk down from the mode, peeling weights off sumDown.
	rem := sumDown
	for i := 0; i < down; i++ {
		rem = rem - w[up+i]
		if target >= rem {
			return mode - int64(i) - 1
		}
	}
	return mode - int64(down)
}

// hypWindow grows the weight window outward from the mode, for N < 2³¹.
// Upward ratio p(k+1)/p(k) = (K−k)(n−k) / ((k+1)(N−K−n+k+1)); downward is
// its reciprocal shifted. Every factor is at most N+1, so each int64 product
// stays below 2⁶³ and converts to float64 correctly rounded. w[0] is the
// mode's weight, w[1:up] the upward weights, w[up:] the downward ones;
// sumDown is the downward weights' sum.
func hypWindow(w []float64, N, K, n, lo, hi, mode int64) (_ []float64, up int, total, sumDown float64) {
	w = append(w, 1.0)
	total = 1.0
	wk := 1.0
	for k := mode; k < hi; k++ {
		num := float64((K - k) * (n - k))
		den := float64((k + 1) * (N - K - n + k + 1))
		r := num / den
		wk = wk * r
		if wk < distTail {
			break
		}
		w = append(w, wk)
		total = total + wk
	}
	up = len(w)
	wk = 1.0
	for k := mode; k > lo; k-- {
		num := float64(k * (N - K - n + k))
		den := float64((K - k + 1) * (n - k + 1))
		r := num / den
		wk = wk * r
		if wk < distTail {
			break
		}
		w = append(w, wk)
		total = total + wk
		sumDown = sumDown + wk
	}
	return w, up, total, sumDown
}

// hypWindowWide is hypWindow for N ≥ 2³¹, with the ratio products formed
// by mulFloat. It is a loop of its own because a 128-bit fallback inside
// hypWindow slows every draw by about 1.4× on x86-64, even untaken.
func hypWindowWide(w []float64, N, K, n, lo, hi, mode int64) (_ []float64, up int, total, sumDown float64) {
	w = append(w, 1.0)
	total = 1.0
	wk := 1.0
	for k := mode; k < hi; k++ {
		num := mulFloat(K-k, n-k)
		den := mulFloat(k+1, N-K-n+k+1)
		r := num / den
		wk = wk * r
		if wk < distTail {
			break
		}
		w = append(w, wk)
		total = total + wk
	}
	up = len(w)
	wk = 1.0
	for k := mode; k > lo; k-- {
		num := mulFloat(k, N-K-n+k)
		den := mulFloat(K-k+1, n-k+1)
		r := num / den
		wk = wk * r
		if wk < distTail {
			break
		}
		w = append(w, wk)
		total = total + wk
		sumDown = sumDown + wk
	}
	return w, up, total, sumDown
}

// mulFloat returns the product of two non-negative int64s, formed in 128
// bits, as a float64. Below 2⁶⁴ it is the correctly rounded conversion of
// the exact product — for products below 2⁶³, the value float64(a*b) has —
// and from 2⁶⁴ on float64(hi)·2⁶⁴ + float64(lo), within a few roundings of
// the product and still a fixed sequence of IEEE-754 operations, so
// deterministic.
func mulFloat(a, b int64) float64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi == 0 {
		return float64(lo)
	}
	h := float64(hi) * 0x1p64
	l := float64(lo)
	return h + l
}

// BinSampler draws binomial variates with a reusable weight window, by the
// same truncated mode-centered inversion as HypSampler. The zero value is
// ready to use; not safe for concurrent use.
type BinSampler struct {
	w []float64
}

// Draw samples Binomial(n, p): successes among n independent trials of
// probability p. Requires n ≥ 0 and p ∈ [0, 1]; consumes at most one
// uniform. The caller must compute p deterministically (it enters the ratio
// recurrence as p/(1−p), evaluated once).
func (b *BinSampler) Draw(rng *BufStream, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	odds := p / (1 - p)
	mode := int64(float64(n+1) * p)
	if mode > n {
		mode = n
	}
	w := b.w[:0]
	w = append(w, 1.0)
	total := 1.0
	// Upward: p(k+1)/p(k) = ((n−k)/(k+1))·odds.
	wk := 1.0
	for k := mode; k < n; k++ {
		r := float64(n-k) / float64(k+1)
		r = r * odds
		wk = wk * r
		if wk < distTail {
			break
		}
		w = append(w, wk)
		total = total + wk
	}
	up := len(w)
	// Downward: p(k−1)/p(k) = (k/(n−k+1))/odds.
	wk = 1.0
	for k := mode; k > 0; k-- {
		r := float64(k) / float64(n-k+1)
		r = r / odds
		wk = wk * r
		if wk < distTail {
			break
		}
		w = append(w, wk)
		total = total + wk
	}
	down := len(w) - up
	b.w = w

	u := uniform53(rng.Uint64())
	target := u * total
	cum := 0.0
	for i := down - 1; i >= 0; i-- {
		cum = cum + w[up+i]
		if target < cum {
			return mode - int64(i) - 1
		}
	}
	for i := 0; i < up; i++ {
		cum = cum + w[i]
		if target < cum {
			return mode + int64(i)
		}
	}
	return mode + int64(up) - 1
}

// Multinomial splits n items into len(probs) cells with the given
// probabilities (which must be non-negative; they are normalized by their
// sum) via the standard sequential-conditional-binomial decomposition, and
// writes the cell counts into out (len(out) == len(probs)). The draw order —
// cell 0 first, each conditioned on the remainder — is part of the
// determinism contract.
func (b *BinSampler) Multinomial(rng *BufStream, n int64, probs []float64, out []int64) {
	var psum float64
	for _, p := range probs {
		psum = psum + p
	}
	rem := n
	for i := range probs {
		if rem == 0 || psum <= 0 {
			out[i] = 0
			continue
		}
		if i == len(probs)-1 {
			out[i] = rem
			break
		}
		p := probs[i] / psum
		k := b.Draw(rng, rem, p)
		out[i] = k
		rem -= k
		psum = psum - probs[i]
	}
}

// SplitCounts deals a counts vector into P slices of the given sizes
// (len(sizes) == P, Σ sizes == counts.N()) uniformly at random without
// replacement — the exact finite-population ("multivariate hypergeometric")
// analogue of a multinomial split, used by the counts hybrid to
// re-deal agents between worker slices at epoch barriers. out must hold P
// destination vectors, each at least len(counts) long; they are overwritten.
// Draw order (slice-major, then state-major, each conditioned on the
// remaining pool) is part of the determinism contract.
func (h *HypSampler) SplitCounts(rng *BufStream, counts []int64, sizes []int64, out [][]int64) {
	nStates := len(counts)
	var poolN int64
	for _, c := range counts {
		poolN += c
	}
	remaining := make([]int64, nStates)
	copy(remaining, counts)
	for w := 0; w < len(sizes); w++ {
		dst := out[w]
		need := sizes[w]
		if w == len(sizes)-1 {
			// Exact remainder: the last slice takes everything left.
			for q := 0; q < nStates; q++ {
				dst[q] = remaining[q]
				remaining[q] = 0
			}
			for q := nStates; q < len(dst); q++ {
				dst[q] = 0
			}
			continue
		}
		nRem := poolN
		for q := 0; q < nStates; q++ {
			if need == 0 {
				dst[q] = 0
				nRem -= remaining[q]
				continue
			}
			k := h.Draw(rng, nRem, remaining[q], need)
			dst[q] = k
			need -= k
			nRem -= remaining[q]
			remaining[q] -= k
			poolN -= k
		}
		for q := nStates; q < len(dst); q++ {
			dst[q] = 0
		}
	}
}
