package sched

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// The sampler suite checks three things: agreement of empirical moments with
// the exact distribution (the truncated inversion must not bias mean or
// variance), edge-case/support correctness, and bit determinism — two
// identically-seeded streams must produce identical draw sequences, and
// every draw must consume at most one 64-bit uniform (the stream-budget
// contract checkpointing relies on).

func TestHypergeomMoments(t *testing.T) {
	cases := []struct{ N, K, n int64 }{
		{100, 30, 10},
		{1000, 500, 200},
		{1_000_000, 250_000, 10_000},
		{100_000_000, 50_000_000, 20_000}, // batch-scheduler operating scale
		{97, 13, 60},
	}
	for _, c := range cases {
		rng := NewBufStream(NewStream(7))
		var h HypSampler
		const draws = 20000
		var sum, sum2 float64
		for i := 0; i < draws; i++ {
			k := h.Draw(&rng, c.N, c.K, c.n)
			lo := c.n + c.K - c.N
			if lo < 0 {
				lo = 0
			}
			hi := c.n
			if c.K < hi {
				hi = c.K
			}
			if k < lo || k > hi {
				t.Fatalf("N=%d K=%d n=%d: draw %d outside support [%d,%d]", c.N, c.K, c.n, k, lo, hi)
			}
			sum += float64(k)
			sum2 += float64(k) * float64(k)
		}
		mean := sum / draws
		varr := sum2/draws - mean*mean
		wantMean := float64(c.n) * float64(c.K) / float64(c.N)
		wantVar := wantMean * (1 - float64(c.K)/float64(c.N)) * float64(c.N-c.n) / float64(c.N-1)
		// 6-sigma-ish tolerance on the ensemble mean, 10% on the variance.
		tolMean := 6 * math.Sqrt(wantVar/draws)
		if math.Abs(mean-wantMean) > tolMean+1e-9 {
			t.Errorf("N=%d K=%d n=%d: mean %.2f, want %.2f ± %.2f", c.N, c.K, c.n, mean, wantMean, tolMean)
		}
		if wantVar > 1 && math.Abs(varr-wantVar) > 0.1*wantVar {
			t.Errorf("N=%d K=%d n=%d: var %.2f, want %.2f ± 10%%", c.N, c.K, c.n, varr, wantVar)
		}
	}
}

func TestHypergeomEdges(t *testing.T) {
	rng := NewBufStream(NewStream(3))
	var h HypSampler
	before := rng.Snapshot()
	if k := h.Draw(&rng, 100, 0, 50); k != 0 {
		t.Fatalf("K=0 drew %d", k)
	}
	if k := h.Draw(&rng, 100, 100, 50); k != 50 {
		t.Fatalf("K=N drew %d", k)
	}
	if k := h.Draw(&rng, 100, 30, 0); k != 0 {
		t.Fatalf("n=0 drew %d", k)
	}
	if k := h.Draw(&rng, 100, 30, 100); k != 30 {
		t.Fatalf("n=N drew %d", k)
	}
	if got := rng.Snapshot(); got != before {
		t.Fatal("single-point-support draws consumed stream")
	}
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{100, 0.5},
		{1_000_000, 0.25},
		{100_000_000, 1.0 / 4}, // hybrid split scale
		{50, 0.02},
	}
	for _, c := range cases {
		rng := NewBufStream(NewStream(11))
		var b BinSampler
		draws := 20000
		if c.n >= 1_000_000 {
			draws = 2000 // the O(σ) window is ~10⁴ entries here; keep the suite fast
		}
		var sum, sum2 float64
		for i := 0; i < draws; i++ {
			k := b.Draw(&rng, c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("n=%d p=%g: draw %d outside support", c.n, c.p, k)
			}
			sum += float64(k)
			sum2 += float64(k) * float64(k)
		}
		fd := float64(draws)
		mean := sum / fd
		varr := sum2/fd - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		tolMean := 6 * math.Sqrt(wantVar/fd)
		if math.Abs(mean-wantMean) > tolMean+1e-9 {
			t.Errorf("n=%d p=%g: mean %.2f, want %.2f ± %.2f", c.n, c.p, mean, wantMean, tolMean)
		}
		if wantVar > 1 && math.Abs(varr-wantVar) > 0.1*wantVar {
			t.Errorf("n=%d p=%g: var %.2f, want %.2f ± 10%%", c.n, c.p, varr, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	rng := NewBufStream(NewStream(5))
	var b BinSampler
	before := rng.Snapshot()
	if k := b.Draw(&rng, 100, 0); k != 0 {
		t.Fatalf("p=0 drew %d", k)
	}
	if k := b.Draw(&rng, 100, 1); k != 100 {
		t.Fatalf("p=1 drew %d", k)
	}
	if k := b.Draw(&rng, 0, 0.5); k != 0 {
		t.Fatalf("n=0 drew %d", k)
	}
	if got := rng.Snapshot(); got != before {
		t.Fatal("degenerate draws consumed stream")
	}
}

func TestMultinomialSplit(t *testing.T) {
	rng := NewBufStream(NewStream(9))
	var b BinSampler
	probs := []float64{1, 1, 2}
	out := make([]int64, 3)
	const trials = 2000
	const n = 1000
	sums := make([]float64, 3)
	for i := 0; i < trials; i++ {
		b.Multinomial(&rng, n, probs, out)
		var tot int64
		for j, v := range out {
			if v < 0 {
				t.Fatalf("negative cell %d", v)
			}
			tot += v
			sums[j] += float64(v)
		}
		if tot != n {
			t.Fatalf("cells sum to %d, want %d", tot, n)
		}
	}
	want := []float64{n / 4.0, n / 4.0, n / 2.0}
	for j := range sums {
		mean := sums[j] / trials
		if math.Abs(mean-want[j]) > 0.03*want[j] {
			t.Errorf("cell %d mean %.1f, want %.1f", j, mean, want[j])
		}
	}
}

func TestSplitCounts(t *testing.T) {
	counts := []int64{400, 100, 0, 300}
	sizes := []int64{200, 200, 200, 200}
	out := make([][]int64, 4)
	for i := range out {
		out[i] = make([]int64, len(counts))
	}
	rng := NewBufStream(NewStream(13))
	var h HypSampler
	perState := make([]int64, len(counts))
	const trials = 500
	firstMeans := make([]float64, len(counts))
	for trial := 0; trial < trials; trial++ {
		h.SplitCounts(&rng, counts, sizes, out)
		for i := range perState {
			perState[i] = 0
		}
		for w := range out {
			var tot int64
			for q, v := range out[w] {
				if v < 0 {
					t.Fatalf("slice %d state %d negative: %d", w, q, v)
				}
				perState[q] += v
				tot += v
			}
			if tot != sizes[w] {
				t.Fatalf("slice %d holds %d agents, want %d", w, tot, sizes[w])
			}
		}
		for q := range counts {
			if perState[q] != counts[q] {
				t.Fatalf("state %d: slices hold %d, want %d", q, perState[q], counts[q])
			}
		}
		for q := range counts {
			firstMeans[q] += float64(out[0][q])
		}
	}
	// Slice 0 should hold ~1/4 of each state's agents on average.
	for q, c := range counts {
		want := float64(c) / 4
		if want == 0 {
			continue
		}
		if got := firstMeans[q] / trials; math.Abs(got-want) > 0.06*float64(counts[q])+2 {
			t.Errorf("state %d: slice-0 mean %.1f, want %.1f", q, got, want)
		}
	}
}

// TestHypergeomPastInt64Products draws at N = 10¹⁰ with K ≈ n ≈ N/2 — the
// sharded×counts hybrid's two-slice re-deal of a 10¹⁰-agent population —
// where the pmf's mode and ratio products pass 2⁶³.
func TestHypergeomPastInt64Products(t *testing.T) {
	const N, K, n = int64(10_000_000_000), int64(5_000_012_345), int64(5_000_000_000)
	rng := NewBufStream(NewStream(11))
	var h HypSampler
	const draws = 300
	var sum, sum2 float64
	for i := 0; i < draws; i++ {
		k := h.Draw(&rng, N, K, n)
		if k < 0 || k > n {
			t.Fatalf("draw %d outside support [0,%d]", k, n)
		}
		sum += float64(k)
		sum2 += float64(k) * float64(k)
	}
	mean := sum / draws
	varr := sum2/draws - mean*mean
	wantMean := float64(n) * float64(K) / float64(N)
	wantVar := wantMean * (1 - float64(K)/float64(N)) * float64(N-n) / float64(N-1)
	if tol := 6 * math.Sqrt(wantVar/draws); math.Abs(mean-wantMean) > tol {
		t.Errorf("mean %.1f, want %.1f ± %.1f", mean, wantMean, tol)
	}
	if math.Abs(varr-wantVar) > 0.3*wantVar {
		t.Errorf("var %.4g, want %.4g ± 30%%", varr, wantVar)
	}

	counts := []int64{K, N - K}
	out := [][]int64{make([]int64, 2), make([]int64, 2)}
	h.SplitCounts(&rng, counts, []int64{n, N - n}, out)
	if out[0][0]+out[0][1] != n || out[0][0]+out[1][0] != K || out[0][1]+out[1][1] != N-K {
		t.Fatalf("split %v does not partition counts %v into sizes [%d %d]", out, counts, n, N-n)
	}
	if d := math.Abs(float64(out[0][0]) - wantMean); d > 8*math.Sqrt(wantVar) {
		t.Errorf("slice 0 holds %d marked agents, %.1f σ from the mean", out[0][0], d/math.Sqrt(wantVar))
	}
}

// TestWideWindowMatchesNarrow pins the 128-bit path to the int64 one
// wherever the int64 products do not overflow, so every draw that never
// overflowed keeps its exact value: mulFloat equals float64(a*b), and the
// two window builders agree weight for weight.
func TestWideWindowMatchesNarrow(t *testing.T) {
	rng := NewStream(5)
	for i := 0; i < 100_000; i++ {
		a := int64(rng.Uint64() >> (1 + rng.Uint64()%63))
		b := int64(rng.Uint64() >> (1 + rng.Uint64()%63))
		if hi, lo := bits.Mul64(uint64(a), uint64(b)); hi != 0 || lo >= 1<<63 {
			continue
		}
		if got, want := mulFloat(a, b), float64(a*b); got != want {
			t.Fatalf("mulFloat(%d, %d) = %v, want %v", a, b, got, want)
		}
	}
	if got, want := mulFloat(1<<40, 1<<40), 0x1p80; got != want {
		t.Fatalf("mulFloat(2⁴⁰, 2⁴⁰) = %v, want %v", got, want)
	}
	for _, c := range []struct{ N, K, n int64 }{
		{100, 30, 10},
		{1_000_000, 250_000, 10_000},
		{4_400_000, 2_933_334, 2642},
		{1<<31 - 1, 1 << 30, 1 << 29},
	} {
		lo, hi := max(0, c.n+c.K-c.N), min(c.n, c.K)
		mode := min(max((c.n+1)*(c.K+1)/(c.N+2), lo), hi)
		w, up, total, sumDown := hypWindow(nil, c.N, c.K, c.n, lo, hi, mode)
		ww, wup, wtotal, wsumDown := hypWindowWide(nil, c.N, c.K, c.n, lo, hi, mode)
		if up != wup || total != wtotal || sumDown != wsumDown || !slices.Equal(w, ww) {
			t.Fatalf("N=%d K=%d n=%d: wide window differs from the narrow one", c.N, c.K, c.n)
		}
	}
}

// TestSamplerDeterminism pins bit-identical sequences per stream state: the
// cross-platform contract the batch checkpoints rely on.
func TestSamplerDeterminism(t *testing.T) {
	run := func() []int64 {
		rng := NewBufStream(NewStream(42))
		var h HypSampler
		var b BinSampler
		var out []int64
		for i := 0; i < 200; i++ {
			out = append(out, h.Draw(&rng, 1_000_000, 333_333, 5000))
			out = append(out, b.Draw(&rng, 1_000_000, 0.125))
		}
		return out
	}
	a, bseq := run(), run()
	for i := range a {
		if a[i] != bseq[i] {
			t.Fatalf("draw %d diverged: %d vs %d", i, a[i], bseq[i])
		}
	}
}

// TestSamplerStreamBudget pins that a non-degenerate draw consumes exactly
// one 64-bit uniform — so the stream position after k draws is a pure
// function of k, which is what lets a resumed scheduler replay the sequence.
func TestSamplerStreamBudget(t *testing.T) {
	rng := NewBufStream(NewStream(17))
	var h HypSampler
	for i := 0; i < 50; i++ {
		before := rng.Snapshot()
		h.Draw(&rng, 10000, 3000, 500)
		after := rng.Snapshot()
		if diff := (after - before) / goldenGamma; diff != 1 {
			t.Fatalf("draw %d consumed %d uniforms, want 1", i, diff)
		}
	}
}
