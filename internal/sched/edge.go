// Edge-sampling schedulers for graphical population protocols: the uniform
// random scheduler over the *edges* of a fixed interaction graph G
// (Alistarh–Gelashvili–Rybicki, arXiv:2102.08808), generalizing Random's
// complete graph. One uniform ordered adjacent pair per step: pick the
// starter ∝ degree, then a uniform adjacency slot — equivalently, a uniform
// directed slot of the CSR, so every directed edge (multi-edges weighted by
// multiplicity) has probability 1/(2m).
package sched

import "popsim/internal/pp"

// Graph is the adjacency surface an edge scheduler samples from: CSR offsets
// (len n+1) and neighbor slots, both directions of every undirected edge
// present. model.Graph satisfies it; sched stays free of a model dependency
// (model imports sched for its generator streams).
type Graph interface {
	N() int
	Adjacency() ([]int64, []int32)
}

// EdgeStreamIndex is the SplitStream index the edge sampler draws from —
// its own stream family, disjoint from the hybrid's worker indexes (small
// integers) and the counts sampler (CountStreamIndex = 1<<30).
const EdgeStreamIndex = 1 << 29

// EdgeRandom is the uniform edge scheduler: a Batcher whose every step
// consumes exactly one 64-bit draw, whether pulled one interaction at a time
// (Next) or in bulk (NextBatch) — the two paths are stream-identical by
// construction, mirroring Random's Batcher contract.
//
// Sampling is O(1) per step for every graph: regular graphs index the
// starter directly; irregular graphs go through a Walker alias table over
// the degree distribution, built once in O(n). Index mapping uses the same
// 32-bit multiply-shift as the counts block sampler, so pair probabilities are
// uniform to within 2⁻³² relative error — inside the statistical contract
// the backends already share.
type EdgeRandom struct {
	n     int
	offs  []int64
	adj   []int32
	deg   uint64   // uniform slot count per vertex; 0 = irregular (alias path)
	prob  []uint32 // alias acceptance thresholds (keep the cell when the
	alias []int32  // 32-bit fraction is ≤ prob[i], else jump to alias[i])
	rng   BufStream
	draws []uint64
}

// NewEdgeScheduler returns the scheduler serving a topology: the dedicated
// edge sampler for a materialized graph, and for g == nil — the complete
// topology, which never builds its O(n²) adjacency — the pre-existing
// *Random itself. That nil arm is the refactor's pinned invariant: complete
// is not "the complete graph fed through the new sampler", it IS the
// existing scheduler, byte-identical streams and all.
func NewEdgeScheduler(g Graph, seed int64) Batcher {
	if g == nil {
		return NewRandom(seed)
	}
	return NewEdgeRandom(g, seed)
}

// NewEdgeRandom builds the edge sampler for a materialized graph. The graph
// must have at least one edge and two vertices (model.Topology.Build
// guarantees both, plus connectivity).
func NewEdgeRandom(g Graph, seed int64) *EdgeRandom {
	offs, adj := g.Adjacency()
	er := &EdgeRandom{
		n:    g.N(),
		offs: offs,
		adj:  adj,
		rng:  NewBufStream(SplitStream(seed, EdgeStreamIndex)),
	}
	reg := offs[1] - offs[0]
	for v := 1; v < er.n; v++ {
		if offs[v+1]-offs[v] != reg {
			reg = -1
			break
		}
	}
	if reg > 0 {
		er.deg = uint64(reg)
	} else {
		er.prob, er.alias = buildAlias(offs)
	}
	return er
}

// buildAlias constructs a Walker alias table over the degree weights:
// cell i is kept when a uniform 32-bit fraction is ≤ prob[i], else the draw
// lands on alias[i]. O(n) build, O(1) sample, exact up to the 32-bit
// threshold quantization.
func buildAlias(offs []int64) (prob []uint32, alias []int32) {
	n := len(offs) - 1
	total := float64(offs[n])
	prob = make([]uint32, n)
	alias = make([]int32, n)
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		scaled[i] = float64(offs[i+1]-offs[i]) * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t := uint64(scaled[s] * 4294967296.0)
		if t > 0xFFFFFFFF {
			t = 0xFFFFFFFF
		}
		prob[s] = uint32(t)
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers in either stack have weight 1 up to rounding: always keep.
	for _, i := range small {
		prob[i] = 0xFFFFFFFF
		alias[i] = i
	}
	for _, i := range large {
		prob[i] = 0xFFFFFFFF
		alias[i] = i
	}
	return prob, alias
}

// interactionFrom decodes one 64-bit draw into a uniform ordered adjacent
// pair: low 32 bits select the starter (∝ degree, via the alias table when
// irregular), high 32 bits select the neighbor slot.
func (er *EdgeRandom) interactionFrom(x uint64) pp.Interaction {
	var a int64
	if er.deg != 0 {
		a = int64((uint64(uint32(x)) * uint64(er.n)) >> 32)
		j := ((x >> 32) * er.deg) >> 32
		return pp.Interaction{Starter: int(a), Reactor: int(er.adj[er.offs[a]+int64(j)])}
	}
	t := uint64(uint32(x)) * uint64(er.n)
	a = int64(t >> 32)
	if uint32(t) > er.prob[a] {
		a = int64(er.alias[a])
	}
	o := er.offs[a]
	d := uint64(er.offs[a+1] - o)
	j := ((x >> 32) * d) >> 32
	return pp.Interaction{Starter: int(a), Reactor: int(er.adj[o+int64(j)])}
}

// Next returns the next scheduled interaction. n must equal the graph's
// vertex count — an edge scheduler is bound to its graph's population.
func (er *EdgeRandom) Next(n int) (pp.Interaction, bool) {
	if n != er.n {
		return pp.Interaction{}, false
	}
	return er.interactionFrom(er.rng.Uint64()), true
}

// edgeDrawChunk sizes NextBatch's bulk RNG fills.
const edgeDrawChunk = 1024

// NextBatch returns the next k interactions, consuming the RNG stream
// exactly as k Next calls would (one draw per interaction, bulk-filled).
func (er *EdgeRandom) NextBatch(n, k int) []pp.Interaction {
	if n != er.n || k <= 0 {
		return nil
	}
	out := make([]pp.Interaction, k)
	if er.draws == nil {
		er.draws = make([]uint64, edgeDrawChunk)
	}
	for done := 0; done < k; {
		c := k - done
		if c > edgeDrawChunk {
			c = edgeDrawChunk
		}
		er.rng.Fill(er.draws[:c])
		for i := 0; i < c; i++ {
			out[done+i] = er.interactionFrom(er.draws[i])
		}
		done += c
	}
	return out
}
