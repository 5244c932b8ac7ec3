// Interaction topology: the scenario axis that generalizes the paper's
// complete interaction graph to graphical population protocols
// (Alistarh–Gelashvili–Rybicki, arXiv:2102.08808), where the scheduler
// samples *edges* of a fixed graph G instead of arbitrary agent pairs.
//
// A Topology names a graph family (plus its parameter); Build instantiates
// it for a population size and seed as a Graph — a CSR adjacency the edge
// schedulers (sched.EdgeRandom) sample from. Randomized families (random d-regular, preferential attachment) are
// deterministic per (n, seed): the same spec always yields the same graph,
// which is what makes topology part of a scenario's content-addressed
// identity (serve.Spec).
//
// Every family builds a CONNECTED graph (d-regular multigraphs are repaired
// by degree-preserving rewiring), because uniform edge scheduling on a
// connected graph is globally fair with probability 1 — protocol correctness
// under global fairness transfers, and only convergence TIME changes with
// the topology. Protocols whose convergence argument needs more than global
// fairness (e.g. static pairwise-elimination leader election, whose two last
// leaders never meet unless adjacent) genuinely do not compute on sparse
// graphs — that separation is the point of the axis, not a bug.
package model

import (
	"fmt"
	"strconv"
	"strings"

	"popsim/internal/sched"
)

// topoFamily enumerates the built-in graph families.
type topoFamily uint8

const (
	topoComplete topoFamily = iota
	topoCycle
	topoGrid
	topoCliques
	topoRegular
	topoPowerlaw
)

// Default parameters of the parameterized families.
const (
	defaultCliqueSize = 8
	defaultRegularDeg = 4
	defaultPowerlawM  = 3
)

// topologyStreamIndex is the sched.SplitStream index family the graph
// generators draw from — far above any hybrid worker index and distinct from
// the counts sampler's stream, so a topology build never shares draws with
// the execution that runs on it.
const topologyStreamIndex = 1 << 27

// Topology identifies an interaction-graph family with its parameter — the
// scenario axis value, independent of the population size. The zero value is
// the complete graph (the paper's setting and the historical behavior of
// every scheduler). Parse one with ParseTopology; instantiate it for a
// population with Build.
type Topology struct {
	fam   topoFamily
	param int
}

// ParseTopology parses a topology name:
//
//	complete            every pair may interact (the default; "" parses to it)
//	cycle               ring, degree 2
//	grid                2D torus grid (requires a composite population size)
//	cliques[:k]         ring of bridged k-cliques (default k = 8)
//	regular[:d]         random d-regular multigraph, connected (default d = 4)
//	powerlaw[:m]        preferential attachment, m edges per new vertex
//	                    (default m = 3)
//
// The canonical form (String) always spells the parameter of parameterized
// families, so "regular" and "regular:4" canonicalize identically.
func ParseTopology(s string) (Topology, error) {
	name, params, hasParam := strings.Cut(s, ":")
	param := 0
	if hasParam {
		v, err := strconv.Atoi(params)
		if err != nil {
			return Topology{}, fmt.Errorf("model: topology %q: bad parameter %q", s, params)
		}
		param = v
	}
	switch name {
	case "", "complete":
		if hasParam {
			return Topology{}, fmt.Errorf("model: topology complete takes no parameter")
		}
		return Topology{}, nil
	case "cycle":
		if hasParam {
			return Topology{}, fmt.Errorf("model: topology cycle takes no parameter")
		}
		return Topology{fam: topoCycle}, nil
	case "grid":
		if hasParam {
			return Topology{}, fmt.Errorf("model: topology grid takes no parameter")
		}
		return Topology{fam: topoGrid}, nil
	case "cliques":
		if !hasParam {
			param = defaultCliqueSize
		}
		if param < 2 {
			return Topology{}, fmt.Errorf("model: cliques size must be ≥ 2, got %d", param)
		}
		return Topology{fam: topoCliques, param: param}, nil
	case "regular":
		if !hasParam {
			param = defaultRegularDeg
		}
		if param < 2 {
			return Topology{}, fmt.Errorf("model: regular degree must be ≥ 2 (degree-1 graphs are matchings, never connected), got %d", param)
		}
		return Topology{fam: topoRegular, param: param}, nil
	case "powerlaw":
		if !hasParam {
			param = defaultPowerlawM
		}
		if param < 1 {
			return Topology{}, fmt.Errorf("model: powerlaw attachment count must be ≥ 1, got %d", param)
		}
		return Topology{fam: topoPowerlaw, param: param}, nil
	default:
		return Topology{}, fmt.Errorf("model: unknown topology %q (complete|cycle|grid|cliques[:k]|regular[:d]|powerlaw[:m])", s)
	}
}

// String returns the canonical name — what ParseTopology round-trips and
// what serve.Spec canonicalizes into cache keys.
func (t Topology) String() string {
	switch t.fam {
	case topoComplete:
		return "complete"
	case topoCycle:
		return "cycle"
	case topoGrid:
		return "grid"
	case topoCliques:
		return fmt.Sprintf("cliques:%d", t.param)
	case topoRegular:
		return fmt.Sprintf("regular:%d", t.param)
	case topoPowerlaw:
		return fmt.Sprintf("powerlaw:%d", t.param)
	}
	return fmt.Sprintf("topology(%d)", t.fam)
}

// IsComplete reports whether the topology is the complete graph — the
// paper's setting, served by the pre-existing schedulers byte-identically.
func (t Topology) IsComplete() bool { return t.fam == topoComplete }

// VertexTransitive reports whether every instance of the family is
// vertex-transitive (complete, cycle, grid torus, random d-regular as a
// degree-homogeneous family). Vertex-transitive families admit the counts
// backend's neighborhood-class aggregation: with every vertex equivalent,
// sampling an ordered state pair within the single neighborhood class —
// starter uniform over agents, reactor uniform over the remaining agents
// under a per-step re-randomized (annealed) embedding — coincides in
// distribution with the complete-graph count chain. Ring-of-cliques and
// power-law graphs have vertex classes with distinct neighborhoods and stay
// on the agent-vector backends.
func (t Topology) VertexTransitive() bool {
	switch t.fam {
	case topoComplete, topoCycle, topoGrid, topoRegular:
		return true
	}
	return false
}

// Seeded reports whether Build consumes the seed (randomized families);
// deterministic families build identically for every seed.
func (t Topology) Seeded() bool {
	return t.fam == topoRegular || t.fam == topoPowerlaw
}

// completeBuildCap bounds Build for the complete family: its CSR is O(n²)
// and exists only for small-scale distribution tests — production executions
// of the complete topology never materialize a graph (the facade hands the
// complete case to the dedicated schedulers).
const completeBuildCap = 1 << 12

// Validate checks the family's population-size constraints without building.
func (t Topology) Validate(n int) error {
	if n < 2 {
		return fmt.Errorf("model: topology %s: population size %d < 2", t, n)
	}
	if n > 1<<31-1 {
		return fmt.Errorf("model: topology %s: population size %d exceeds the 32-bit adjacency bound", t, n)
	}
	switch t.fam {
	case topoComplete:
		if n > completeBuildCap {
			return fmt.Errorf("model: building the complete graph's O(n²) adjacency is capped at n = %d (the complete topology is served without a graph)", completeBuildCap)
		}
	case topoGrid:
		if r, _ := gridDims(n); r < 2 {
			return fmt.Errorf("model: topology grid needs a composite population size with a divisor ≥ 2 (got n = %d)", n)
		}
	case topoRegular:
		if t.param >= n {
			return fmt.Errorf("model: regular degree %d must be < population size %d", t.param, n)
		}
		if n*t.param%2 != 0 {
			return fmt.Errorf("model: regular degree %d with odd population %d has no pairing (n·d must be even)", t.param, n)
		}
	case topoPowerlaw:
		if n < t.param+2 {
			return fmt.Errorf("model: powerlaw:%d needs a population of at least %d, got %d", t.param, t.param+2, n)
		}
	}
	return nil
}

// Build instantiates the topology for a population of n agents. Randomized
// families derive their draws from sched.SplitStream(seed,
// topologyStreamIndex), so the graph is deterministic per (topology, n,
// seed) and independent of every execution stream.
func (t Topology) Build(n int, seed int64) (*Graph, error) {
	if err := t.Validate(n); err != nil {
		return nil, err
	}
	var edges []edge
	switch t.fam {
	case topoComplete:
		edges = completeEdges(n)
	case topoCycle:
		edges = cycleEdges(n)
	case topoGrid:
		edges = gridEdges(n)
	case topoCliques:
		edges = cliqueEdges(n, t.param)
	case topoRegular:
		rng := sched.SplitStream(seed, topologyStreamIndex)
		edges = regularEdges(n, t.param, &rng)
	case topoPowerlaw:
		rng := sched.SplitStream(seed, topologyStreamIndex)
		edges = powerlawEdges(n, t.param, &rng)
	}
	return graphFromEdges(t, n, edges), nil
}

// Graph is a built topology instance: an undirected (multi)graph over the
// agent indices 0..n−1 in CSR form. Both directions of every undirected edge
// appear as adjacency slots, so sampling "a uniform directed slot" — pick a
// starter ∝ degree, then a uniform neighbor slot — is exactly the uniform
// ordered adjacent pair the graphical-protocol scheduler needs. Multi-edges
// (which the torus and configuration-model families can produce on
// degenerate dimensions) weight their pair proportionally, consistent with
// the multigraph semantics of the configuration model.
type Graph struct {
	topo Topology
	offs []int64 // CSR offsets, len n+1
	adj  []int32 // neighbor slots, len = 2·(undirected edge count)
	reg  int     // uniform degree when every vertex has it, else −1
}

// edge is one undirected edge during construction.
type edge struct{ u, v int32 }

// graphFromEdges assembles the CSR form from an undirected edge list.
func graphFromEdges(t Topology, n int, edges []edge) *Graph {
	g := &Graph{topo: t, offs: make([]int64, n+1), adj: make([]int32, 2*len(edges))}
	for _, e := range edges {
		g.offs[e.u+1]++
		g.offs[e.v+1]++
	}
	for i := 0; i < n; i++ {
		g.offs[i+1] += g.offs[i]
	}
	cursor := make([]int64, n)
	copy(cursor, g.offs[:n])
	for _, e := range edges {
		g.adj[cursor[e.u]] = e.v
		cursor[e.u]++
		g.adj[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	g.reg = int(g.offs[1] - g.offs[0])
	for i := 1; i < n; i++ {
		if g.offs[i+1]-g.offs[i] != int64(g.reg) {
			g.reg = -1
			break
		}
	}
	return g
}

// Topology returns the family identity the graph was built from.
func (g *Graph) Topology() Topology { return g.topo }

// N returns the number of vertices (the population size).
func (g *Graph) N() int { return len(g.offs) - 1 }

// Edges returns the number of undirected edges (multi-edges counted).
func (g *Graph) Edges() int { return len(g.adj) / 2 }

// Degree returns vertex v's slot count (multi-edges counted).
func (g *Graph) Degree(v int) int { return int(g.offs[v+1] - g.offs[v]) }

// Neighbor returns vertex v's i-th adjacency slot.
func (g *Graph) Neighbor(v, i int) int { return int(g.adj[g.offs[v]+int64(i)]) }

// RegularDegree returns the uniform degree when the instance is regular,
// −1 otherwise.
func (g *Graph) RegularDegree() int { return g.reg }

// Adjacency exposes the raw CSR arrays (offsets len n+1, neighbor slots) for
// the samplers' hot loops. Shared, read-only.
func (g *Graph) Adjacency() ([]int64, []int32) { return g.offs, g.adj }

// completeEdges builds all pairs — O(n²), capped by Validate; see
// completeBuildCap.
func completeEdges(n int) []edge {
	edges := make([]edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, edge{int32(u), int32(v)})
		}
	}
	return edges
}

// cycleEdges builds the ring. n = 2 degenerates to a single edge (a 2-ring's
// two parallel edges would only double-weight the one possible pair).
func cycleEdges(n int) []edge {
	if n == 2 {
		return []edge{{0, 1}}
	}
	edges := make([]edge, n)
	for u := 0; u < n; u++ {
		edges[u] = edge{int32(u), int32((u + 1) % n)}
	}
	return edges
}

// gridDims factors n into torus dimensions r×c with r the largest divisor of
// n at most √n. r < 2 (prime or tiny n) means no grid exists.
func gridDims(n int) (r, c int) {
	r = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			r = d
		}
	}
	return r, n / r
}

// gridEdges builds the r×c torus in row-major vertex order: every vertex
// links right and down with wraparound. Dimensions of length 2 produce
// parallel edges (the wrap neighbor coincides); the instance stays
// vertex-transitive as a multigraph.
func gridEdges(n int) []edge {
	r, c := gridDims(n)
	edges := make([]edge, 0, 2*n)
	for row := 0; row < r; row++ {
		for col := 0; col < c; col++ {
			u := int32(row*c + col)
			edges = append(edges, edge{u, int32(row*c + (col+1)%c)})
			edges = append(edges, edge{u, int32(((row+1)%r)*c + col)})
		}
	}
	return edges
}

// cliqueEdges builds a ring of bridged cliques: ⌊n/k⌋ cliques of near-equal
// size (the remainder spread one agent at a time over the leading cliques),
// consecutive cliques bridged by one edge between their border vertices, the
// ring closed when there are at least three cliques (two cliques get a
// single bridge, not a parallel pair).
func cliqueEdges(n, k int) []edge {
	c := n / k
	if c < 1 {
		c = 1
	}
	base, rem := n/c, n%c
	var edges []edge
	start := 0
	starts := make([]int, c+1)
	for i := 0; i < c; i++ {
		starts[i] = start
		size := base
		if i < rem {
			size++
		}
		for u := start; u < start+size; u++ {
			for v := u + 1; v < start+size; v++ {
				edges = append(edges, edge{int32(u), int32(v)})
			}
		}
		start += size
	}
	starts[c] = start
	for i := 0; i+1 < c; i++ {
		edges = append(edges, edge{int32(starts[i+1] - 1), int32(starts[i+1])})
	}
	if c > 2 {
		edges = append(edges, edge{int32(n - 1), 0})
	}
	return edges
}

// regularEdges builds a random d-regular multigraph by the configuration
// model (uniform stub pairing), with deterministic self-loop repair and
// degree-preserving rewiring to a connected graph.
func regularEdges(n, d int, rng *sched.Stream) []edge {
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	// Fisher–Yates off the topology stream: the pairing is a uniform perfect
	// matching of the stubs, deterministic per (n, d, seed).
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	edges := make([]edge, len(stubs)/2)
	for i := range edges {
		edges[i] = edge{stubs[2*i], stubs[2*i+1]}
	}
	// Self-loop repair: swap the loop's second stub with the first stub of a
	// later (wrapping) pair that keeps both pairs loop-free. Deterministic,
	// and always possible for d < n: vertex u holds d of the n·d stubs, so
	// pairs avoiding u exist.
	for i := range edges {
		if edges[i].u != edges[i].v {
			continue
		}
		u := edges[i].u
		for off := 1; off < len(edges); off++ {
			j := (i + off) % len(edges)
			if edges[j].u != u && edges[j].v != edges[i].v {
				edges[i].v, edges[j].u = edges[j].u, edges[i].v
				break
			}
		}
	}
	return connectEdges(n, edges)
}

// connectEdges rewires a (loop-free) edge list into a connected graph while
// preserving every degree: components beyond the first are chained into it
// by swapping the reactor endpoints of one edge per component —
// (u1,v1),(u2,v2) → (u1,v2),(u2,v1) merges the two components and moves no
// stub between vertices. Configuration-model d-regular graphs are connected
// with high probability for d ≥ 3 anyway; the repair makes it a guarantee
// (d = 2 samples are unions of cycles and genuinely need it).
func connectEdges(n int, edges []edge) []edge {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
		}
	}
	// One representative edge per component, in first-seen order.
	repFor := make(map[int32]int, 4)
	var reps []int
	for i, e := range edges {
		r := find(e.u)
		if _, ok := repFor[r]; !ok {
			repFor[r] = i
			reps = append(reps, i)
		}
	}
	// Chain every further component into the first: the chain edge index
	// stays reps[0], whose reactor endpoint is refreshed by each swap so the
	// next merge still uses an edge inside the merged component.
	for _, j := range reps[1:] {
		i := reps[0]
		edges[i].v, edges[j].v = edges[j].v, edges[i].v
	}
	return edges
}

// powerlawEdges builds a preferential-attachment (Barabási–Albert) graph:
// a clique core on m+1 vertices, then every new vertex attaches m edges to
// distinct existing vertices chosen proportionally to degree (sampling from
// the edge-endpoint list), deterministic per (n, m, seed). Connected by
// construction; minimum degree m.
func powerlawEdges(n, m int, rng *sched.Stream) []edge {
	var edges []edge
	var targets []int32 // every edge endpoint, so a uniform pick is ∝ degree
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, edge{int32(u), int32(v)})
			targets = append(targets, int32(u), int32(v))
		}
	}
	chosen := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			t := targets[rng.Intn(len(targets))]
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, edge{int32(v), t})
			targets = append(targets, int32(v), t)
		}
	}
	return edges
}
