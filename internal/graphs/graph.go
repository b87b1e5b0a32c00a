// Package graphs implements the undirected relation graphs used throughout
// the networked-bandit library, together with the graph algorithms the
// paper's analysis relies on: clique covers (Theorem 1), maximal-clique
// enumeration, vertex-induced subgraphs for the delta-threshold partition,
// and a family of random-graph generators for the simulation section.
//
// Vertices are integers [0, N). The representation keeps both sorted
// adjacency slices (for fast iteration) and adjacency bitsets (for O(1)
// membership tests and fast set intersections in Bron-Kerbosch).
package graphs

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1. The zero value is
// an empty graph with no vertices; use New to create a graph with vertices.
//
// Two representations live behind the one type. The dense form keeps an
// O(n²)-bit adjacency matrix next to the sorted lists, buying O(1) edge
// tests and word-parallel set operations; it is the right shape for the
// simulation-scale graphs the paper's figures use. The sparse (CSR-style)
// form keeps only the sorted adjacency and closed-neighbourhood lists —
// edge tests binary-search the shorter endpoint list and row unions walk
// the list — so a K=10⁵ relation graph with bounded degree costs O(n+m)
// ints instead of 1.2 GB of matrix. Every exported method behaves
// identically in both modes (property-tested); only the constants differ.
type Graph struct {
	n      int
	m      int
	adj    [][]int    // sorted neighbour lists
	closed [][]int    // sorted closed neighbourhoods {v} ∪ N(v)
	bits   [][]uint64 // adjacency bitsets, one row per vertex; nil in sparse mode
	words  int        // number of uint64 words per bitset row
}

// Dense/sparse auto-selection thresholds. Below DenseVertexLimit the bit
// matrix costs at most 2 MB and always wins; above it New switches to the
// sparse representation unless the caller's density hint says the matrix
// would both fit the memory cap and carry at least DenseDensityMin of its
// bits — one expected edge bit per 64-bit word, the break-even point at
// which scanning the matrix row stops beating walking the CSR list.
const (
	// DenseVertexLimit is the vertex count up to which New always keeps
	// the adjacency bit matrix.
	DenseVertexLimit = 4096
	// DenseDensityMin is the minimum expected density at which NewAuto
	// keeps the matrix above DenseVertexLimit.
	DenseDensityMin = 1.0 / 64
	// denseMatrixByteCap bounds the matrix NewAuto will allocate even for
	// dense hints (128 MB ≈ n = 32768).
	denseMatrixByteCap = 128 << 20
)

// New returns an edgeless graph with n vertices, choosing the dense
// representation up to DenseVertexLimit vertices and the sparse one above.
// Use NewDense, NewSparse, or NewAuto to choose explicitly. It panics if
// n < 0.
func New(n int) *Graph {
	return newGraph(n, n <= DenseVertexLimit)
}

// NewDense returns an edgeless graph that keeps the O(n²)-bit adjacency
// matrix regardless of size. It panics if n < 0.
func NewDense(n int) *Graph { return newGraph(n, true) }

// NewSparse returns an edgeless graph in the CSR-style representation:
// sorted adjacency lists only, no bit matrix. Edge tests cost O(log deg)
// and row unions O(deg), but memory is O(n + m) — the only feasible shape
// for relation graphs with 10⁴–10⁵ arms. It panics if n < 0.
func NewSparse(n int) *Graph { return newGraph(n, false) }

// NewAuto returns an edgeless graph choosing the representation from the
// expected edge density (m / C(n,2)): dense when small enough to be free
// (≤ DenseVertexLimit vertices) or when the matrix fits the memory cap
// and would carry at least DenseDensityMin of its bits; sparse otherwise.
// Generators that know their target density use this so large sparse
// graphs never materialise an O(n²) matrix.
func NewAuto(n int, expectedDensity float64) *Graph {
	dense := n <= DenseVertexLimit ||
		(expectedDensity >= DenseDensityMin && matrixBytes(n) <= denseMatrixByteCap)
	return newGraph(n, dense)
}

// matrixBytes returns the byte size of the adjacency bit matrix for n
// vertices, saturating instead of overflowing.
func matrixBytes(n int) int64 {
	words := int64(n+63) / 64
	return int64(n) * words * 8
}

func newGraph(n int, dense bool) *Graph {
	if n < 0 {
		panic("graphs: negative vertex count")
	}
	words := (n + 63) / 64
	g := &Graph{
		n:      n,
		adj:    make([][]int, n),
		closed: make([][]int, n),
		words:  words,
	}
	// Closed rows start as {v}, carved from one backing array with capped
	// capacity so the first insertion copies out rather than clobbering a
	// sibling row.
	selfBacking := make([]int, n)
	for v := 0; v < n; v++ {
		selfBacking[v] = v
		g.closed[v] = selfBacking[v : v+1 : v+1]
	}
	if dense && words > 0 {
		// One backing array for all rows keeps the graph cache-friendly.
		g.bits = make([][]uint64, n)
		backing := make([]uint64, n*words)
		for v := 0; v < n; v++ {
			g.bits[v] = backing[v*words : (v+1)*words]
		}
	}
	return g
}

// Dense reports whether g keeps the adjacency bit matrix (false for the
// sparse/CSR representation).
func (g *Graph) Dense() bool { return g.bits != nil || g.n == 0 }

// Words returns the number of uint64 words in each adjacency-bitset row —
// the row length callers of OrClosedInto must allocate.
func (g *Graph) Words() int { return g.words }

// NewFromUpper builds a graph from its upper triangle in compressed rows:
// up[start[v]:start[v+1]] lists, in increasing order, the neighbours of v
// greater than v, and start has n+1 entries. The representation follows
// New: the bit matrix is kept up to DenseVertexLimit vertices and dropped
// above it. The input is produced by construction code, not parsed from
// users, so a malformed row panics. Bulk builders such as the
// strategy-graph kernel use this to materialise every edge with a few
// exact-size allocations instead of per-edge sorted inserts.
func NewFromUpper(n int, start, up []int) *Graph {
	if n < 0 || len(start) != n+1 || start[0] != 0 || start[n] != len(up) {
		panic(fmt.Sprintf("graphs: NewFromUpper needs %d monotone row offsets over %d entries", n+1, len(up)))
	}
	g := New(n)
	next := make([]int, n+1) // degrees, then each row's next adjacency slot
	for v := 0; v < n; v++ {
		prev := v
		for _, u := range up[start[v]:start[v+1]] {
			if u <= prev || u >= n {
				panic(fmt.Sprintf("graphs: NewFromUpper row %d is not strictly increasing within (%d, %d)", v, v, n))
			}
			prev = u
			next[u+1]++
		}
		next[v+1] += start[v+1] - start[v]
	}
	for v := 0; v < n; v++ {
		next[v+1] += next[v]
	}
	// Row v of the adjacency backing starts at next[v], and its closed row
	// v entries later, after one self entry per earlier row. Visiting v in
	// increasing order places every lower neighbour of a row before its
	// self entry and upper neighbours, so each row comes out sorted.
	adjBacking := make([]int, 2*len(up))
	closedBacking := make([]int, 2*len(up)+n)
	for v := 0; v < n; v++ {
		g.adj[v] = adjBacking[next[v]:next[v+1]:next[v+1]]
		g.closed[v] = closedBacking[next[v]+v : next[v+1]+v+1 : next[v+1]+v+1]
	}
	for v := 0; v < n; v++ {
		closedBacking[next[v]+v] = v
		for _, u := range up[start[v]:start[v+1]] {
			adjBacking[next[v]] = u
			closedBacking[next[v]+v+1] = u
			next[v]++
			adjBacking[next[u]] = v
			closedBacking[next[u]+u] = v
			next[u]++
			if g.bits != nil {
				g.bits[v][u>>6] |= 1 << (uint(u) & 63)
				g.bits[u][v>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
	g.m = len(up)
	return g
}

// OrClosedInto ORs the closed-neighbourhood bitset of v (adjacency row plus
// the self bit) into dst, which must have at least Words() words. Bulk
// closure construction (package strategy) unions rows this way instead of
// merging sorted slices. Dense graphs OR the matrix row word-at-a-time;
// sparse graphs scatter the adjacency list, O(deg) instead of O(n/64).
func (g *Graph) OrClosedInto(dst []uint64, v int) {
	if !g.validVertex(v) {
		return
	}
	if g.bits != nil {
		OrWords(dst, g.bits[v])
	} else {
		for _, u := range g.adj[v] {
			dst[u>>6] |= 1 << (uint(u) & 63)
		}
	}
	dst[v/64] |= 1 << (uint(v) % 64)
}

// adjBitsInto materialises v's adjacency bitset row. Dense graphs return
// the shared matrix row; sparse graphs clear buf (allocating it at Words()
// length if nil) and scatter the adjacency list into it. Callers must not
// modify a returned shared row.
func (g *Graph) adjBitsInto(buf []uint64, v int) []uint64 {
	if g.bits != nil {
		return g.bits[v]
	}
	if buf == nil {
		buf = make([]uint64, g.words)
	} else {
		buf = buf[:g.words]
		for i := range buf {
			buf[i] = 0
		}
	}
	for _, u := range g.adj[v] {
		buf[u>>6] |= 1 << (uint(u) & 63)
	}
	return buf
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// validVertex reports whether v is a vertex of g.
func (g *Graph) validVertex(v int) bool { return v >= 0 && v < g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error; the paper's relation graphs are simple.
func (g *Graph) AddEdge(u, v int) error {
	if !g.validVertex(u) || !g.validVertex(v) {
		return fmt.Errorf("graphs: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graphs: self-loop at vertex %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graphs: duplicate edge (%d,%d)", u, v)
	}
	g.insert(u, v)
	g.insert(v, u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge for construction code with statically valid input;
// it panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// insert adds v to u's adjacency list, keeping the list sorted. Bulk
// construction (every generator, and any caller adding a vertex's edges in
// increasing neighbour order) appends in O(1); only out-of-order insertion
// pays the O(deg) copy-insert. Keeping the invariant on every insert — as
// opposed to deferring one sort to the first read — means a fully built
// graph is immutable and therefore safe to share across replication
// workers without synchronisation.
func (g *Graph) insert(u, v int) {
	g.adj[u] = insertSorted(g.adj[u], v)
	g.closed[u] = insertSorted(g.closed[u], v)
	if g.bits != nil {
		g.bits[u][v/64] |= 1 << (uint(v) % 64)
	}
}

// insertSorted inserts v into the sorted slice list, appending in O(1)
// when v is the new maximum and paying the O(len) copy-insert otherwise,
// with one more O(1) fast path for the second-to-last position: when
// neighbours arrive in increasing order (every generator) a closed row's
// only out-of-place element is the trailing self entry, so that is where
// almost every non-append insert lands.
func insertSorted(list []int, v int) []int {
	n := len(list)
	if n == 0 || list[n-1] < v {
		return append(list, v)
	}
	list = append(list, 0)
	if n == 1 || list[n-2] < v {
		list[n] = list[n-1]
		list[n-1] = v
		return list
	}
	i := sort.SearchInts(list[:n], v)
	copy(list[i+1:], list[i:n])
	list[i] = v
	return list
}

// HasEdge reports whether the edge {u, v} exists. Out-of-range vertices
// never have edges. O(1) on dense graphs; O(log min-degree) on sparse
// graphs, which binary-search the shorter endpoint's neighbour list.
func (g *Graph) HasEdge(u, v int) bool {
	if !g.validVertex(u) || !g.validVertex(v) {
		return false
	}
	if g.bits != nil {
		return g.bits[u][v/64]&(1<<(uint(v)%64)) != 0
	}
	list := g.adj[u]
	if len(g.adj[v]) < len(list) {
		list, v = g.adj[v], u
	}
	i := sort.SearchInts(list, v)
	return i < len(list) && list[i] == v
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int {
	if !g.validVertex(v) {
		return 0
	}
	return len(g.adj[v])
}

// Neighbors returns a copy of v's neighbour list in increasing order.
func (g *Graph) Neighbors(v int) []int {
	if !g.validVertex(v) {
		return nil
	}
	out := make([]int, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// AppendNeighbors appends v's neighbours to dst and returns the extended
// slice. It performs no allocation when dst has sufficient capacity; use it
// on hot paths instead of Neighbors.
func (g *Graph) AppendNeighbors(dst []int, v int) []int {
	if !g.validVertex(v) {
		return dst
	}
	return append(dst, g.adj[v]...)
}

// ClosedNeighborhood returns {v} ∪ N(v) in increasing order. This is the
// paper's N̄_i: the set whose rewards become visible when arm v is pulled.
// The row is maintained incrementally by AddEdge and returned as a shared
// slice — allocation-free on hot paths (DFL policies read it every round);
// callers must not modify it.
func (g *Graph) ClosedNeighborhood(v int) []int {
	if !g.validVertex(v) {
		return nil
	}
	return g.closed[v]
}

// Edges returns every edge {u, v} with u < v, ordered lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g in the same representation.
func (g *Graph) Clone() *Graph {
	c := newGraph(g.n, g.bits != nil)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				c.MustAddEdge(u, v)
			}
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep, together with the
// mapping from new vertex ids to original ids (orig[i] is the original id
// of subgraph vertex i). Duplicate vertices in keep are ignored and the
// result is ordered by original id.
func (g *Graph) InducedSubgraph(keep []int) (sub *Graph, orig []int) {
	set := make(map[int]bool, len(keep))
	for _, v := range keep {
		if g.validVertex(v) {
			set[v] = true
		}
	}
	orig = make([]int, 0, len(set))
	for v := range set {
		orig = append(orig, v)
	}
	sort.Ints(orig)
	index := make(map[int]int, len(orig))
	for i, v := range orig {
		index[v] = i
	}
	sub = New(len(orig))
	for i, v := range orig {
		for _, w := range g.adj[v] {
			if j, ok := index[w]; ok && i < j {
				sub.MustAddEdge(i, j)
			}
		}
	}
	return sub, orig
}

// Complement returns the complement graph: same vertices, an edge wherever
// g has none (excluding self-loops).
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.HasEdge(u, v) {
				c.MustAddEdge(u, v)
			}
		}
	}
	return c
}

// IsClique reports whether every pair of vertices in vs is adjacent.
// Sets of size 0 and 1 are cliques by convention.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// IsIndependentSet reports whether no pair of vertices in vs is adjacent.
func (g *Graph) IsIndependentSet(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// AvgDegree returns the mean vertex degree (0 for the empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// MaxDegree returns the largest vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Density returns m / C(n,2), the fraction of possible edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(2*g.m) / (float64(g.n) * float64(g.n-1))
}

// String summarises the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, density=%.3f)", g.n, g.m, g.Density())
}

// commonNeighborCount returns |N(u) ∩ N(v)| — word-parallel AND-popcount
// on dense graphs, a sorted-merge intersection count on sparse ones.
func (g *Graph) commonNeighborCount(u, v int) int {
	if g.bits != nil {
		return AndCountWords(g.bits[u], g.bits[v])
	}
	a, b := g.adj[u], g.adj[v]
	total, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			total++
			i++
			j++
		}
	}
	return total
}
