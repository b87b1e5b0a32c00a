package core

import (
	"netbandit/internal/graphs"
	"netbandit/internal/strategy"
)

// This file keeps the two strategy-graph kernels that came before the
// first-arm candidate kernel, so the property tests can check
// BuildStrategyGraph against independently derived answers.

// buildStrategyGraphAllPairs is the all-pairs bitset kernel, verbatim but
// for its inputs: the arm/closure bitset rows strategy.Set used to carry
// come from refRows, and SubsetWords and NewFromBitRows from the helpers
// below.
func buildStrategyGraphAllPairs(s *strategy.Set) *graphs.Graph {
	set := newRefRows(s)
	n := set.Len()
	wn := (n + 63) / 64
	rows := make([]uint64, n*wn)
	if set.Words() == 1 {
		// Scalar kernel: each strategy's arm and closure sets are one word.
		arm := make([]uint64, n)
		clo := make([]uint64, n)
		for x := 0; x < n; x++ {
			arm[x] = set.ArmBits(x)[0]
			clo[x] = set.ClosureBits(x)[0]
		}
		for x := 0; x < n; x++ {
			ax, cx := arm[x], clo[x]
			rowx := rows[x*wn : (x+1)*wn]
			for y := x + 1; y < n; y++ {
				if arm[y]&^cx == 0 && ax&^clo[y] == 0 {
					rowx[y>>6] |= 1 << (uint(y) & 63)
					rows[y*wn+(x>>6)] |= 1 << (uint(x) & 63)
				}
			}
		}
		return graphFromBitRows(n, rows)
	}
	// Multi-word kernel. Hoist the per-strategy rows/lists out of the pair
	// loop once — set.ArmBits etc. are slice-header computations, but |F|²
	// of them is real money at n = 10⁴.
	armRows := make([][]uint64, n)
	cloRows := make([][]uint64, n)
	armsList := make([][]int, n)
	for x := 0; x < n; x++ {
		armRows[x] = set.ArmBits(x)
		cloRows[x] = set.ClosureBits(x)
		armsList[x] = set.Arms(x)
	}
	if set.MaxArms() < set.Words() {
		// Strategies are small relative to the row width (e.g. singletons
		// or windows at K = 10⁴: M words per row, but only a handful of
		// arms). Probing each component arm's bit in the other closure is
		// O(M) per ordered pair instead of O(K/64).
		for x := 0; x < n; x++ {
			ax, cx := armsList[x], cloRows[x]
			rowx := rows[x*wn : (x+1)*wn]
			for y := x + 1; y < n; y++ {
				if armsInBits(armsList[y], cx) && armsInBits(ax, cloRows[y]) {
					rowx[y>>6] |= 1 << (uint(y) & 63)
					rows[y*wn+(x>>6)] |= 1 << (uint(x) & 63)
				}
			}
		}
		return graphFromBitRows(n, rows)
	}
	for x := 0; x < n; x++ {
		ax, cx := armRows[x], cloRows[x]
		rowx := rows[x*wn : (x+1)*wn]
		for y := x + 1; y < n; y++ {
			if subsetWords(armRows[y], cx) && subsetWords(ax, cloRows[y]) {
				rowx[y>>6] |= 1 << (uint(y) & 63)
				rows[y*wn+(x>>6)] |= 1 << (uint(x) & 63)
			}
		}
	}
	return graphFromBitRows(n, rows)
}

// armsInBits reports whether every arm in the list has its bit set in row.
func armsInBits(arms []int, row []uint64) bool {
	for _, a := range arms {
		if row[a>>6]&(1<<(uint(a)&63)) == 0 {
			return false
		}
	}
	return true
}

// refRows is a strategy set plus the arm and closure bitset rows, one
// words-length row per strategy, that the all-pairs kernel tests on.
type refRows struct {
	*strategy.Set
	words                int
	armBits, closureBits []uint64
}

func newRefRows(s *strategy.Set) *refRows {
	r := &refRows{Set: s, words: (s.K() + 63) / 64}
	r.armBits = make([]uint64, s.Len()*r.words)
	r.closureBits = make([]uint64, s.Len()*r.words)
	for x := 0; x < s.Len(); x++ {
		for _, a := range s.Arms(x) {
			r.armBits[x*r.words+a/64] |= 1 << (uint(a) % 64)
		}
		for _, a := range s.Closure(x) {
			r.closureBits[x*r.words+a/64] |= 1 << (uint(a) % 64)
		}
	}
	return r
}

func (r *refRows) Words() int { return r.words }

func (r *refRows) ArmBits(x int) []uint64 { return r.armBits[x*r.words : (x+1)*r.words] }

func (r *refRows) ClosureBits(x int) []uint64 { return r.closureBits[x*r.words : (x+1)*r.words] }

// subsetWords reports whether every bit of a is also set in b.
func subsetWords(a, b []uint64) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// graphFromBitRows builds the graph of a symmetric adjacency bit matrix
// with plain AddEdge calls, in graphs.New's representation.
func graphFromBitRows(n int, rows []uint64) *graphs.Graph {
	wn := (n + 63) / 64
	g := graphs.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rows[u*wn+v>>6]&(1<<(uint(v)&63)) != 0 {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// buildStrategyGraphMerge is the pre-bitset reference implementation: a
// sorted-merge containment test on every pair.
func buildStrategyGraphMerge(set *strategy.Set) *graphs.Graph {
	n := set.Len()
	sg := graphs.New(n)
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if isSubset(set.Arms(y), set.Closure(x)) && isSubset(set.Arms(x), set.Closure(y)) {
				sg.MustAddEdge(x, y)
			}
		}
	}
	return sg
}
