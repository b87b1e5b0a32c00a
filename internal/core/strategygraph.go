package core

import (
	"sort"

	"netbandit/internal/graphs"
	"netbandit/internal/strategy"
)

// BuildStrategyGraph constructs the strategy relation graph SG(F, L) of
// Section IV: one vertex per feasible strategy, and an edge between s_x
// and s_y exactly when each strategy's component arms lie inside the
// other's closure — s_y ⊆ Y_x and s_x ⊆ Y_y. Playing either endpoint of an
// edge reveals every component reward of the other, which is what lets
// DFL-CSO run the single-play side-observation machinery over com-arms.
//
// Only a strategy whose smallest arm lies in Y_x can satisfy s_y ⊆ Y_x, so
// for each x the kernel marks Y_x in a K-length stamp array and visits
// just the first-arm buckets (Set.WithFirstArm) of Y_x's arms, testing
// s_y ⊆ Y_x on the stamp and then s_x ⊆ Y_y on the sorted closure. That is
// Σ_x Σ_{a∈Y_x} |bucket(a)| candidates, never more than the |F|²/2 pairs
// of an all-pairs scan; for the sliding-window family on a degree-8 graph
// it is about 18 per strategy. When K ≤ 64 every arm set and closure is
// one word, and the all-pairs scan's one-AND test is cheaper than
// generating candidates. The result follows graphs.New's representation
// rule: dense up to graphs.DenseVertexLimit vertices, sparse above.
func BuildStrategyGraph(set *strategy.Set) *graphs.Graph {
	n, k := set.Len(), set.K()
	start := make([]int, 1, n+1)
	var up []int // upper-triangle neighbour rows, as graphs.NewFromUpper reads them
	if k <= 64 {
		arm := make([]uint64, n)
		clo := make([]uint64, n)
		for x := 0; x < n; x++ {
			arm[x], clo[x] = wordOf(set.Arms(x)), wordOf(set.Closure(x))
		}
		// Two branch-free passes over the pairs: about half the pairs of a
		// dense family are edges, so a branch on the test mispredicts. The
		// first counts each row's edges, so up is allocated once.
		for x := 0; x < n; x++ {
			ax, cx := arm[x], clo[x]
			c := 0
			for y := x + 1; y < n; y++ {
				c += isZero(arm[y]&^cx | ax&^clo[y])
			}
			start = append(start, start[x]+c)
		}
		// The fill writes every candidate and advances only past edges, so
		// it writes one slot past each row: the next row, filled later, or
		// the spare slot at the end.
		up = make([]int, start[n]+1)
		for x := 0; x < n; x++ {
			ax, cx := arm[x], clo[x]
			row, c := up[start[x]:], 0
			for y := x + 1; y < n; y++ {
				row[c] = y
				c += isZero(arm[y]&^cx | ax&^clo[y])
			}
		}
		return graphs.NewFromUpper(n, start, up[:start[n]])
	}
	stamp := make([]int, k) // stamp[a] == x+1 iff a ∈ Y_x
	for x := 0; x < n; x++ {
		ax, cx := set.Arms(x), set.Closure(x)
		for _, a := range cx {
			stamp[a] = x + 1
		}
		row := len(up)
		for _, a := range cx {
			bucket := set.WithFirstArm(a)
			for _, y := range bucket[sort.SearchInts(bucket, x+1):] {
				if allStamped(set.Arms(y)[1:], stamp, x+1) && isSubset(ax, set.Closure(y)) {
					up = append(up, y)
				}
			}
		}
		sort.Ints(up[row:])
		start = append(start, len(up))
	}
	return graphs.NewFromUpper(n, start, up)
}

// wordOf returns the one-word bitset of a list of arms below 64.
func wordOf(arms []int) uint64 {
	var w uint64
	for _, a := range arms {
		w |= 1 << uint(a)
	}
	return w
}

// isZero returns 1 when w is zero and 0 otherwise, without a branch.
func isZero(w uint64) int {
	return int(1 ^ (w|-w)>>63)
}

// allStamped reports whether stamp[a] == mark for every arm a in the list.
func allStamped(arms, stamp []int, mark int) bool {
	for _, a := range arms {
		if stamp[a] != mark {
			return false
		}
	}
	return true
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i == len(b) || b[i] != v {
			return false
		}
		i++
	}
	return true
}
