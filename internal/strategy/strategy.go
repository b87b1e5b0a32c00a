// Package strategy models the combinatorial action spaces ("com-arms") of
// the paper's CSO and CSR scenarios: explicitly enumerable families of
// feasible arm subsets, their neighbourhood closures Y_x, and the
// combinatorial oracles that maximise a per-arm weight sum over the family.
package strategy

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"netbandit/internal/graphs"
)

// MaxEnumerable caps the size of explicitly enumerated strategy sets; the
// constructors return an error rather than silently allocating gigabytes
// when a caller asks for, say, TopM(100, 10).
const MaxEnumerable = 1 << 20

// Set is an immutable, explicitly enumerated family of feasible strategies
// over arms 0..K-1. Strategies are indexed 0..Len()-1. Each strategy is a
// non-empty sorted set of distinct arms; its closure Y_x is the union of
// closed neighbourhoods of its component arms under the relation graph
// supplied at construction.
type Set struct {
	k      int
	graph  *graphs.Graph // never nil after construction (empty graph if none given)
	arms   [][]int
	closed [][]int
	name   string
	maxY   int
	maxM   int

	// First-arm buckets: byFirst[firstStart[a]:firstStart[a+1]] lists, in
	// increasing order, the strategies whose smallest arm is a.
	byFirst    []int
	firstStart []int
}

// NewExplicit builds a Set from caller-supplied strategies. The graph may
// be nil (closures then equal the strategies themselves). Strategies must
// be non-empty, within range, and duplicate-free; duplicated strategies
// are rejected.
func NewExplicit(k int, strategies [][]int, g *graphs.Graph) (*Set, error) {
	if k <= 0 {
		return nil, fmt.Errorf("strategy: need a positive arm count, got %d", k)
	}
	if g != nil && g.N() != k {
		return nil, fmt.Errorf("strategy: graph has %d vertices, want %d", g.N(), k)
	}
	if g == nil {
		g = graphs.Empty(k)
	}
	if len(strategies) == 0 {
		return nil, fmt.Errorf("strategy: empty strategy family")
	}
	if len(strategies) > MaxEnumerable {
		return nil, fmt.Errorf("strategy: %d strategies exceeds enumeration cap %d", len(strategies), MaxEnumerable)
	}
	s := &Set{
		k:      k,
		graph:  g,
		arms:   make([][]int, 0, len(strategies)),
		closed: make([][]int, 0, len(strategies)),
		name:   "explicit",
	}
	index := make(map[string]int, len(strategies)) // canonical arm-set key -> strategy index
	row := make([]uint64, (k+63)/64)               // Y_x scratch, cleared after each strategy
	for xi, raw := range strategies {
		a := append([]int(nil), raw...)
		sort.Ints(a)
		if len(a) == 0 {
			return nil, fmt.Errorf("strategy: strategy %d is empty", xi)
		}
		for j, arm := range a {
			if arm < 0 || arm >= k {
				return nil, fmt.Errorf("strategy: strategy %d contains out-of-range arm %d", xi, arm)
			}
			if j > 0 && a[j-1] == arm {
				return nil, fmt.Errorf("strategy: strategy %d repeats arm %d", xi, arm)
			}
		}
		key := canonicalKey(a)
		if prev, dup := index[key]; dup {
			return nil, fmt.Errorf("strategy: strategy %d duplicates strategy %d", xi, prev)
		}
		index[key] = len(s.arms)
		s.arms = append(s.arms, a)
		for _, arm := range a {
			g.OrClosedInto(row, arm)
		}
		cl := bitsetToSorted(row)
		for _, v := range cl {
			row[v>>6] = 0
		}
		s.closed = append(s.closed, cl)
		if len(cl) > s.maxY {
			s.maxY = len(cl)
		}
		if len(a) > s.maxM {
			s.maxM = len(a)
		}
	}
	// Counting sort by smallest arm; a stable pass keeps each bucket in
	// increasing strategy order.
	s.firstStart = make([]int, k+1)
	for _, a := range s.arms {
		s.firstStart[a[0]+1]++
	}
	for a := 0; a < k; a++ {
		s.firstStart[a+1] += s.firstStart[a]
	}
	next := append([]int(nil), s.firstStart[:k]...)
	s.byFirst = make([]int, len(s.arms))
	for x, a := range s.arms {
		s.byFirst[next[a[0]]] = x
		next[a[0]]++
	}
	return s, nil
}

// bitsetToSorted enumerates the set bits of row as a sorted []int.
func bitsetToSorted(row []uint64) []int {
	total := 0
	for _, w := range row {
		total += bits.OnesCount64(w)
	}
	out := make([]int, 0, total)
	for wi, w := range row {
		base := wi * 64
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// canonicalKey builds a map key for a sorted arm set.
func canonicalKey(sorted []int) string {
	var sb strings.Builder
	for i, a := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(a))
	}
	return sb.String()
}

// TopM enumerates all size-m subsets of the k arms — the "place at most m
// advertisements" constraint from the paper's introduction, with exactly m
// slots filled. It returns an error when C(k, m) exceeds MaxEnumerable.
func TopM(k, m int, g *graphs.Graph) (*Set, error) {
	if m <= 0 || m > k {
		return nil, fmt.Errorf("strategy: TopM needs 0 < m <= k, got m=%d k=%d", m, k)
	}
	if c := binomial(k, m); c < 0 || c > MaxEnumerable {
		return nil, fmt.Errorf("strategy: C(%d,%d) exceeds enumeration cap %d", k, m, MaxEnumerable)
	}
	var all [][]int
	combo := make([]int, m)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == m {
			all = append(all, append([]int(nil), combo...))
			return
		}
		for a := start; a <= k-(m-depth); a++ {
			combo[depth] = a
			rec(a+1, depth+1)
		}
	}
	rec(0, 0)
	s, err := NewExplicit(k, all, g)
	if err != nil {
		return nil, err
	}
	s.name = fmt.Sprintf("top%d", m)
	return s, nil
}

// UpToM enumerates all non-empty subsets with at most m arms — the paper's
// relaxed constraint where a strategy "may consist of less than M random
// variables".
func UpToM(k, m int, g *graphs.Graph) (*Set, error) {
	if m <= 0 || m > k {
		return nil, fmt.Errorf("strategy: UpToM needs 0 < m <= k, got m=%d k=%d", m, k)
	}
	total := 0
	for size := 1; size <= m; size++ {
		c := binomial(k, size)
		if c < 0 || total+c > MaxEnumerable {
			return nil, fmt.Errorf("strategy: Σ C(%d,1..%d) exceeds enumeration cap %d", k, m, MaxEnumerable)
		}
		total += c
	}
	var all [][]int
	combo := make([]int, 0, m)
	var rec func(start int)
	rec = func(start int) {
		if len(combo) > 0 {
			all = append(all, append([]int(nil), combo...))
		}
		if len(combo) == m {
			return
		}
		for a := start; a < k; a++ {
			combo = append(combo, a)
			rec(a + 1)
			combo = combo[:len(combo)-1]
		}
	}
	rec(0)
	s, err := NewExplicit(k, all, g)
	if err != nil {
		return nil, err
	}
	s.name = fmt.Sprintf("upto%d", m)
	return s, nil
}

// IndependentSets enumerates the non-empty independent sets of g with at
// most maxSize vertices — the max-weight-independent-set strategy space of
// the paper's Fig. 2 worked example.
func IndependentSets(g *graphs.Graph, maxSize int) (*Set, error) {
	if g == nil {
		return nil, fmt.Errorf("strategy: IndependentSets needs a graph")
	}
	if maxSize <= 0 {
		return nil, fmt.Errorf("strategy: IndependentSets needs maxSize > 0")
	}
	k := g.N()
	var all [][]int
	combo := make([]int, 0, maxSize)
	var rec func(start int) error
	rec = func(start int) error {
		if len(combo) > 0 {
			if len(all) >= MaxEnumerable {
				return fmt.Errorf("strategy: independent-set family exceeds enumeration cap %d", MaxEnumerable)
			}
			all = append(all, append([]int(nil), combo...))
		}
		if len(combo) == maxSize {
			return nil
		}
		for a := start; a < k; a++ {
			ok := true
			for _, b := range combo {
				if g.HasEdge(a, b) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			combo = append(combo, a)
			if err := rec(a + 1); err != nil {
				return err
			}
			combo = combo[:len(combo)-1]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("strategy: graph has no independent sets (no vertices)")
	}
	s, err := NewExplicit(k, all, g)
	if err != nil {
		return nil, err
	}
	s.name = fmt.Sprintf("indsets%d", maxSize)
	return s, nil
}

// Singletons returns the trivial family {{0}, {1}, ..., {k-1}}, under which
// combinatorial play degenerates to single play — handy for cross-checking
// the combinatorial algorithms against their single-play counterparts.
func Singletons(k int, g *graphs.Graph) (*Set, error) {
	all := make([][]int, k)
	for i := range all {
		all[i] = []int{i}
	}
	s, err := NewExplicit(k, all, g)
	if err != nil {
		return nil, err
	}
	s.name = "singletons"
	return s, nil
}

// binomial returns C(n, k), or -1 on overflow past MaxEnumerable bounds.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c < 0 || c > 4*MaxEnumerable {
			return -1
		}
	}
	return c
}

// K returns the number of arms.
func (s *Set) K() int { return s.k }

// Len returns the number of strategies.
func (s *Set) Len() int { return len(s.arms) }

// Name identifies the family (e.g. "top2", "indsets2").
func (s *Set) Name() string { return s.name }

// Graph returns the relation graph used to compute closures. Callers must
// treat it as read-only.
func (s *Set) Graph() *graphs.Graph { return s.graph }

// Arms returns the sorted component arms of strategy x. The slice is
// shared; callers must not modify it.
func (s *Set) Arms(x int) []int { return s.arms[x] }

// Closure returns Y_x = ∪_{i∈s_x} N̄_i, sorted. The slice is shared;
// callers must not modify it.
func (s *Set) Closure(x int) []int { return s.closed[x] }

// MaxClosureSize returns N = max_x |Y_x|, the constant in Theorem 4.
func (s *Set) MaxClosureSize() int { return s.maxY }

// MaxArms returns M = max_x |s_x|, the largest strategy size in the family.
func (s *Set) MaxArms() int { return s.maxM }

// WithFirstArm returns, in increasing order, the strategies whose
// smallest arm is a. The slice is shared; callers must not modify it.
func (s *Set) WithFirstArm(a int) []int {
	return s.byFirst[s.firstStart[a]:s.firstStart[a+1]]
}

// IndexOf returns the index of the strategy with exactly the given arms
// (order-insensitive), or ok=false if the family does not contain it. It
// scans the strategies sharing the query's smallest arm and allocates
// nothing.
func (s *Set) IndexOf(arms []int) (x int, ok bool) {
	if len(arms) == 0 {
		return 0, false
	}
	lo := arms[0]
	for _, a := range arms[1:] {
		lo = min(lo, a)
	}
	if lo < 0 || lo >= s.k {
		return 0, false
	}
	for _, y := range s.WithFirstArm(lo) {
		if sameArms(s.arms[y], arms) {
			return y, true
		}
	}
	return 0, false
}

// sameArms reports whether the sorted, duplicate-free row holds exactly
// the arms of query, in any order: with equal lengths, a query holding
// every row arm cannot repeat an arm or hold another.
func sameArms(row, query []int) bool {
	if len(row) != len(query) {
		return false
	}
	for _, a := range row {
		if !slices.Contains(query, a) {
			return false
		}
	}
	return true
}

// DirectMean returns λ_x = Σ_{i∈s_x} w_i for the given per-arm values.
func (s *Set) DirectMean(x int, w []float64) float64 {
	var sum float64
	for _, i := range s.arms[x] {
		sum += w[i]
	}
	return sum
}

// ClosureMean returns σ_x = Σ_{i∈Y_x} w_i for the given per-arm values.
func (s *Set) ClosureMean(x int, w []float64) float64 {
	var sum float64
	for _, i := range s.closed[x] {
		sum += w[i]
	}
	return sum
}

// BestDirect returns Argmax over the strategies' arms: the strategy
// maximising DirectMean, and its value.
func (s *Set) BestDirect(w []float64) (x int, mean float64) {
	return s.Argmax(w, false)
}

// BestClosure returns Argmax over the closures Y_x.
func (s *Set) BestClosure(w []float64) (x int, mean float64) {
	return s.Argmax(w, true)
}

// Argmax is the one exact strategy oracle: it returns the strategy
// maximising Σ w_i over its arms (over Y_x when closure is set) and that
// row's sum in stored order. Rows compare by strict >, so the lowest index
// wins ties and a NaN row never replaces row 0's incumbent sum. While some
// weight is +Inf (an unobserved arm), rows compare first by their count of
// +Inf entries, then by the sum of the rest. Argmax does not prune by a
// bound, allocates nothing and keeps no state, so a Set serves concurrent
// callers.
func (s *Set) Argmax(w []float64, closure bool) (x int, sum float64) {
	rows := s.arms
	if closure {
		rows = s.closed
	}
	for _, v := range w {
		if math.IsInf(v, 1) {
			return argmaxInf(rows, w)
		}
	}
	for _, i := range rows[0] {
		sum += w[i]
	}
	for y := 1; y < len(rows); y++ {
		var v float64
		for _, i := range rows[y] {
			v += w[i]
		}
		if v > sum {
			x, sum = y, v
		}
	}
	return x, sum
}

// argmaxInf is Argmax's lexicographic scan for weights containing +Inf.
func argmaxInf(rows [][]int, w []float64) (int, float64) {
	bestX, bestInf, bestSum := 0, -1, math.Inf(-1)
	for x, row := range rows {
		inf, sum := 0, 0.0
		for _, i := range row {
			if math.IsInf(w[i], 1) {
				inf++
			} else {
				sum += w[i]
			}
		}
		if inf > bestInf || (inf == bestInf && sum > bestSum) {
			bestX, bestInf, bestSum = x, inf, sum
		}
	}
	var sum float64
	for _, i := range rows[bestX] {
		sum += w[i]
	}
	return bestX, sum
}

// String summarises the family.
func (s *Set) String() string {
	return fmt.Sprintf("strategies(%s, |F|=%d, K=%d, N=%d)", s.name, s.Len(), s.k, s.maxY)
}
