package core

import (
	"fmt"
	"reflect"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// checkStrategyGraph builds SG(F, L) with the candidate kernel and fails
// unless it equals both reference kernels list for list and follows
// graphs.New's representation rule.
func checkStrategyGraph(t testing.TB, set *strategy.Set, label string) *graphs.Graph {
	t.Helper()
	got := BuildStrategyGraph(set)
	if err := sameGraph(got, buildStrategyGraphAllPairs(set)); err != nil {
		t.Fatalf("%s: vs all-pairs kernel: %v", label, err)
	}
	if err := sameGraph(got, buildStrategyGraphMerge(set)); err != nil {
		t.Fatalf("%s: vs merge reference: %v", label, err)
	}
	if got.Dense() != graphs.New(set.Len()).Dense() {
		t.Fatalf("%s: Dense() = %v at n=%d, want graphs.New's choice", label, got.Dense(), set.Len())
	}
	return got
}

// sameGraph reports the first discrepancy between two graphs: edge count,
// any neighbour or closed-neighbourhood list, or an edge test. Non-edges
// are probed pair by pair on graphs small enough to afford it.
func sameGraph(a, b *graphs.Graph) error {
	if a.N() != b.N() || a.M() != b.M() {
		return fmt.Errorf("shape differs: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		if got, want := a.Neighbors(v), b.Neighbors(v); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Neighbors(%d) = %v, want %v", v, got, want)
		}
		if got, want := a.ClosedNeighborhood(v), b.ClosedNeighborhood(v); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("ClosedNeighborhood(%d) = %v, want %v", v, got, want)
		}
		for _, u := range b.Neighbors(v) {
			if !a.HasEdge(v, u) || !a.HasEdge(u, v) {
				return fmt.Errorf("HasEdge(%d,%d) = false on a listed edge", v, u)
			}
		}
	}
	if a.N() <= 400 {
		for u := 0; u < a.N(); u++ {
			for v := u + 1; v < a.N(); v++ {
				if a.HasEdge(u, v) != b.HasEdge(u, v) {
					return fmt.Errorf("HasEdge(%d,%d) = %v, want %v", u, v, a.HasEdge(u, v), b.HasEdge(u, v))
				}
			}
		}
	}
	return nil
}

// oneWayPairs counts strategy pairs where exactly one of the two
// containments s_y ⊆ Y_x and s_x ⊆ Y_y holds: the pairs a kernel that
// dropped either test would wrongly join.
func oneWayPairs(set *strategy.Set) int {
	count := 0
	for x := 0; x < set.Len(); x++ {
		for y := x + 1; y < set.Len(); y++ {
			if isSubset(set.Arms(y), set.Closure(x)) != isSubset(set.Arms(x), set.Closure(y)) {
				count++
			}
		}
	}
	return count
}

// TestBitsetStrategyGraphMatchesMerge checks the kernel against both
// references on random top-M, up-to-M and sliding-window families over
// random relation graphs, on both sides of the K = 64 one-word boundary.
func TestBitsetStrategyGraphMatchesMerge(t *testing.T) {
	type family func(k, m int, g *graphs.Graph) (*strategy.Set, error)
	cases := []struct {
		name   string
		build  family
		k, m   int
		p      float64
		sparse bool
	}{
		{"top", strategy.TopM, 8, 2, 0.3, false},
		{"top", strategy.TopM, 12, 2, 0.5, false},
		{"top", strategy.TopM, 14, 3, 0.2, false},
		{"top", strategy.TopM, 20, 2, 0.3, false},
		{"top", strategy.TopM, 70, 2, 0.1, false}, // two-word rows
		{"top", strategy.TopM, 70, 1, 0.4, false}, // singleton family on a multi-word graph
		{"upto", strategy.UpToM, 10, 3, 0.3, false},
		{"upto", strategy.UpToM, 16, 4, 0.2, false},
		{"upto", strategy.UpToM, 70, 2, 0.05, false},
		{"window", bandit.WindowStrategies, 40, 3, 0.15, false},
		{"window", bandit.WindowStrategies, 300, 2, 8.0 / 299, true},
		{"window", bandit.WindowStrategies, 300, 5, 8.0 / 299, true},
	}
	for ci, tc := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			r := rng.New(seed*31 + uint64(ci) + 1)
			g := graphs.Gnp(tc.k, tc.p, r)
			if tc.sparse {
				g = graphs.GnpSparse(tc.k, tc.p, r)
			}
			set, err := tc.build(tc.k, tc.m, g)
			if err != nil {
				t.Fatal(err)
			}
			checkStrategyGraph(t, set, fmt.Sprintf("%s k=%d m=%d p=%v seed=%d", tc.name, tc.k, tc.m, tc.p, seed))
		}
	}
}

// TestStrategyGraphEmptyAndCompleteGraphs pins the two extremes: with no
// relation edges Y_x = s_x and distinct strategies are never joined; on
// the complete graph every closure is every arm and SG is complete.
func TestStrategyGraphEmptyAndCompleteGraphs(t *testing.T) {
	for _, k := range []int{10, 70} {
		family := randomFamily(k, 150, 1, 4, rng.New(uint64(k)))
		for _, tc := range []struct {
			name  string
			g     *graphs.Graph
			edges int
		}{
			{"empty", graphs.Empty(k), 0},
			{"complete", graphs.Complete(k), 150 * 149 / 2},
		} {
			set, err := strategy.NewExplicit(k, family, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			sg := checkStrategyGraph(t, set, fmt.Sprintf("%s k=%d", tc.name, k))
			if sg.M() != tc.edges {
				t.Fatalf("%s k=%d: SG has %d edges, want %d", tc.name, k, sg.M(), tc.edges)
			}
		}
	}
}

// randomFamily draws count distinct random strategies of sizes in
// [minSize, maxSize] over k arms.
func randomFamily(k, count, minSize, maxSize int, r *rng.RNG) [][]int {
	seen := make(map[string]bool, count)
	var all [][]int
	for len(all) < count {
		size := minSize + r.Intn(maxSize-minSize+1)
		picked := make(map[int]bool, size)
		for len(picked) < size {
			picked[r.Intn(k)] = true
		}
		s := make([]int, 0, size)
		for a := range picked {
			s = append(s, a)
		}
		sortInts(s)
		key := fmt.Sprint(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		all = append(all, s)
	}
	return all
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestStrategyGraphWordBoundaries covers K values straddling one-, two-
// and multi-word rows, with strategies of one to three arms and with
// strategies at least as wide as a row in words. Each K must produce
// edges and one-way pairs, so the reference check is not vacuous.
func TestStrategyGraphWordBoundaries(t *testing.T) {
	for _, k := range []int{63, 64, 65, 127, 128, 129, 1000} {
		words := (k + 63) / 64
		p := 0.1
		if k >= 1000 {
			p = 0.01
		}
		edges, oneWay := 0, 0
		for seed := uint64(0); seed < 2; seed++ {
			g := graphs.Gnp(k, p, rng.New(uint64(k)*7+seed))
			for _, fam := range []struct {
				name     string
				count    int
				min, max int
				seed     uint64
			}{
				{"small", 120, 1, 3, seed + 1},
				{"wide", 60, words, words + 4, seed + 3},
			} {
				set, err := strategy.NewExplicit(k, randomFamily(k, fam.count, fam.min, fam.max, rng.New(fam.seed)), g)
				if err != nil {
					t.Fatal(err)
				}
				edges += checkStrategyGraph(t, set, fmt.Sprintf("k=%d seed=%d %s", k, seed, fam.name)).M()
				oneWay += oneWayPairs(set)
			}
		}
		if edges == 0 || oneWay == 0 {
			t.Fatalf("k=%d: %d edges and %d one-way pairs; the cases test nothing", k, edges, oneWay)
		}
	}
}

// TestBitsetStrategyGraphExplicitFamilies covers hand-built families whose
// closures interlock asymmetrically (one containment holding without the
// other), which the random top-M cases rarely produce, at K = 6 and at
// K = 130 where the same shape sits on a multi-word path.
func TestBitsetStrategyGraphExplicitFamilies(t *testing.T) {
	for _, k := range []int{6, 130} {
		g := graphs.Path(k) // 0-1-2-...
		set, err := strategy.NewExplicit(k, [][]int{
			{0}, {1}, {0, 1}, {2, 3}, {4, 5}, {1, 4}, {k - 3, k - 1}, {0, k - 1},
		}, g)
		if err != nil {
			t.Fatal(err)
		}
		if oneWayPairs(set) == 0 {
			t.Fatalf("k=%d: family has no one-way pairs", k)
		}
		checkStrategyGraph(t, set, fmt.Sprintf("explicit k=%d", k))
	}
}

// TestStrategyGraphSparseAboveDenseLimit builds an SG with more vertices
// than graphs.DenseVertexLimit: the result must be sparse (no n² matrix)
// and still match both references.
func TestStrategyGraphSparseAboveDenseLimit(t *testing.T) {
	k := graphs.DenseVertexLimit + 100
	g := graphs.GnpSparse(k, 8.0/float64(k-1), rng.New(5))
	set, err := bandit.WindowStrategies(k, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	sg := checkStrategyGraph(t, set, "windows above the dense limit")
	if sg.Dense() || sg.M() == 0 {
		t.Fatalf("SG dense=%v with %d edges, want sparse with edges", sg.Dense(), sg.M())
	}
}

// FuzzStrategyGraph checks the kernel against both references on random
// families: K up to 140 crosses the one-word boundary, the density byte
// runs from the empty to the complete graph, and strategies hold up to
// four arms.
func FuzzStrategyGraph(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(80), uint8(20), uint8(1))
	f.Add(uint64(2), uint8(70), uint8(20), uint8(60), uint8(2))
	f.Add(uint64(3), uint8(129), uint8(255), uint8(40), uint8(3))
	f.Add(uint64(4), uint8(100), uint8(0), uint8(90), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, kb, pb, draws, sizeb uint8) {
		k := 1 + int(kb)%140
		maxSize := 1 + int(sizeb)%4
		r := rng.New(seed)
		g := graphs.Gnp(k, float64(pb)/255, r)
		seen := make(map[string]bool)
		var family [][]int
		for i := 0; i <= int(draws)%100; i++ {
			picked := make(map[int]bool)
			for n := 1 + r.Intn(maxSize); len(picked) < min(n, k); {
				picked[r.Intn(k)] = true
			}
			s := make([]int, 0, len(picked))
			for a := range picked {
				s = append(s, a)
			}
			sortInts(s)
			if key := fmt.Sprint(s); !seen[key] {
				seen[key] = true
				family = append(family, s)
			}
		}
		set, err := strategy.NewExplicit(k, family, g)
		if err != nil {
			t.Fatal(err)
		}
		checkStrategyGraph(t, set, fmt.Sprintf("k=%d |F|=%d", k, set.Len()))
	})
}
