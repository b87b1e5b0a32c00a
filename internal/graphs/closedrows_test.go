package graphs

import (
	"reflect"
	"sort"
	"testing"

	"netbandit/internal/rng"
)

// recomputeClosed derives {v} ∪ N(v) from the adjacency list, independent
// of the incrementally maintained row.
func recomputeClosed(g *Graph, v int) []int {
	out := append([]int{v}, g.Neighbors(v)...)
	sort.Ints(out)
	return out
}

// TestClosedRowsUnderRandomInsertOrder inserts the same edge set in random
// orders (the incremental maintenance's worst case: neighbours arriving on
// both sides of the self entry) and checks every closed row.
func TestClosedRowsUnderRandomInsertOrder(t *testing.T) {
	r := rng.New(17)
	ref := Gnp(30, 0.4, rng.New(3))
	edges := ref.Edges()
	for trial := 0; trial < 5; trial++ {
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		g := New(30)
		for _, e := range edges {
			// Randomly flip edge orientation too.
			if r.Bernoulli(0.5) {
				g.MustAddEdge(e[1], e[0])
			} else {
				g.MustAddEdge(e[0], e[1])
			}
		}
		for v := 0; v < g.N(); v++ {
			if got, want := g.ClosedNeighborhood(v), recomputeClosed(g, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: ClosedNeighborhood(%d) = %v, want %v", trial, v, got, want)
			}
		}
	}
}

// TestClosedNeighborhoodZeroAlloc is the satellite fix's guarantee: DFL
// policies call ClosedNeighborhood every round, so it must return the
// shared precomputed row without allocating.
func TestClosedNeighborhoodZeroAlloc(t *testing.T) {
	g := Gnp(50, 0.3, rng.New(5))
	var sink []int
	allocs := testing.AllocsPerRun(1000, func() {
		sink = g.ClosedNeighborhood(17)
	})
	if allocs != 0 {
		t.Fatalf("ClosedNeighborhood allocates %v per call", allocs)
	}
	_ = sink
}

func TestOrClosedInto(t *testing.T) {
	g := Star(8) // hub 0
	dst := make([]uint64, g.Words())
	g.OrClosedInto(dst, 3)
	g.OrClosedInto(dst, 5)
	// N̄_3 ∪ N̄_5 = {0, 3, 5} on a star.
	if dst[0] != (1<<0)|(1<<3)|(1<<5) {
		t.Fatalf("OrClosedInto produced %b", dst[0])
	}
}

// upperRows returns g's upper triangle in NewFromUpper's compressed form.
func upperRows(g *Graph) (start, up []int) {
	start = make([]int, 1, g.N()+1)
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				up = append(up, u)
			}
		}
		start = append(start, len(up))
	}
	return start, up
}

// TestNewFromUpperMatchesAddEdge rebuilds random graphs from their upper
// triangles on both sides of DenseVertexLimit: every list must match the
// incrementally built graph, the representation must follow New's rule,
// and the result must take further edges like any other graph.
func TestNewFromUpperMatchesAddEdge(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{0, 0}, {1, 0}, {70, 0.25}, {70, 1}, {DenseVertexLimit + 1, 0.001}} {
		ref := Gnp(tc.n, tc.p, rng.New(9))
		start, up := upperRows(ref)
		g := NewFromUpper(ref.N(), start, up)
		if g.N() != ref.N() || g.M() != ref.M() {
			t.Fatalf("n=%d: shape (%d,%d), want (%d,%d)", tc.n, g.N(), g.M(), ref.N(), ref.M())
		}
		if g.Dense() != New(tc.n).Dense() {
			t.Fatalf("n=%d: Dense() = %v, want New's choice", tc.n, g.Dense())
		}
		for v := 0; v < ref.N(); v++ {
			if !reflect.DeepEqual(g.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("n=%d: Neighbors(%d) = %v, want %v", tc.n, v, g.Neighbors(v), ref.Neighbors(v))
			}
			if !reflect.DeepEqual(g.ClosedNeighborhood(v), ref.ClosedNeighborhood(v)) {
				t.Fatalf("n=%d: ClosedNeighborhood(%d) = %v, want %v", tc.n, v, g.ClosedNeighborhood(v), ref.ClosedNeighborhood(v))
			}
			for _, u := range ref.Neighbors(v) {
				if !g.HasEdge(u, v) {
					t.Fatalf("n=%d: HasEdge(%d,%d) = false", tc.n, u, v)
				}
			}
		}
		// The result must behave like any other graph under further mutation.
		free := -1
		for u := 0; u < g.N() && free < 0 && u < 100; u++ {
			for v := u + 1; v < g.N(); v++ {
				if !g.HasEdge(u, v) {
					free = u*g.N() + v
					break
				}
			}
		}
		if free >= 0 {
			u, v := free/g.N(), free%g.N()
			g.MustAddEdge(u, v)
			for _, w := range []int{u, v, u + 1} {
				if got, want := g.ClosedNeighborhood(w), recomputeClosed(g, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d: closed row %d stale after post-bulk AddEdge: %v want %v", tc.n, w, got, want)
				}
			}
		}
	}
}

func TestNewFromUpperRejectsBadInput(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("wrong offsets length", func() { NewFromUpper(3, []int{0, 0}, nil) })
	expectPanic("offsets miss entries", func() { NewFromUpper(3, []int{0, 0, 0, 0}, []int{1}) })
	expectPanic("self-loop", func() { NewFromUpper(3, []int{0, 0, 1, 1}, []int{1}) })
	expectPanic("lower neighbour", func() { NewFromUpper(3, []int{0, 0, 0, 1}, []int{0}) })
	expectPanic("out of range", func() { NewFromUpper(3, []int{0, 1, 1, 1}, []int{3}) })
	expectPanic("unsorted row", func() { NewFromUpper(3, []int{0, 2, 2, 2}, []int{2, 1}) })
	expectPanic("duplicate", func() { NewFromUpper(3, []int{0, 2, 2, 2}, []int{1, 1}) })
}
