package strategy

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

// refGreedyOracle is GreedyOracle.ArgmaxClosure as it was before it went
// allocation-free, verbatim but for the strategy lookup: the old IndexOf
// read a canonical-key map the Set no longer keeps, and refIndexOf keeps
// its contract with a linear scan.
func refGreedyOracle(o GreedyOracle, s *Set, w []float64) int {
	if o.Size <= 0 {
		return ExactOracle{}.ArgmaxClosure(s, w)
	}
	g := s.Graph()
	k := s.K()
	covered := make([]bool, k)
	chosen := make([]int, 0, o.Size)
	inSet := make([]bool, k)
	for len(chosen) < o.Size && len(chosen) < k {
		bestArm := -1
		bestInf := 0
		bestGain := math.Inf(-1)
		for a := 0; a < k; a++ {
			if inSet[a] {
				continue
			}
			inf, gain := 0, 0.0
			for _, j := range g.ClosedNeighborhood(a) {
				if covered[j] {
					continue
				}
				if math.IsInf(w[j], 1) {
					inf++
				} else {
					gain += w[j]
				}
			}
			if inf > bestInf || (inf == bestInf && gain > bestGain) {
				bestArm, bestInf, bestGain = a, inf, gain
			}
		}
		if bestArm < 0 {
			break
		}
		chosen = append(chosen, bestArm)
		inSet[bestArm] = true
		for _, j := range g.ClosedNeighborhood(bestArm) {
			covered[j] = true
		}
	}
	sort.Ints(chosen)
	if x, ok := refIndexOf(s, chosen); ok {
		return x
	}
	// The greedy set is not feasible under this family; fall back to the
	// optimal answer rather than returning something invalid.
	return ExactOracle{}.ArgmaxClosure(s, w)
}

// refIndexOf is IndexOf's contract: sort a copy of the query and find the
// strategy with exactly those arms.
func refIndexOf(s *Set, arms []int) (int, bool) {
	a := append([]int(nil), arms...)
	sort.Ints(a)
	for x := 0; x < s.Len(); x++ {
		if slices.Equal(s.Arms(x), a) {
			return x, true
		}
	}
	return 0, false
}

// TestGreedyOracleMatchesReference: the allocation-free greedy pass picks
// the same strategy as the old one over random TopM, UpToM and explicit
// families and weights with +Inf, −Inf, NaN and tied entries, at sizes up
// to one past the family's, where the greedy set is often infeasible and
// the exact fallback answers.
func TestGreedyOracleMatchesReference(t *testing.T) {
	r := rng.New(23)
	cases := 400
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		s := randomFamily(t, r)
		for i := 0; i < 6; i++ {
			checkGreedy(t, s, GreedyOracle{Size: r.Intn(s.MaxArms() + 2)}, randomWeights(r, s.K()))
		}
	}
	// Past K = 1024 the covered-arm bitset no longer fits on the stack.
	big, err := UpToM(1100, 1, graphs.Gnp(1100, 0.01, r))
	if err != nil {
		t.Fatal(err)
	}
	for size := 1; size <= 2; size++ {
		checkGreedy(t, big, GreedyOracle{Size: size}, randomWeights(r, big.K()))
	}
}

func checkGreedy(t *testing.T, s *Set, o GreedyOracle, w []float64) {
	t.Helper()
	if got, want := o.ArgmaxClosure(s, w), refGreedyOracle(o, s, w); got != want {
		t.Fatalf("%v, %s, w=%v: got %d (%v), want %d (%v)", s, o.Name(), w, got, s.Arms(got), want, s.Arms(want))
	}
}

// TestIndexOfMatchesReference: the first-arm bucket lookup finds every
// strategy from any order of its arms, and agrees with the reference on
// random queries, including repeated, out-of-range and empty ones.
func TestIndexOfMatchesReference(t *testing.T) {
	r := rng.New(24)
	for c := 0; c < 150; c++ {
		s := randomFamily(t, r)
		for x := 0; x < s.Len(); x++ {
			q := append([]int(nil), s.Arms(x)...)
			r.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
			if got, ok := s.IndexOf(q); !ok || got != x {
				t.Fatalf("case %d: IndexOf(%v) = %d, %v; want %d", c, q, got, ok, x)
			}
		}
		for i := 0; i < 50; i++ {
			q := make([]int, r.Intn(4))
			for j := range q {
				q[j] = r.Intn(s.K()+2) - 1
			}
			gx, gok := s.IndexOf(q)
			wx, wok := refIndexOf(s, q)
			if gx != wx || gok != wok {
				t.Fatalf("case %d: IndexOf(%v) = %d, %v; want %d, %v", c, q, gx, gok, wx, wok)
			}
		}
	}
}

// TestGreedyOracleAllocatesNothing: DFL-CSR with the greedy oracle calls
// it every round, on finite weights and while arms are unobserved.
func TestGreedyOracleAllocatesNothing(t *testing.T) {
	r := rng.New(3)
	s, err := TopM(20, 2, graphs.Gnp(20, 0.3, r))
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 20)
	for i := range w {
		w[i] = r.Float64()
	}
	winf := append([]float64(nil), w...)
	winf[7] = math.Inf(1)
	o := GreedyOracle{Size: 2}
	for _, v := range [][]float64{w, winf} {
		if a := testing.AllocsPerRun(100, func() { o.ArgmaxClosure(s, v) }); a != 0 {
			t.Fatalf("GreedyOracle.ArgmaxClosure allocates %v per call", a)
		}
	}
	if a := testing.AllocsPerRun(100, func() { s.IndexOf([]int{7, 3}) }); a != 0 {
		t.Fatalf("IndexOf allocates %v per call", a)
	}
}

// TestGreedyOracleConcurrentCallers: sweep workers share one Set; run
// under -race this also proves the greedy pass writes nothing shared.
func TestGreedyOracleConcurrentCallers(t *testing.T) {
	r := rng.New(5)
	s, err := TopM(40, 2, graphs.Gnp(40, 0.2, r))
	if err != nil {
		t.Fatal(err)
	}
	o := GreedyOracle{Size: 2}
	ws := make([][]float64, 4)
	want := make([]int, len(ws))
	for i := range ws {
		ws[i] = randomWeights(r.Split(uint64(i)), 40)
		want[i] = o.ArgmaxClosure(s, ws[i])
	}
	var wg sync.WaitGroup
	errs := make(chan int, len(ws))
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				if o.ArgmaxClosure(s, ws[i]) != want[i] {
					errs <- i
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Fatalf("concurrent GreedyOracle on weights %d diverged", i)
	}
}

// BenchmarkGreedyOracle times one greedy-oracle call on the shard_grid
// cell shape (K=20, TopM m=2, G(20, 0.3)).
func BenchmarkGreedyOracle(b *testing.B) {
	r := rng.New(2)
	s, err := TopM(20, 2, graphs.Gnp(20, 0.3, r))
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, 20)
	for i := range w {
		w[i] = r.Float64()
	}
	o := GreedyOracle{Size: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		argmaxSink = o.ArgmaxClosure(s, w)
	}
}
