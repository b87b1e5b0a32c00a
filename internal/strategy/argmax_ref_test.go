package strategy

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

// The four scans Set.Argmax replaced, kept verbatim as test oracles.

// refClosureScore and refExactOracle are ExactOracle.ArgmaxClosure before
// it called Set.Argmax.
func refClosureScore(s *Set, x int, w []float64) (infCount int, finiteSum float64) {
	for _, i := range s.Closure(x) {
		if math.IsInf(w[i], 1) {
			infCount++
		} else {
			finiteSum += w[i]
		}
	}
	return infCount, finiteSum
}

func refExactOracle(s *Set, w []float64) int {
	bestX := 0
	bestInf, bestSum := refClosureScore(s, 0, w)
	for x := 1; x < s.Len(); x++ {
		inf, sum := refClosureScore(s, x, w)
		if inf > bestInf || (inf == bestInf && sum > bestSum) {
			bestX, bestInf, bestSum = x, inf, sum
		}
	}
	return bestX
}

// refCUCBScan is the strategy scan CUCB.Select inlined, over an index
// vector it had already filled.
func refCUCBScan(set *Set, index []float64, closure bool) int {
	bestX, bestInf, bestSum := 0, -1, math.Inf(-1)
	for x := 0; x < set.Len(); x++ {
		arms := set.Arms(x)
		if closure {
			arms = set.Closure(x)
		}
		inf, sum := 0, 0.0
		for _, i := range arms {
			if math.IsInf(index[i], 1) {
				inf++
			} else {
				sum += index[i]
			}
		}
		if inf > bestInf || (inf == bestInf && sum > bestSum) {
			bestX, bestInf, bestSum = x, inf, sum
		}
	}
	return bestX
}

// refBestStrategyBySum is the partial-sum scan CombLinUCB, CTS,
// CombCtxThompson and OSMD used. Its prune is unsound under rounding (see
// TestArgmaxPrunedSumCounterexample).
func refBestStrategyBySum(set *Set, index []float64, closure bool) int {
	var maxU float64 = math.Inf(-1)
	for _, u := range index {
		if u > maxU {
			maxU = u
		}
	}
	bestX, bestSum := 0, math.Inf(-1)
	for x := 0; x < set.Len(); x++ {
		arms := set.Arms(x)
		if closure {
			arms = set.Closure(x)
		}
		sum, rem := 0.0, len(arms)
		pruned := false
		for _, i := range arms {
			sum += index[i]
			rem--
			if sum+float64(rem)*maxU <= bestSum {
				pruned = true
				break
			}
		}
		if !pruned && sum > bestSum {
			bestX, bestSum = x, sum
		}
	}
	return bestX
}

// refArgmax is the func-value scan behind Set.BestDirect/BestClosure.
func refArgmax(s *Set, w []float64, value func(int, []float64) float64) (int, float64) {
	bestX, bestV := 0, value(0, w)
	for x := 1; x < len(s.arms); x++ {
		if v := value(x, w); v > bestV {
			bestX, bestV = x, v
		}
	}
	return bestX, bestV
}

// rowValue is the stored-order sum Argmax reports for strategy x.
func rowValue(s *Set, x int, w []float64, closure bool) float64 {
	if closure {
		return s.ClosureMean(x, w)
	}
	return s.DirectMean(x, w)
}

// checkArgmax compares Set.Argmax with every reference scan on (s, w),
// for both objectives, and returns how many pruned-scan disagreements it
// attributed to the unsound prune.
func checkArgmax(t *testing.T, s *Set, w []float64) (pruneBugs int) {
	t.Helper()
	hasPosInf := false
	for _, v := range w {
		if math.IsInf(v, 1) {
			hasPosInf = true
		}
	}
	for _, closure := range []bool{false, true} {
		x, sum := s.Argmax(w, closure)
		if x < 0 || x >= s.Len() {
			t.Fatalf("closure=%v: Argmax returned %d outside [0,%d)", closure, x, s.Len())
		}
		if got, want := math.Float64bits(sum), math.Float64bits(rowValue(s, x, w, closure)); got != want {
			t.Fatalf("closure=%v: Argmax sum %v is not row %d's stored-order sum %v", closure, sum, x, rowValue(s, x, w, closure))
		}
		// The lexicographic scans define the index under every input.
		if ref := refCUCBScan(s, w, closure); ref != x {
			t.Fatalf("closure=%v: Argmax = %d, CUCB scan = %d (w=%v)", closure, x, ref, w)
		}
		if closure {
			if ref := refExactOracle(s, w); ref != x {
				t.Fatalf("Argmax = %d, old ExactOracle = %d (w=%v)", x, ref, w)
			}
		}
		if hasPosInf {
			// BestDirect/BestClosure summed +Inf in and took the first
			// +Inf row; the regret optimum never sees +Inf, and Argmax
			// follows the oracles' rule instead.
			continue
		}
		value := s.DirectMean
		if closure {
			value = s.ClosureMean
		}
		rx, rsum := refArgmax(s, w, value)
		if rx != x || math.Float64bits(rsum) != math.Float64bits(sum) {
			t.Fatalf("closure=%v: Argmax = (%d, %v), func-value scan = (%d, %v) (w=%v)", closure, x, sum, rx, rsum, w)
		}
		// The pruned scan started from -Inf, so a NaN first row is the
		// one input where it meant to differ; elsewhere it may differ
		// only by having pruned a row that wins.
		if math.IsNaN(rowValue(s, 0, w, closure)) {
			continue
		}
		if px := refBestStrategyBySum(s, w, closure); px != x {
			pv := rowValue(s, px, w, closure)
			if !(pv < sum || (pv == sum && px > x)) {
				t.Fatalf("closure=%v: Argmax = (%d, %v), pruned scan = (%d, %v) (w=%v)", closure, x, sum, px, pv, w)
			}
			pruneBugs++
		}
	}
	return pruneBugs
}

// randomFamily draws one of the families the policies meet: TopM, UpToM
// or an explicit family, over K up to 130 so rows cross a bitset word, on
// graphs from empty to complete (where every closure is identical).
func randomFamily(t testing.TB, r *rng.RNG) *Set {
	t.Helper()
	var k int
	switch r.Intn(4) {
	case 0:
		k = 1 + r.Intn(8)
	case 1, 2:
		k = 2 + r.Intn(40)
	default:
		k = 60 + r.Intn(71)
	}
	var g *graphs.Graph
	switch r.Intn(4) {
	case 0:
		g = nil
	case 1:
		g = graphs.Complete(k)
	default:
		g = graphs.Gnp(k, []float64{0.05, 0.3, 0.8}[r.Intn(3)], r)
	}
	maxM := 3
	if k > 40 {
		maxM = 2
	}
	m := 1 + r.Intn(maxM)
	if m > k {
		m = k
	}
	var s *Set
	var err error
	switch r.Intn(3) {
	case 0:
		s, err = TopM(k, m, g)
	case 1:
		s, err = UpToM(k, m, g)
	default:
		n := 1 + r.Intn(60)
		seen := make(map[string]bool)
		var fam [][]int
		for try := 0; len(fam) < n && try < 4*n; try++ {
			size := 1 + r.Intn(k)
			if size > 12 {
				size = 1 + r.Intn(12)
			}
			pick := make([]bool, k)
			var arms []int
			for len(arms) < size {
				if a := r.Intn(k); !pick[a] {
					pick[a] = true
					arms = append(arms, a)
				}
			}
			var sorted []int
			for a, in := range pick {
				if in {
					sorted = append(sorted, a)
				}
			}
			if key := canonicalKey(sorted); !seen[key] {
				seen[key] = true
				fam = append(fam, arms)
			}
		}
		s, err = NewExplicit(k, fam, g)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomWeights draws a weight vector: either from a few levels, so exact
// ties are common, or uniform, with +Inf, negative, −Inf and NaN entries
// mixed in at random rates.
func randomWeights(r *rng.RNG, k int) []float64 {
	levels := []float64{0, 0.25, 0.5, 1, 1.0 / 3, 0.1, 0.2, 0.3}
	tied := r.Intn(2) == 0
	nl := 1 + r.Intn(len(levels))
	var pInf, pNeg, pNegInf, pNaN float64
	if r.Intn(2) == 0 {
		pInf = []float64{0.02, 0.2, 0.9}[r.Intn(3)]
	}
	if r.Intn(3) == 0 {
		pNeg = 0.3
	}
	if r.Intn(6) == 0 {
		pNegInf = 0.05
	}
	if r.Intn(6) == 0 {
		pNaN = 0.05
	}
	w := make([]float64, k)
	for i := range w {
		switch u := r.Float64(); {
		case u < pInf:
			w[i] = math.Inf(1)
		case u < pInf+pNegInf:
			w[i] = math.Inf(-1)
		case u < pInf+pNegInf+pNaN:
			w[i] = math.NaN()
		default:
			if tied {
				w[i] = levels[r.Intn(nl)]
			} else {
				w[i] = r.Float64()
			}
			if r.Float64() < pNeg {
				w[i] = -w[i]
			}
		}
	}
	return w
}

// TestArgmaxMatchesReferenceScans: Set.Argmax agrees with each scan it
// replaced, index and sum bits, over random families and weights.
func TestArgmaxMatchesReferenceScans(t *testing.T) {
	r := rng.New(22)
	cases := 600
	if testing.Short() {
		cases = 150
	}
	pruneBugs := 0
	for c := 0; c < cases; c++ {
		rc := r.Split(uint64(c))
		s := randomFamily(t, rc)
		for j := 0; j < 8; j++ {
			pruneBugs += checkArgmax(t, s, randomWeights(rc, s.K()))
		}
	}
	t.Logf("%d pruned-scan disagreements, each a row its prune dropped wrongly", pruneBugs)
}

// TestArgmaxPrunedSumCounterexample pins the input on which the pruned
// partial-sum scan of CombLinUCB, CTS, CombCtxThompson and OSMD chose the
// wrong strategy: the rounded bound sum + rem·maxU fell to the incumbent's
// 1.8333333333333333 and pruned row 1, whose sequential sum is
// 1.8333333333333335. Argmax keeps the unpruned scan's answer.
func TestArgmaxPrunedSumCounterexample(t *testing.T) {
	s, err := NewExplicit(8, [][]int{{0, 1, 2, 3, 5, 6, 7}, {0, 3, 4, 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.3, 0.1, 0.2, 1.0 / 3, 0.6, 0.6, 0.2, 0.1}
	if got, want := s.DirectMean(0, w), 1.8333333333333333; got != want {
		t.Fatalf("row 0 sums to %v, want %v", got, want)
	}
	if got, want := s.DirectMean(1, w), 1.8333333333333335; got != want {
		t.Fatalf("row 1 sums to %v, want %v", got, want)
	}
	if got := refBestStrategyBySum(s, w, false); got != 0 {
		t.Fatalf("pruned scan chose %d; the counterexample no longer exercises its prune", got)
	}
	if x, sum := s.Argmax(w, false); x != 1 || sum != 1.8333333333333335 {
		t.Fatalf("Argmax = (%d, %v), want (1, 1.8333333333333335)", x, sum)
	}
	if x, _ := refArgmax(s, w, s.DirectMean); x != 1 {
		t.Fatalf("unpruned scan = %d, want 1", x)
	}
}

// TestArgmaxAllocatesNothing covers both the plain and the +Inf path.
func TestArgmaxAllocatesNothing(t *testing.T) {
	r := rng.New(3)
	g := graphs.Gnp(20, 0.3, r)
	s, err := TopM(20, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 20)
	for i := range w {
		w[i] = r.Float64()
	}
	winf := append([]float64(nil), w...)
	winf[7] = math.Inf(1)
	for _, v := range [][]float64{w, winf} {
		if a := testing.AllocsPerRun(100, func() { s.Argmax(v, true) }); a != 0 {
			t.Fatalf("Argmax allocates %v per call", a)
		}
	}
}

// TestArgmaxConcurrentCallers: one Set serves concurrent callers, as sweep
// workers share it; run under -race this also proves Argmax writes
// nothing shared.
func TestArgmaxConcurrentCallers(t *testing.T) {
	r := rng.New(4)
	s, err := TopM(40, 2, graphs.Gnp(40, 0.2, r))
	if err != nil {
		t.Fatal(err)
	}
	ws := make([][]float64, 4)
	want := make([]int, len(ws))
	for i := range ws {
		ws[i] = randomWeights(r.Split(uint64(i)), 40)
		want[i], _ = s.Argmax(ws[i], true)
	}
	var wg sync.WaitGroup
	errs := make(chan int, len(ws))
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				if x, _ := s.Argmax(ws[i], true); x != want[i] {
					errs <- i
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Fatalf("concurrent Argmax on weights %d diverged", i)
	}
}

// FuzzArgmax: for a family drawn from seed and weights read as raw float64
// bits from raw (any NaN payload, subnormal, ±Inf or overflowing value),
// Set.Argmax agrees with every reference scan.
func FuzzArgmax(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(uint64(1), []byte(nil))
	f.Add(uint64(2), bits(0.3, 0.1, 0.2, 1.0/3, 0.6, 0.6, 0.2, 0.1))
	f.Add(uint64(3), bits(math.Inf(1), 0.5, math.Inf(1), -1))
	f.Add(uint64(4), bits(math.NaN(), 0.5, math.Inf(-1), 0.25))
	f.Add(uint64(5), bits(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, 5e-324))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		r := rng.New(seed)
		s := randomFamily(t, r)
		var w []float64
		if n := len(raw) / 8; n > 0 {
			w = make([]float64, s.K())
			for i := range w {
				j := 8 * (i % n)
				w[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j : j+8]))
			}
		} else {
			w = randomWeights(r, s.K())
		}
		checkArgmax(t, s, w)
	})
}

// argmaxSink keeps benchmarked results live.
var argmaxSink int

// BenchmarkArgmax times one exact-oracle call on the shard_grid cell
// shape (K=20, TopM m=2, G(20, 0.3), closure objective, no +Inf weight)
// beside the lexicographic scan it replaced.
func BenchmarkArgmax(b *testing.B) {
	r := rng.New(2)
	s, err := TopM(20, 2, graphs.Gnp(20, 0.3, r))
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, 20)
	for i := range w {
		w[i] = r.Float64()
	}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			argmaxSink, _ = s.Argmax(w, true)
		}
	})
	b.Run("old-exact-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			argmaxSink = refExactOracle(s, w)
		}
	})
}
