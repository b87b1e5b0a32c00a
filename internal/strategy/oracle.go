package strategy

import (
	"fmt"
	"math"
	"slices"
)

// Oracle solves the per-round combinatorial problem of DFL-CSR:
// argmax_x Σ_{i∈Y_x} w_i over the feasible family. Theorem 4 assumes this
// is solved optimally; ExactOracle does so with Set.Argmax, GreedyOracle
// trades optimality for speed on top-M families.
type Oracle interface {
	// Name identifies the oracle in reports.
	Name() string
	// ArgmaxClosure returns the index of a strategy maximising the closure
	// weight sum. w has one entry per arm; entries may be +Inf to force
	// exploration of unobserved arms.
	ArgmaxClosure(s *Set, w []float64) int
}

// ExactOracle maximises by full enumeration of the family — optimal, O(K + Σ|Y_x|).
type ExactOracle struct{}

// Name implements Oracle.
func (ExactOracle) Name() string { return "exact" }

// ArgmaxClosure implements Oracle with Set.Argmax: while a weight is +Inf,
// the closure covering the most +Inf arms wins, then the largest finite sum.
func (ExactOracle) ArgmaxClosure(s *Set, w []float64) int {
	x, _ := s.Argmax(w, true)
	return x
}

// GreedyOracle approximately maximises the closure weight by greedy
// marginal-gain selection of component arms — the classical (1-1/e)
// approximation for weighted max coverage. It requires the family to
// contain the greedily built arm set (true for TopM/UpToM families); when
// the built set is not feasible it falls back to exact enumeration, so the
// result is always a valid strategy index.
type GreedyOracle struct {
	// Size is the number of arms the greedy pass selects. Use the family's
	// strategy size (e.g. m for TopM).
	Size int
}

// Name implements Oracle.
func (o GreedyOracle) Name() string { return fmt.Sprintf("greedy%d", o.Size) }

// The greedy pass keeps its chosen arms and its covered-arm bitset on the
// stack up to these sizes; a larger Size or K allocates per call.
const (
	greedyStackArms  = 64
	greedyStackWords = 16 // K ≤ 1024
)

// ArgmaxClosure implements Oracle. It keeps no state and, for Size ≤ 64
// and K ≤ 1024, allocates nothing, so one Set serves concurrent callers.
func (o GreedyOracle) ArgmaxClosure(s *Set, w []float64) int {
	if o.Size <= 0 {
		return ExactOracle{}.ArgmaxClosure(s, w)
	}
	g := s.Graph()
	k := s.K()
	var armBuf [greedyStackArms]int
	var covBuf [greedyStackWords]uint64
	chosen := armBuf[:0]
	covered := covBuf[:]
	if words := (k + 63) / 64; words > len(covBuf) {
		covered = make([]uint64, words)
	}
	for len(chosen) < o.Size && len(chosen) < k {
		bestArm := -1
		bestInf := 0
		bestGain := math.Inf(-1)
		for a := 0; a < k; a++ {
			if slices.Contains(chosen, a) {
				continue
			}
			inf, gain := 0, 0.0
			for _, j := range g.ClosedNeighborhood(a) {
				if covered[j>>6]&(1<<(uint(j)&63)) != 0 {
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
		g.OrClosedInto(covered, bestArm)
	}
	if x, ok := s.IndexOf(chosen); ok {
		return x
	}
	// The greedy set is not feasible under this family; fall back to the
	// optimal answer rather than returning something invalid.
	return ExactOracle{}.ArgmaxClosure(s, w)
}

// Compile-time interface compliance checks.
var (
	_ Oracle = ExactOracle{}
	_ Oracle = GreedyOracle{}
)
