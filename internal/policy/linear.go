package policy

import "math"

// linModel is the shared d-dimensional Bayesian ridge-regression reward
// model behind the contextual policies (LinUCB, CombLinUCB, CtxThompson):
// with design matrix A = λI + Σ x xᵀ over the observed (feature, reward)
// pairs and b = Σ r·x, the point estimate is θ̂ = A⁻¹b and the optimism
// width at feature x is √(xᵀA⁻¹x). A⁻¹ is maintained incrementally with
// one Sherman–Morrison rank-1 update per observation (O(d²)), so no round
// ever pays a matrix solve.
//
// Every product whose rounding the result depends on is wrapped in an
// explicit float64 conversion, which the Go spec defines as a rounding
// step: architectures with fused multiply-add (arm64, ppc64le, s390x,
// riscv64) then compute the same bits as amd64.
type linModel struct {
	d     int
	ainv  []float64 // d×d, row-major: (λI + Σ x xᵀ)⁻¹
	bvec  []float64 // Σ r·x
	theta []float64 // ainv · bvec, as of the last refresh
	tmp   []float64 // scratch: ainv · x
}

// reset sizes the model for dimension d and ridge parameter lam,
// discarding all observations.
func (m *linModel) reset(d int, lam float64) {
	m.d = d
	m.ainv = grow(m.ainv, d*d)
	m.bvec = grow(m.bvec, d)
	m.theta = grow(m.theta, d)
	m.tmp = grow(m.tmp, d)
	for i := range m.ainv {
		m.ainv[i] = 0
	}
	for j := 0; j < d; j++ {
		m.ainv[j*d+j] = 1 / lam
		m.bvec[j] = 0
		m.theta[j] = 0
	}
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// add folds one observation (feature vector x, realised reward r) into
// A⁻¹ (Sherman–Morrison) and b. O(d²). θ̂ is left stale: callers fold a
// whole round's observations, then refresh once.
func (m *linModel) add(x []float64, r float64) {
	d := m.d
	// tmp = A⁻¹x; denom = 1 + xᵀA⁻¹x (always ≥ 1: A⁻¹ is PD).
	var denom float64 = 1
	for i := 0; i < d; i++ {
		var s float64
		row := m.ainv[i*d : (i+1)*d]
		for j, xj := range x {
			s += float64(row[j] * xj)
		}
		m.tmp[i] = s
		denom += float64(s * x[i])
	}
	inv := 1 / denom
	for i := 0; i < d; i++ {
		ti := m.tmp[i] * inv
		row := m.ainv[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			row[j] -= float64(ti * m.tmp[j])
		}
	}
	for j, xj := range x {
		m.bvec[j] += float64(r * xj)
	}
}

// refresh recomputes the point estimate θ̂ = A⁻¹b. O(d²). It depends on
// A⁻¹ and b only, so one refresh after a batch of adds gives the same bits
// as a refresh after each.
func (m *linModel) refresh() {
	d := m.d
	for i := 0; i < d; i++ {
		var s float64
		row := m.ainv[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			s += float64(row[j] * m.bvec[j])
		}
		m.theta[i] = s
	}
}

// score returns the point estimate θ̂·x and the squared optimism width
// xᵀA⁻¹x for feature vector x (of length d). It stays within the
// compiler's inlining budget: LinUCB calls it for every arm every round.
func (m *linModel) score(x []float64) (est, varx float64) {
	d := m.d
	for i, xi := range x {
		var s float64
		row := m.ainv[i*d : (i+1)*d]
		for j, xj := range x {
			s += float64(row[j] * xj)
		}
		est += float64(m.theta[i] * xi)
		varx += float64(s * xi)
	}
	if varx < 0 {
		varx = 0 // round-off guard; A⁻¹ is PD
	}
	return est, varx
}

// cholAinv writes the lower-triangular Cholesky factor L of A⁻¹ into l
// (row-major d×d, upper part zeroed), so posterior draws are
// θ̂ + v·L·z with z standard normal. Returns false if A⁻¹ has lost
// positive-definiteness to round-off (callers then skip the perturbation).
func (m *linModel) cholAinv(l []float64) bool {
	d := m.d
	for i := range l[:d*d] {
		l[i] = 0
	}
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			s := m.ainv[i*d+j]
			for k := 0; k < j; k++ {
				s -= float64(l[i*d+k] * l[j*d+k])
			}
			if i == j {
				if s <= 0 {
					return false
				}
				l[i*d+i] = math.Sqrt(s)
			} else {
				l[i*d+j] = s / l[j*d+j]
			}
		}
	}
	return true
}
