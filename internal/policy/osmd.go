package policy

import (
	"fmt"
	"math"
	"sort"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// OSMD is online stochastic mirror descent over the m-set polytope, the
// adversarial semi-bandit baseline: it maintains a marginal play
// probability w_i per arm (0 ≤ w_i ≤ 1, Σw_i = m), samples an m-set whose
// per-arm inclusion probabilities are exactly w via the split-sample
// decomposition (sorted marginals decompose into a convex combination of
// "first-left deterministic + uniform tail window" structures), and after
// each round takes a negative-entropy mirror step on importance-weighted
// losses, projected back onto the capped simplex. It ignores round
// contexts and side observations beyond the played arms: the importance
// weights 1/w_i are only correct for arms the sampler actually selected.
//
// The strategy family must be an m-set family (every feasible strategy has
// the same size m). When the sampled m-set is not feasible — the family
// enumerates only a subset of all m-sets — OSMD falls back to the feasible
// strategy with the largest marginal mass, keeping every play valid.
type OSMD struct {
	// Eta is the mirror-descent learning rate. 0 derives a horizon-tuned
	// default at Reset.
	Eta float64

	r         *rng.RNG
	set       *strategy.Set
	k, m      int
	w         []float64 // current marginals
	wPlay     []float64 // marginals frozen at Select (importance weights)
	order     []int
	included  []float64
	remaining []float64
	compW     []float64
	compL     []int
	compR     []int
	cand      []int
	arms      []int
	vals      []float64
	fellBack  bool
}

// NewOSMD returns an m-set OSMD baseline with learning rate eta (0 picks a
// horizon-tuned default), sampling from r.
func NewOSMD(eta float64, r *rng.RNG) *OSMD { return &OSMD{Eta: eta, r: r} }

// Name implements bandit.ComboPolicy.
func (p *OSMD) Name() string { return "OSMD-mset" }

// Reset implements bandit.ComboPolicy. It panics unless every feasible
// strategy has the same size m (an m-set family such as strategy.TopM).
func (p *OSMD) Reset(meta bandit.ComboMeta) {
	set := meta.Strategies
	if set.Len() == 0 {
		panic("policy: OSMD needs a non-empty strategy set")
	}
	m := len(set.Arms(0))
	for x := 1; x < set.Len(); x++ {
		if len(set.Arms(x)) != m {
			panic(fmt.Sprintf("policy: OSMD requires an m-set family, got strategies of size %d and %d",
				m, len(set.Arms(x))))
		}
	}
	p.set = set
	p.k, p.m = meta.K, m
	if p.Eta <= 0 {
		// Standard semi-bandit tuning: η ≍ √(m·ln(K/m) / (n·K)); fall back
		// to a 10⁴-round horizon when running anytime.
		n := meta.Horizon
		if n <= 0 {
			n = 10000
		}
		p.Eta = math.Sqrt(float64(m) * math.Log(float64(p.k)/float64(m)+1) / (float64(n) * float64(p.k)))
	}
	p.w = grow(p.w, p.k)
	p.wPlay = grow(p.wPlay, p.k)
	p.included = grow(p.included, p.k)
	p.remaining = grow(p.remaining, p.k)
	p.vals = grow(p.vals, p.k)
	if cap(p.order) < p.k {
		p.order = make([]int, p.k)
		p.cand = make([]int, p.k)
	}
	p.order, p.cand = p.order[:p.k], p.cand[:p.k]
	p.arms = p.arms[:0]
	for i := range p.w {
		p.w[i] = float64(m) / float64(p.k)
	}
}

// Select implements bandit.ComboPolicy.
func (p *OSMD) Select(_ int, _ *bandit.RoundContext) int {
	copy(p.wPlay, p.w)
	p.sampleMSet()
	sort.Ints(p.arms)
	if x, ok := p.set.IndexOf(p.arms); ok {
		p.fellBack = false
		return x
	}
	// The sampled m-set is outside the feasible family: play the feasible
	// strategy carrying the most marginal mass instead.
	p.fellBack = true
	x, _ := p.set.Argmax(p.w, false)
	return x
}

// sampleMSet fills p.arms with an m-subset whose inclusion probabilities
// match the marginals w, via the split-sample decomposition: marginals are
// sorted descending; the vector splits into components (weight, left,
// right) meaning "include arms ranked < left, plus m−left arms uniform
// from ranks [left, right)"; one component is drawn by weight.
func (p *OSMD) sampleMSet() {
	k, m := p.k, p.m
	// Descending stable sort of marginals; ties broken by arm index so the
	// decomposition is deterministic given w.
	for i := range p.order {
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(a, b int) bool { return p.w[p.order[a]] > p.w[p.order[b]] })
	for r, i := range p.order {
		p.included[r] = p.w[i]
		p.remaining[r] = 1 - p.w[i]
	}
	p.compW, p.compL, p.compR = p.compW[:0], p.compL[:0], p.compR[:0]
	prop := 1.0
	left, right := 0, k
	const eps = 1e-11
	for left < right {
		active := float64(m-left) / float64(right-left)
		inactive := 1 - active
		if active == 0 || inactive == 0 {
			p.compW = append(p.compW, prop)
			p.compL = append(p.compL, left)
			p.compR = append(p.compR, right)
			prop = 0
			break
		}
		weight := p.included[right-1] / active
		if alt := p.remaining[left] / inactive; alt < weight {
			weight = alt
		}
		p.compW = append(p.compW, weight)
		p.compL = append(p.compL, left)
		p.compR = append(p.compR, right)
		prop -= weight
		for r := left; r < right; r++ {
			p.included[r] -= weight * active
			p.remaining[r] -= weight * inactive
		}
		for right > 0 && p.included[right-1] <= eps {
			right--
		}
		for left < k && p.remaining[left] <= eps {
			left++
		}
	}
	if prop > 0 {
		// Numerical remainder: the deterministic top-m component.
		p.compW = append(p.compW, prop)
		p.compL = append(p.compL, m)
		p.compR = append(p.compR, m+1)
	}
	// Draw one component by weight.
	var total float64
	for _, w := range p.compW {
		total += w
	}
	u := p.r.Float64() * total
	sel := len(p.compW) - 1
	var cum float64
	for i, w := range p.compW {
		cum += w
		if u < cum {
			sel = i
			break
		}
	}
	l, r := p.compL[sel], p.compR[sel]
	p.arms = p.arms[:0]
	if l >= r-1 || l >= m {
		// Deterministic prefix: the m largest marginals.
		for rank := 0; rank < m; rank++ {
			p.arms = append(p.arms, p.order[rank])
		}
		return
	}
	for rank := 0; rank < l; rank++ {
		p.arms = append(p.arms, p.order[rank])
	}
	cand := p.cand[:0]
	for rank := l; rank < r; rank++ {
		cand = append(cand, p.order[rank])
	}
	p.r.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	p.arms = append(p.arms, cand[:m-l]...)
}

// Update implements bandit.ComboPolicy: importance-weighted loss estimates
// for the played arms, one entropic mirror step, then projection back onto
// the capped simplex {0 ≤ w ≤ 1, Σw = m}.
func (p *OSMD) Update(_ int, chosen int, obs []bandit.Observation) {
	for _, o := range obs {
		p.vals[o.Arm] = o.Value
	}
	for _, i := range p.set.Arms(chosen) {
		wi := p.wPlay[i]
		if wi < 1e-9 {
			wi = 1e-9
		}
		lossEst := (1 - p.vals[i]) / wi
		p.w[i] *= math.Exp(-p.Eta * lossEst)
		if p.w[i] < 1e-12 {
			p.w[i] = 1e-12
		}
	}
	p.projectCappedSimplex()
}

// projectCappedSimplex rescales w onto {0 ≤ w_i ≤ 1, Σ min(1, μ·w_i) = m}
// by bisecting on μ — the entropic projection of the mirror step.
func (p *OSMD) projectCappedSimplex() {
	m := float64(p.m)
	sum := func(mu float64) float64 {
		var s float64
		for _, w := range p.w {
			v := mu * w
			if v > 1 {
				v = 1
			}
			s += v
		}
		return s
	}
	lo, hi := 0.0, 1.0
	for sum(hi) < m {
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	for iter := 0; iter < 64; iter++ {
		mid := (lo + hi) / 2
		if sum(mid) < m {
			lo = mid
		} else {
			hi = mid
		}
	}
	for i, w := range p.w {
		v := hi * w
		if v > 1 {
			v = 1
		}
		p.w[i] = v
	}
}

var _ bandit.ComboPolicy = (*OSMD)(nil)

// Marginals returns a copy of the current per-arm play probabilities —
// exposed for tests and diagnostics.
func (p *OSMD) Marginals() []float64 {
	out := make([]float64, len(p.w))
	copy(out, p.w)
	return out
}
