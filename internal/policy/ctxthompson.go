package policy

import (
	"fmt"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// CtxThompson is linear-Gaussian Thompson sampling (Agrawal & Goyal 2013)
// over per-round feature vectors: each round draws a posterior sample
//
//	θ̃ = θ̂ + v·L·z,   L Lᵀ = A⁻¹,   z ~ N(0, I_d),
//
// and plays the arm maximising θ̃·x_i(t). The d perturbation normals come
// from a counter stream through the batched 4-lane hash (rng.NormalsAt),
// so the round-t draw is a pure function of (policy seed, t) — replays and
// shards reconstruct it bit-identically no matter what happened in other
// rounds. Every revealed observation updates the shared ridge model.
type CtxThompson struct {
	// V scales the posterior draw; larger explores more.
	V float64
	// Lambda is the ridge regularisation; defaults to 1.
	Lambda float64

	r      *rng.RNG
	ctr    rng.Counter
	m      linModel
	rc     *bandit.RoundContext
	k, d   int
	z      []float64
	chol   []float64
	thetaT []float64
	scores []float64
}

// NewCtxThompson returns a contextual Thompson-sampling policy with
// posterior scale v (a typical value is 0.5), drawing from r's counter
// stream.
func NewCtxThompson(v float64, r *rng.RNG) *CtxThompson {
	return &CtxThompson{V: v, r: r}
}

// Name implements bandit.SinglePolicy.
func (p *CtxThompson) Name() string { return fmt.Sprintf("CtxThompson(%.2f)", p.V) }

// Reset implements bandit.SinglePolicy. It panics unless the run is
// contextual (Meta.Dim ≥ 1).
func (p *CtxThompson) Reset(meta bandit.Meta) {
	if meta.Dim < 1 {
		panic("policy: CtxThompson requires a contextual run (Meta.Dim >= 1)")
	}
	if p.Lambda <= 0 {
		p.Lambda = 1
	}
	p.k, p.d = meta.K, meta.Dim
	p.ctr = p.r.Counter()
	p.m.reset(meta.Dim, p.Lambda)
	p.z = grow(p.z, meta.Dim)
	p.chol = grow(p.chol, meta.Dim*meta.Dim)
	p.thetaT = grow(p.thetaT, meta.Dim)
	p.scores = grow(p.scores, meta.K)
	p.rc = nil
}

// Select implements bandit.SinglePolicy.
func (p *CtxThompson) Select(t int, rc *bandit.RoundContext) int {
	if rc == nil {
		panic("policy: CtxThompson.Select needs a round context (contextual environment)")
	}
	p.rc = rc
	p.samplePosterior(t)
	for i := 0; i < p.k; i++ {
		x := rc.Arm(i)
		var s float64
		for j, th := range p.thetaT {
			s += float64(th * x[j])
		}
		p.scores[i] = s
	}
	return bandit.ArgmaxFloat(p.scores)
}

// samplePosterior fills thetaT with the round-t posterior draw. Products
// here and in the score loops are rounded by float64(...) before each add,
// blocking fused multiply-add (see linModel).
func (p *CtxThompson) samplePosterior(t int) {
	p.ctr.NormalsAt(uint64(t), p.z)
	copy(p.thetaT, p.m.theta)
	if !p.m.cholAinv(p.chol) {
		return // degenerate A⁻¹: fall back to the point estimate
	}
	d := p.d
	for i := 0; i < d; i++ {
		var s float64
		row := p.chol[i*d : i*d+i+1]
		for j, l := range row {
			s += float64(l * p.z[j])
		}
		p.thetaT[i] += float64(p.V * s)
	}
}

// Update implements bandit.SinglePolicy.
func (p *CtxThompson) Update(_ int, _ int, obs []bandit.Observation) {
	for _, o := range obs {
		p.m.add(p.rc.Arm(o.Arm), o.Value)
	}
	p.m.refresh()
}

var _ bandit.SinglePolicy = (*CtxThompson)(nil)

// CombCtxThompson is combinatorial linear Thompson sampling: one posterior
// draw θ̃ per round scores every arm, and the feasible strategy maximising
// the summed scores under the chosen objective is played (the
// combinatorial contextual TS shape of Wen, Kveton & Ashkan). The
// posterior draw shares CtxThompson's batched counter-stream normals; the
// strategy scan shares CombLinUCB's argmax-prune.
type CombCtxThompson struct {
	// Objective picks the maximised sum; defaults to Direct.
	Objective ComboObjective

	inner CtxThompson
	set   *strategy.Set
	index []float64
}

// NewCombCtxThompson returns a combinatorial contextual Thompson-sampling
// policy with posterior scale v and the given objective, drawing from r's
// counter stream.
func NewCombCtxThompson(v float64, obj ComboObjective, r *rng.RNG) *CombCtxThompson {
	return &CombCtxThompson{Objective: obj, inner: CtxThompson{V: v, r: r}}
}

// Name implements bandit.ComboPolicy.
func (p *CombCtxThompson) Name() string {
	return fmt.Sprintf("CombCtxThompson-%s(%.2f)", p.Objective.String(), p.inner.V)
}

// Reset implements bandit.ComboPolicy. It panics unless the run is
// contextual (ComboMeta.Dim ≥ 1).
func (p *CombCtxThompson) Reset(meta bandit.ComboMeta) {
	if meta.Dim < 1 {
		panic("policy: CombCtxThompson requires a contextual run (ComboMeta.Dim >= 1)")
	}
	if p.Objective == 0 {
		p.Objective = Direct
	}
	p.set = meta.Strategies
	p.inner.Reset(bandit.Meta{
		K: meta.K, Horizon: meta.Horizon, Graph: meta.Graph,
		Scenario: meta.Scenario, Dim: meta.Dim,
	})
	p.index = grow(p.index, meta.K)
}

// Select implements bandit.ComboPolicy.
func (p *CombCtxThompson) Select(t int, rc *bandit.RoundContext) int {
	if rc == nil {
		panic("policy: CombCtxThompson.Select needs a round context (contextual environment)")
	}
	p.inner.rc = rc
	p.inner.samplePosterior(t)
	for i := 0; i < p.inner.k; i++ {
		x := rc.Arm(i)
		var s float64
		for j, th := range p.inner.thetaT {
			s += float64(th * x[j])
		}
		p.index[i] = s
	}
	x, _ := p.set.Argmax(p.index, p.Objective == Closure)
	return x
}

// Update implements bandit.ComboPolicy.
func (p *CombCtxThompson) Update(t int, chosen int, obs []bandit.Observation) {
	p.inner.Update(t, chosen, obs)
}

var _ bandit.ComboPolicy = (*CombCtxThompson)(nil)
