package policy

import (
	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// CTS is combinatorial Thompson sampling with Beta-Bernoulli posteriors
// (Hüyük & Tekin 2019): each round draws one Beta sample per arm and plays
// the feasible strategy maximising the summed samples under the chosen
// objective. Every revealed arm observation — including side observations
// from the closure — updates that arm's posterior. Per-arm draws are keyed
// by (arm, round) on a counter stream, so the sample at (i, t) does not
// depend on which other arms were drawn or in what order: replays agree
// bit-for-bit. CTS ignores round contexts (the posteriors are per-arm),
// so it runs on both fixed-mean and contextual cells.
type CTS struct {
	// Objective picks the maximised sum; defaults to Direct.
	Objective ComboObjective

	r         *rng.RNG
	ctr       rng.Counter
	scratch   rng.RNG
	set       *strategy.Set
	successes []float64
	failures  []float64
	samples   []float64
	k         int
}

// NewCTS returns a combinatorial Thompson-sampling policy with uniform
// Beta(1,1) priors, drawing from r's counter stream.
func NewCTS(obj ComboObjective, r *rng.RNG) *CTS { return &CTS{Objective: obj, r: r} }

// Name implements bandit.ComboPolicy.
func (p *CTS) Name() string { return "CTS-" + p.Objective.String() }

// Reset implements bandit.ComboPolicy.
func (p *CTS) Reset(meta bandit.ComboMeta) {
	if p.Objective == 0 {
		p.Objective = Direct
	}
	p.k = meta.K
	p.set = meta.Strategies
	p.ctr = p.r.Counter()
	p.successes = grow(p.successes, meta.K)
	p.failures = grow(p.failures, meta.K)
	p.samples = grow(p.samples, meta.K)
	for i := 0; i < meta.K; i++ {
		p.successes[i], p.failures[i] = 0, 0
	}
}

// Select implements bandit.ComboPolicy.
func (p *CTS) Select(t int, _ *bandit.RoundContext) int {
	for i := 0; i < p.k; i++ {
		// The Beta sampler consumes a variable number of uniforms, so each
		// (arm, t) cell gets its own reseeded scratch generator — draw
		// count cannot leak across arms or rounds.
		p.ctr.Reseed(&p.scratch, uint64(i), uint64(t))
		p.samples[i] = p.scratch.Beta(1+p.successes[i], 1+p.failures[i])
	}
	x, _ := p.set.Argmax(p.samples, p.Objective == Closure)
	return x
}

// Update implements bandit.ComboPolicy: every revealed arm observation
// updates that arm's posterior (rewards in [0,1] via the Agrawal-Goyal
// binarisation, a no-op for Bernoulli environments).
func (p *CTS) Update(_ int, _ int, obs []bandit.Observation) {
	for _, o := range obs {
		if o.Value >= 1 || (o.Value > 0 && p.r.Bernoulli(o.Value)) {
			p.successes[o.Arm]++
		} else {
			p.failures[o.Arm]++
		}
	}
}

var _ bandit.ComboPolicy = (*CTS)(nil)
