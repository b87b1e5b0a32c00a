package policy

import (
	"netbandit/internal/bandit"
	"netbandit/internal/stats"
)

// MOSS is the Minimax Optimal Strategy in the Stochastic case
// (Audibert & Bubeck 2009): the distribution-free single-play baseline the
// paper's Fig. 3 compares DFL-SSO against. The index of arm i is
//
//	X̄_i + sqrt(max(ln(n/(K·T_i)), 0) / T_i)
//
// with n the horizon and T_i the pull count of arm i. When the horizon is
// unknown (Meta.Horizon == 0) the policy runs its anytime variant with t in
// place of n. MOSS deliberately ignores side observations: it is the
// "no side bonus" control.
//
// With a fixed horizon n/K never changes, so arm i's index changes only
// when arm i is observed: Update refreshes that one entry and Select is a
// single argmax. The anytime variant recomputes every index each round.
type MOSS struct {
	stats   bandit.ArmStats
	k       int
	horizon int
	index   []float64
}

// NewMOSS returns a fixed-horizon (or anytime, if the runner supplies no
// horizon) MOSS policy.
func NewMOSS() *MOSS { return &MOSS{} }

// Name implements bandit.SinglePolicy.
func (p *MOSS) Name() string { return "MOSS" }

// Reset implements bandit.SinglePolicy.
func (p *MOSS) Reset(meta bandit.Meta) {
	p.k = meta.K
	p.horizon = meta.Horizon
	p.stats.Reset(meta.K)
	p.index = make([]float64, meta.K)
	for i := range p.index {
		p.index[i] = bandit.InfIndex
	}
}

// Select implements bandit.SinglePolicy.
func (p *MOSS) Select(t int, _ *bandit.RoundContext) int {
	if p.horizon > 0 {
		return bandit.ArgmaxFloat(p.index)
	}
	ratio := float64(t) / float64(p.k)
	for i := 0; i < p.k; i++ {
		n := p.stats.Count[i]
		if n == 0 {
			p.index[i] = bandit.InfIndex
			continue
		}
		p.index[i] = p.stats.Mean[i] + stats.MOSSRadius(ratio, n)
	}
	return bandit.ArgmaxFloat(p.index)
}

// Update implements bandit.SinglePolicy. Only the chosen arm's observation
// is used; side observations are ignored by design.
func (p *MOSS) Update(_ int, chosen int, obs []bandit.Observation) {
	if v, ok := bandit.ChosenValue(chosen, obs); ok {
		p.stats.Observe(chosen, v)
		if p.horizon > 0 {
			ratio := float64(p.horizon) / float64(p.k)
			p.index[chosen] = p.stats.Mean[chosen] + stats.MOSSRadius(ratio, p.stats.Count[chosen])
		}
	}
}

var _ bandit.SinglePolicy = (*MOSS)(nil)
