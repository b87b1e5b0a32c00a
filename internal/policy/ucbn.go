package policy

import (
	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
)

// UCBN is the UCB-N policy for bandits with side observations (Caron et
// al., 2012), the Δ-dependent prior work the paper's related-work section
// positions DFL-SSO against: classic UCB1 indices, but every revealed
// observation (the pulled arm and its whole closed neighbourhood) updates
// the per-arm statistics, so O_i grows much faster than T_i.
type UCBN struct {
	ucb ucbIndex
}

// NewUCBN returns a UCB-N policy.
func NewUCBN() *UCBN { return &UCBN{} }

// Name implements bandit.SinglePolicy.
func (p *UCBN) Name() string { return "UCB-N" }

// Reset implements bandit.SinglePolicy.
func (p *UCBN) Reset(meta bandit.Meta) { p.ucb.reset(meta.K) }

// Select implements bandit.SinglePolicy.
func (p *UCBN) Select(t int, _ *bandit.RoundContext) int { return p.ucb.argmax(t) }

// Update implements bandit.SinglePolicy.
func (p *UCBN) Update(_ int, _ int, obs []bandit.Observation) { p.ucb.observeAll(obs) }

var _ bandit.SinglePolicy = (*UCBN)(nil)

// UCBMaxN is the UCB-MaxN refinement of UCB-N (Caron et al., 2012): pick
// the arm i* with the best UCB index, then actually pull the arm in N̄_i*
// with the highest empirical mean — since pulling any member of the
// neighbourhood yields the same observations, playing the best-looking
// member is a free improvement. It needs the relation graph at Reset.
type UCBMaxN struct {
	ucb   ucbIndex
	graph *graphs.Graph
}

// NewUCBMaxN returns a UCB-MaxN policy.
func NewUCBMaxN() *UCBMaxN { return &UCBMaxN{} }

// Name implements bandit.SinglePolicy.
func (p *UCBMaxN) Name() string { return "UCB-MaxN" }

// Reset implements bandit.SinglePolicy.
func (p *UCBMaxN) Reset(meta bandit.Meta) {
	p.graph = meta.Graph
	p.ucb.reset(meta.K)
}

// Select implements bandit.SinglePolicy.
func (p *UCBMaxN) Select(t int, _ *bandit.RoundContext) int {
	star := p.ucb.argmax(t)
	if p.graph == nil {
		return star
	}
	// Hop to the empirically best member of the chosen neighbourhood.
	st := &p.ucb.stats
	best, bestMean := star, st.Mean[star]
	for _, j := range p.graph.ClosedNeighborhood(star) {
		if st.Count[j] > 0 && st.Mean[j] > bestMean {
			best, bestMean = j, st.Mean[j]
		}
	}
	return best
}

// Update implements bandit.SinglePolicy.
func (p *UCBMaxN) Update(_ int, _ int, obs []bandit.Observation) { p.ucb.observeAll(obs) }

var _ bandit.SinglePolicy = (*UCBMaxN)(nil)
