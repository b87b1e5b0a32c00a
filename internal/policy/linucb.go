package policy

import (
	"fmt"
	"math"

	"netbandit/internal/bandit"
	"netbandit/internal/strategy"
)

// LinUCB is the single-play contextual policy of Li et al. (2010) adapted
// to the networked setting: a shared d-dimensional ridge model scores each
// arm's round-t feature vector optimistically,
//
//	u_i(t) = θ̂·x_i(t) + α·√(x_i(t)ᵀ A⁻¹ x_i(t)),
//
// and every revealed observation — the pulled arm and its whole closed
// neighbourhood — is folded into the model, so side observations tighten
// the confidence ellipsoid d·|N̄| times faster than bandit feedback alone.
type LinUCB struct {
	// Alpha is the exploration width multiplier.
	Alpha float64
	// Lambda is the ridge regularisation; defaults to 1.
	Lambda float64

	m      linModel
	rc     *bandit.RoundContext
	k      int
	scores []float64
}

// NewLinUCB returns a LinUCB policy with exploration width alpha (a
// typical value is 1).
func NewLinUCB(alpha float64) *LinUCB { return &LinUCB{Alpha: alpha} }

// Name implements bandit.SinglePolicy.
func (p *LinUCB) Name() string { return fmt.Sprintf("LinUCB(%.2f)", p.Alpha) }

// Reset implements bandit.SinglePolicy. It panics unless the run is
// contextual (Meta.Dim ≥ 1): LinUCB has no fixed-mean fallback.
func (p *LinUCB) Reset(meta bandit.Meta) {
	if meta.Dim < 1 {
		panic("policy: LinUCB requires a contextual run (Meta.Dim >= 1)")
	}
	if p.Lambda <= 0 {
		p.Lambda = 1
	}
	p.k = meta.K
	p.m.reset(meta.Dim, p.Lambda)
	p.scores = grow(p.scores, meta.K)
	p.rc = nil
}

// Select implements bandit.SinglePolicy.
func (p *LinUCB) Select(_ int, rc *bandit.RoundContext) int {
	if rc == nil {
		panic("policy: LinUCB.Select needs a round context (contextual environment)")
	}
	p.rc = rc
	// float64(...) rounds the product before the add, blocking fused
	// multiply-add (see linModel).
	for i := 0; i < p.k; i++ {
		est, varx := p.m.score(rc.Arm(i))
		p.scores[i] = est + float64(p.Alpha*math.Sqrt(varx))
	}
	return bandit.ArgmaxFloat(p.scores)
}

// Update implements bandit.SinglePolicy: every revealed observation is a
// (feature, reward) pair for the ridge model.
func (p *LinUCB) Update(_ int, _ int, obs []bandit.Observation) {
	for _, o := range obs {
		p.m.add(p.rc.Arm(o.Arm), o.Value)
	}
	p.m.refresh()
}

var _ bandit.SinglePolicy = (*LinUCB)(nil)

// CombLinUCB plays the feasible strategy maximising the sum of per-arm
// LinUCB indices under the chosen objective — the contextual analogue of
// CUCB, with the ridge model shared across arms (Gai, Krishnamachari &
// Jain's linear-reward generalisation). The strategy scan reuses the
// argmax-prune shape of the MOSS kernel: a running partial sum is
// abandoned as soon as even maxU-filled remaining slots cannot beat the
// incumbent.
type CombLinUCB struct {
	// Alpha is the exploration width multiplier.
	Alpha float64
	// Objective picks the maximised sum; defaults to Direct.
	Objective ComboObjective
	// Lambda is the ridge regularisation; defaults to 1.
	Lambda float64

	m     linModel
	set   *strategy.Set
	rc    *bandit.RoundContext
	k     int
	index []float64
}

// NewCombLinUCB returns a CombLinUCB policy with exploration width alpha
// and the given objective.
func NewCombLinUCB(alpha float64, obj ComboObjective) *CombLinUCB {
	return &CombLinUCB{Alpha: alpha, Objective: obj}
}

// Name implements bandit.ComboPolicy.
func (p *CombLinUCB) Name() string {
	return fmt.Sprintf("CombLinUCB-%s(%.2f)", p.Objective.String(), p.Alpha)
}

// Reset implements bandit.ComboPolicy. It panics unless the run is
// contextual (ComboMeta.Dim ≥ 1).
func (p *CombLinUCB) Reset(meta bandit.ComboMeta) {
	if meta.Dim < 1 {
		panic("policy: CombLinUCB requires a contextual run (ComboMeta.Dim >= 1)")
	}
	if p.Objective == 0 {
		p.Objective = Direct
	}
	if p.Lambda <= 0 {
		p.Lambda = 1
	}
	p.k = meta.K
	p.set = meta.Strategies
	p.m.reset(meta.Dim, p.Lambda)
	p.index = grow(p.index, meta.K)
	p.rc = nil
}

// Select implements bandit.ComboPolicy.
func (p *CombLinUCB) Select(_ int, rc *bandit.RoundContext) int {
	if rc == nil {
		panic("policy: CombLinUCB.Select needs a round context (contextual environment)")
	}
	p.rc = rc
	for i := 0; i < p.k; i++ {
		est, varx := p.m.score(rc.Arm(i))
		p.index[i] = est + float64(p.Alpha*math.Sqrt(varx))
	}
	x, _ := p.set.Argmax(p.index, p.Objective == Closure)
	return x
}

// Update implements bandit.ComboPolicy: every revealed arm observation is
// folded into the shared ridge model.
func (p *CombLinUCB) Update(_ int, _ int, obs []bandit.Observation) {
	for _, o := range obs {
		p.m.add(p.rc.Arm(o.Arm), o.Value)
	}
	p.m.refresh()
}

var _ bandit.ComboPolicy = (*CombLinUCB)(nil)
