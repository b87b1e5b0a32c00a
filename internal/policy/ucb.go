package policy

import (
	"math"

	"netbandit/internal/bandit"
)

// UCB1 is the classical Auer-Cesa-Bianchi-Fischer index policy with index
// X̄_i + sqrt(2 ln t / T_i). Its regret guarantee depends on the gaps Δ_i
// (distribution-dependent), unlike MOSS and the DFL family. UseSideObs
// turns on folding of neighbours' observations into the arm statistics,
// which preserves the index form but tightens the means faster.
type UCB1 struct {
	// UseSideObs, when true, consumes every revealed observation instead
	// of only the chosen arm's.
	UseSideObs bool

	ucb ucbIndex
}

// NewUCB1 returns a UCB1 policy that ignores side observations.
func NewUCB1() *UCB1 { return &UCB1{} }

// Name implements bandit.SinglePolicy.
func (p *UCB1) Name() string {
	if p.UseSideObs {
		return "UCB1-side"
	}
	return "UCB1"
}

// Reset implements bandit.SinglePolicy.
func (p *UCB1) Reset(meta bandit.Meta) { p.ucb.reset(meta.K) }

// Select implements bandit.SinglePolicy.
func (p *UCB1) Select(t int, _ *bandit.RoundContext) int { return p.ucb.argmax(t) }

// Update implements bandit.SinglePolicy.
func (p *UCB1) Update(_ int, chosen int, obs []bandit.Observation) {
	if p.UseSideObs {
		p.ucb.observeAll(obs)
		return
	}
	if v, ok := bandit.ChosenValue(chosen, obs); ok {
		p.ucb.observe(chosen, v)
	}
}

var _ bandit.SinglePolicy = (*UCB1)(nil)

// ucbIndex is the estimation state and index scan shared by UCB1, UCB-N
// and UCB-MaxN: per-arm counts and means plus the cached reciprocal 1/T_i,
// refreshed once per observation.
type ucbIndex struct {
	stats bandit.ArmStats
	inv   []float64 // 1/Count[i]; stale while Count[i] == 0
}

func (u *ucbIndex) reset(k int) {
	u.stats.Reset(k)
	u.inv = make([]float64, k)
}

func (u *ucbIndex) observe(i int, x float64) {
	u.stats.Observe(i, x)
	u.inv[i] = 1 / float64(u.stats.Count[i])
}

func (u *ucbIndex) observeAll(obs []bandit.Observation) {
	for _, o := range obs {
		u.observe(o.Arm, o.Value)
	}
}

// argmax returns the lowest arm maximising X̄_i + sqrt(2 ln t / T_i), with
// +Inf for unobserved arms: the same arm, bit for bit, as filling every
// index with stats.UCB1Radius and taking bandit.ArgmaxFloat. 2 ln t is
// computed once per round, and arms that cannot beat the running best skip
// the divide and sqrt.
func (u *ucbIndex) argmax(t int) int {
	if t < 1 {
		t = 1
	}
	l := 2 * math.Log(float64(t))
	// Reslicing to len(count) lets the compiler drop the bounds checks.
	count := u.stats.Count
	mean := u.stats.Mean[:len(count)]
	inv := u.inv[:len(count)]
	best, bestV := 0, math.Inf(-1)
	for i, n := range count {
		if n == 0 {
			// +Inf: every earlier index is finite, so the first unobserved
			// arm wins the lowest-index tie-break outright.
			return i
		}
		m := mean[i]
		// Squared prune with the same conservative (1-1e-9) slack as the
		// DFL kernel: an arm is skipped only when it loses by far more than
		// the rounding of l·inv against l/n, so the exact comparison below
		// decides every arm that could contend.
		if d := bestV - m; d > 0 && l*inv[i] < d*d*(1-1e-9) {
			continue
		}
		if v := m + math.Sqrt(l/float64(n)); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
