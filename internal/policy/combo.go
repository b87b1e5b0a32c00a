package policy

import (
	"fmt"
	"math"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// ComboObjective selects which expected value a combinatorial baseline
// maximises: the direct reward Σ_{i∈s_x} or the closure reward Σ_{i∈Y_x}.
type ComboObjective int

// Objectives for combinatorial baselines.
const (
	// Direct targets the CSO objective λ_x.
	Direct ComboObjective = iota + 1
	// Closure targets the CSR objective σ_x.
	Closure
)

// String implements fmt.Stringer.
func (o ComboObjective) String() string {
	switch o {
	case Direct:
		return "direct"
	case Closure:
		return "closure"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// CUCB is the combinatorial UCB baseline (Chen, Wang & Yuan 2013 style):
// it keeps per-arm UCB estimates from the arm-level observations of played
// strategies and plays the strategy maximising the sum of optimistic arm
// estimates (+Inf while unobserved) under the chosen objective, by the
// exact oracle DFL-CSR uses, strategy.Set.Argmax. Its guarantee is
// distribution-dependent, which is the gap the paper's DFL-CSO/CSR close.
type CUCB struct {
	// Objective picks the maximised sum; defaults to Direct.
	Objective ComboObjective

	stats bandit.ArmStats
	set   *strategy.Set
	k     int
	index []float64
}

// NewCUCB returns a CUCB baseline with the given objective.
func NewCUCB(obj ComboObjective) *CUCB { return &CUCB{Objective: obj} }

// Name implements bandit.ComboPolicy.
func (p *CUCB) Name() string { return "CUCB-" + p.Objective.String() }

// Reset implements bandit.ComboPolicy.
func (p *CUCB) Reset(meta bandit.ComboMeta) {
	if p.Objective == 0 {
		p.Objective = Direct
	}
	p.k = meta.K
	p.set = meta.Strategies
	p.stats.Reset(meta.K)
	p.index = make([]float64, meta.K)
}

// Select implements bandit.ComboPolicy.
func (p *CUCB) Select(t int, _ *bandit.RoundContext) int {
	l := 1.5 * math.Log(float64(t))
	for i := 0; i < p.k; i++ {
		n := p.stats.Count[i]
		if n == 0 {
			p.index[i] = bandit.InfIndex
			continue
		}
		p.index[i] = p.stats.Mean[i] + math.Sqrt(l/float64(n))
	}
	x, _ := p.set.Argmax(p.index, p.Objective == Closure)
	return x
}

// Update implements bandit.ComboPolicy: every revealed arm observation
// updates the per-arm statistics.
func (p *CUCB) Update(_ int, _ int, obs []bandit.Observation) {
	for _, o := range obs {
		p.stats.Observe(o.Arm, o.Value)
	}
}

var _ bandit.ComboPolicy = (*CUCB)(nil)

// ComboRandom plays a uniformly random feasible strategy each round.
type ComboRandom struct {
	rng *rng.RNG
	len int
}

// NewComboRandom returns the uniform-random combinatorial baseline.
func NewComboRandom(r *rng.RNG) *ComboRandom { return &ComboRandom{rng: r} }

// Name implements bandit.ComboPolicy.
func (p *ComboRandom) Name() string { return "random" }

// Reset implements bandit.ComboPolicy.
func (p *ComboRandom) Reset(meta bandit.ComboMeta) { p.len = meta.Strategies.Len() }

// Select implements bandit.ComboPolicy.
func (p *ComboRandom) Select(int, *bandit.RoundContext) int { return p.rng.Intn(p.len) }

// Update implements bandit.ComboPolicy.
func (p *ComboRandom) Update(int, int, []bandit.Observation) {}

var _ bandit.ComboPolicy = (*ComboRandom)(nil)

// ComboEXP3 runs EXP3 directly over the enumerated strategy set — the
// "treat each com-arm as an independent arm" strawman whose regret scales
// with |F|; the paper's Section VII cites this blow-up as the motivation
// for exploiting strategy-level side observation.
type ComboEXP3 struct {
	// Gamma is the uniform-exploration mixing coefficient.
	Gamma float64

	rng     *rng.RNG
	set     *strategy.Set
	weights []float64
	probs   []float64
	// maxReward normalises strategy rewards into [0,1] for the weight
	// update (direct rewards can reach the strategy size).
	maxReward float64
}

// NewComboEXP3 returns an EXP3-over-strategies baseline. It panics unless
// 0 < gamma <= 1.
func NewComboEXP3(gamma float64, r *rng.RNG) *ComboEXP3 {
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("policy: ComboEXP3 gamma %v outside (0,1]", gamma))
	}
	return &ComboEXP3{Gamma: gamma, rng: r}
}

// Name implements bandit.ComboPolicy.
func (p *ComboEXP3) Name() string { return fmt.Sprintf("EXP3-F(%.2f)", p.Gamma) }

// Reset implements bandit.ComboPolicy.
func (p *ComboEXP3) Reset(meta bandit.ComboMeta) {
	p.set = meta.Strategies
	n := meta.Strategies.Len()
	p.weights = make([]float64, n)
	p.probs = make([]float64, n)
	for i := range p.weights {
		p.weights[i] = 1
	}
	p.maxReward = 0
	for x := 0; x < n; x++ {
		if m := float64(len(meta.Strategies.Arms(x))); m > p.maxReward {
			p.maxReward = m
		}
	}
	if p.maxReward == 0 {
		p.maxReward = 1
	}
}

// Select implements bandit.ComboPolicy.
func (p *ComboEXP3) Select(int, *bandit.RoundContext) int {
	var total float64
	for _, w := range p.weights {
		total += w
	}
	n := float64(len(p.weights))
	for i, w := range p.weights {
		p.probs[i] = (1-p.Gamma)*w/total + p.Gamma/n
	}
	u := p.rng.Float64()
	var cum float64
	for i, pr := range p.probs {
		cum += pr
		if u < cum {
			return i
		}
	}
	return len(p.weights) - 1
}

// Update implements bandit.ComboPolicy. The played strategy's direct
// reward is reconstructed from the arm-level observations.
func (p *ComboEXP3) Update(_ int, chosen int, obs []bandit.Observation) {
	valueOf := make(map[int]float64, len(obs))
	for _, o := range obs {
		valueOf[o.Arm] = o.Value
	}
	var reward float64
	for _, i := range p.set.Arms(chosen) {
		reward += valueOf[i]
	}
	reward /= p.maxReward
	est := reward / p.probs[chosen]
	n := float64(len(p.weights))
	p.weights[chosen] *= math.Exp(p.Gamma * est / n)

	const weightCeiling = 1e300
	maxW := 0.0
	for _, w := range p.weights {
		if w > maxW {
			maxW = w
		}
	}
	if maxW > weightCeiling {
		for i := range p.weights {
			p.weights[i] /= maxW
		}
	}
}

var _ bandit.ComboPolicy = (*ComboEXP3)(nil)
