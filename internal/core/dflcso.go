package core

import (
	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/strategy"
)

// DFLCSO is Algorithm 2: the Distribution-Free Learning policy for
// combinatorial-play with side observation. Following Section IV, it
// converts the combinatorial problem to a single-play one: each feasible
// strategy ("com-arm") becomes a vertex of the strategy relation graph
// SG(F, L), and the DFL-SSO index machinery runs over com-arms, with
// playing strategy x updating the statistics of every SG-neighbour y
// (whose direct reward R_{y,t} = Σ_{i∈s_y} X_{i,t} is fully revealed
// because s_y ⊆ Y_x).
//
// Faithfulness notes: (1) Equation (42) writes K inside the logarithm, but
// Theorem 2's bound is in |F|; we use |F|, the number of com-arms, which is
// the quantity that plays K's role after the conversion. (2) Strategy
// rewards live in [0, M] rather than [0, 1], so the exploration radius is
// scaled by the maximum strategy size, matching the normalisation the
// MOSS-style analysis performs before applying Hoeffding bounds.
//
// When the runner supplies a ComboMeta.SharedSG cache, the graph
// construction is skipped entirely and the cell-wide instance is used
// read-only; otherwise Reset builds its own.
type DFLCSO struct {
	set  *strategy.Set
	sg   *graphs.Graph
	sum  []float64 // Σ of reconstructed strategy rewards per com-arm
	mean []float64 // R̄_x, maintained on update
	idx  mossIndex
	// valueOf is a per-round scratch table mapping arm -> observed value.
	valueOf []float64
	seen    []bool
}

// NewDFLCSO returns a DFL-CSO policy.
func NewDFLCSO() *DFLCSO { return &DFLCSO{} }

// Name implements bandit.ComboPolicy.
func (p *DFLCSO) Name() string { return "DFL-CSO" }

// Reset implements bandit.ComboPolicy. It takes the strategy relation
// graph from the shared per-cell cache when one is supplied, and otherwise
// builds it here once per run, at the cost BuildStrategyGraph states.
func (p *DFLCSO) Reset(meta bandit.ComboMeta) {
	p.set = meta.Strategies
	if meta.SharedSG != nil {
		p.sg = meta.SharedSG.Get()
	} else {
		p.sg = BuildStrategyGraph(meta.Strategies)
	}
	f := meta.Strategies.Len()
	scale := 1.0
	for x := 0; x < f; x++ {
		if m := float64(len(meta.Strategies.Arms(x))); m > scale {
			scale = m
		}
	}
	p.sum = make([]float64, f)
	p.mean = make([]float64, f)
	p.idx.reset(f, scale, meta.Horizon)
	p.valueOf = make([]float64, meta.K)
	p.seen = make([]bool, meta.K)
}

// StrategyGraph exposes the constructed SG(F, L) for inspection (tests,
// diagnostics, the graphgen demo). It returns nil before Reset.
func (p *DFLCSO) StrategyGraph() *graphs.Graph { return p.sg }

// Select implements bandit.ComboPolicy, maximising the Equation (42) index
// over com-arms.
func (p *DFLCSO) Select(t int, _ *bandit.RoundContext) int {
	return p.idx.argmax(p.idx.logRound(t), p.mean)
}

// Update implements bandit.ComboPolicy: the played com-arm and every
// SG-neighbour get their strategy-level reward folded in, reconstructed
// from the arm-level observations.
func (p *DFLCSO) Update(_ int, chosen int, obs []bandit.Observation) {
	for _, o := range obs {
		p.valueOf[o.Arm] = o.Value
		p.seen[o.Arm] = true
	}
	for _, y := range p.sg.ClosedNeighborhood(chosen) {
		var reward float64
		complete := true
		for _, i := range p.set.Arms(y) {
			if !p.seen[i] {
				complete = false
				break
			}
			reward += p.valueOf[i]
		}
		// By the SG edge rule every neighbour is fully revealed; the guard
		// protects against a malformed runner rather than normal operation.
		if complete {
			p.sum[y] += reward
			p.mean[y] = p.sum[y] * p.idx.observe(y)
		}
	}
	for _, o := range obs {
		p.seen[o.Arm] = false
	}
}

var _ bandit.ComboPolicy = (*DFLCSO)(nil)
