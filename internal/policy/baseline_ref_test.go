package policy

import (
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/stats"
)

// naiveBaseline is the per-round reference the incremental baselines must
// match arm for arm: every index recomputed from stats.MOSSRadius or
// stats.UCB1Radius each round, then bandit.ArgmaxFloat.
type naiveBaseline struct {
	moss     bool // MOSS radius and chosen-arm updates only
	sideObs  bool // fold every revealed observation (UCB1-side, UCB-N)
	hop      bool // UCB-MaxN's hop to the best-looking neighbour
	k        int
	horizon  int
	graph    *graphs.Graph
	stats    bandit.ArmStats
	indexBuf []float64
}

func (r *naiveBaseline) reset(meta bandit.Meta) {
	r.k, r.horizon, r.graph = meta.K, meta.Horizon, meta.Graph
	r.stats.Reset(meta.K)
	r.indexBuf = make([]float64, meta.K)
}

func (r *naiveBaseline) selectArm(t int) int {
	for i := 0; i < r.k; i++ {
		n := r.stats.Count[i]
		switch {
		case n == 0:
			r.indexBuf[i] = bandit.InfIndex
		case r.moss:
			budget := r.horizon
			if budget == 0 {
				budget = t
			}
			r.indexBuf[i] = r.stats.Mean[i] + stats.MOSSRadius(float64(budget)/float64(r.k), n)
		default:
			r.indexBuf[i] = r.stats.Mean[i] + stats.UCB1Radius(int64(t), n)
		}
	}
	star := bandit.ArgmaxFloat(r.indexBuf)
	if !r.hop || r.graph == nil {
		return star
	}
	best, bestMean := star, r.stats.Mean[star]
	for _, j := range r.graph.ClosedNeighborhood(star) {
		if r.stats.Count[j] > 0 && r.stats.Mean[j] > bestMean {
			best, bestMean = j, r.stats.Mean[j]
		}
	}
	return best
}

func (r *naiveBaseline) update(chosen int, obs []bandit.Observation) {
	if r.sideObs {
		for _, o := range obs {
			r.stats.Observe(o.Arm, o.Value)
		}
		return
	}
	if v, ok := bandit.ChosenValue(chosen, obs); ok {
		r.stats.Observe(chosen, v)
	}
}

// baselineCases pairs each incremental baseline with its naive reference.
func baselineCases() []struct {
	pol bandit.SinglePolicy
	ref *naiveBaseline
} {
	return []struct {
		pol bandit.SinglePolicy
		ref *naiveBaseline
	}{
		{NewMOSS(), &naiveBaseline{moss: true}},
		{NewUCB1(), &naiveBaseline{}},
		{&UCB1{UseSideObs: true}, &naiveBaseline{sideObs: true}},
		{NewUCBN(), &naiveBaseline{sideObs: true}},
		{NewUCBMaxN(), &naiveBaseline{sideObs: true, hop: true}},
	}
}

// TestBaselinesMatchNaiveReference steps every single-play baseline beside
// its naive recompute over random observation streams and requires the same
// arm every round. Streams cover K=1, K not a multiple of 4, t=1, arms that
// are never observed, anytime and fixed-horizon MOSS, rounds whose chosen
// arm goes unrevealed, and exact index ties: rewards come from a few value
// levels and round-robin openings leave counts equal.
func TestBaselinesMatchNaiveReference(t *testing.T) {
	levels := []float64{0, 0.25, 0.5, 1}
	var obs []bandit.Observation
	for seed := uint64(0); seed < 200; seed++ {
		r := rng.New(1000 + seed)
		k := 1 + r.Intn(40)
		switch seed {
		case 0:
			k = 1
		case 1:
			k = 7
		}
		rounds := 1 + r.Intn(600)
		horizon := 0
		if seed%2 == 1 {
			horizon = rounds + r.Intn(1000)
		}
		nLevels := 2 + r.Intn(len(levels)-1)
		g := graphs.Gnp(k, r.Float64()*0.5, r)
		meta := bandit.Meta{K: k, Horizon: horizon, Graph: g, Scenario: bandit.SSO}
		for _, c := range baselineCases() {
			c.pol.Reset(meta)
			c.ref.reset(meta)
			for round := 1; round <= rounds; round++ {
				want := c.ref.selectArm(round)
				got := c.pol.Select(round, nil)
				if got != want {
					t.Fatalf("seed %d %s K=%d horizon=%d round %d: selected %d, naive reference %d",
						seed, c.pol.Name(), k, horizon, round, got, want)
				}
				obs = obs[:0]
				for _, j := range g.ClosedNeighborhood(got) {
					if j == got && r.Intn(50) == 0 {
						continue // an unrevealed chosen arm
					}
					obs = append(obs, bandit.Observation{Arm: j, Value: levels[r.Intn(nLevels)]})
				}
				c.pol.Update(round, got, obs)
				c.ref.update(got, obs)
			}
		}
	}
}

// TestBaselinesSteadyStateAllocs pins the steady-state Select/Update of every
// baseline at zero allocations.
func TestBaselinesSteadyStateAllocs(t *testing.T) {
	const k = 37
	g := graphs.Gnp(k, 0.2, rng.New(3))
	for _, c := range baselineCases() {
		pol := c.pol
		for _, horizon := range []int{0, 5000} {
			pol.Reset(bandit.Meta{K: k, Horizon: horizon, Graph: g, Scenario: bandit.SSO})
			r := rng.New(9)
			obs := make([]bandit.Observation, 0, k)
			round := 0
			step := func() {
				round++
				i := pol.Select(round, nil)
				obs = obs[:0]
				for _, j := range g.ClosedNeighborhood(i) {
					obs = append(obs, bandit.Observation{Arm: j, Value: r.Float64()})
				}
				pol.Update(round, i, obs)
			}
			for round < 2*k {
				step()
			}
			if a := testing.AllocsPerRun(500, step); a != 0 {
				t.Errorf("%s horizon=%d: %v allocs per round, want 0", pol.Name(), horizon, a)
			}
		}
	}
}
