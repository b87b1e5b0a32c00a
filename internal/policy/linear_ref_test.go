package policy

import (
	"math"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// refLinModel is the reference ridge model: a Sherman–Morrison update of
// A⁻¹ and b, then θ̂ = A⁻¹b recomputed after every observation. linModel,
// which refreshes θ̂ once per batch, must reach the same bits.
type refLinModel struct {
	d                      int
	ainv, bvec, theta, tmp []float64
}

func newRefLinModel(d int, lam float64) *refLinModel {
	m := &refLinModel{d: d, ainv: make([]float64, d*d), bvec: make([]float64, d),
		theta: make([]float64, d), tmp: make([]float64, d)}
	for j := 0; j < d; j++ {
		m.ainv[j*d+j] = 1 / lam
	}
	return m
}

func (m *refLinModel) add(x []float64, r float64) {
	d := m.d
	var denom float64 = 1
	for i := 0; i < d; i++ {
		var s float64
		row := m.ainv[i*d : (i+1)*d]
		for j, xj := range x {
			s += float64(row[j] * xj)
		}
		m.tmp[i] = s
		denom += float64(s * x[i])
	}
	inv := 1 / denom
	for i := 0; i < d; i++ {
		ti := m.tmp[i] * inv
		row := m.ainv[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			row[j] -= float64(ti * m.tmp[j])
		}
	}
	for j, xj := range x {
		m.bvec[j] += float64(r * xj)
	}
	for i := 0; i < d; i++ {
		var s float64
		row := m.ainv[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			s += float64(row[j] * m.bvec[j])
		}
		m.theta[i] = s
	}
}

// sameBits reports whether a and b hold identical float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLinModelRefreshMatchesPerAddRefresh feeds random batches of
// observations (the sizes a round's closure reveals, empty ones included)
// to both models and checks θ̂, A⁻¹ and b bit for bit after each batch.
func TestLinModelRefreshMatchesPerAddRefresh(t *testing.T) {
	for _, d := range []int{1, 3, 4, 7} {
		r := rng.New(uint64(90 + d))
		var got linModel
		got.reset(d, 1)
		want := newRefLinModel(d, 1)
		x := make([]float64, d)
		for batch := 0; batch < 300; batch++ {
			for n := r.Intn(13); n > 0; n-- {
				for j := range x {
					x[j] = r.Float64()
				}
				reward := float64(r.Intn(2))
				got.add(x, reward)
				want.add(x, reward)
			}
			got.refresh()
			if !sameBits(got.theta, want.theta) || !sameBits(got.ainv, want.ainv) || !sameBits(got.bvec, want.bvec) {
				t.Fatalf("d=%d batch %d: θ̂ %v, per-add reference %v", d, batch, got.theta, want.theta)
			}
		}
	}
}

// TestContextualPoliciesRefreshOncePerUpdate drives LinUCB, CombLinUCB and
// CtxThompson through whole contextual rounds and checks after every
// Update that the policy's θ̂ equals a per-add-refresh reference fed the
// same observations, so every later selection is unchanged too.
func TestContextualPoliciesRefreshOncePerUpdate(t *testing.T) {
	const k, d, rounds = 10, 4, 400
	r := rng.New(5)
	cenv, err := bandit.NewContextualEnv(nil, k, bandit.RandomTheta(r.Split(1), d), r.Split(2).Counter())
	if err != nil {
		t.Fatal(err)
	}
	set, err := strategy.TopM(k, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctr := r.Split(3).Counter()
	meta := bandit.Meta{K: k, Scenario: bandit.SSO, Dim: d}

	// Each case plays one round: select, reveal a set of arms, update.
	type round func(t int, rc *bandit.RoundContext, reveal func([]int) []bandit.Observation)
	linucb := NewLinUCB(1)
	linucb.Reset(meta)
	comb := NewCombLinUCB(1, Direct)
	comb.Reset(bandit.ComboMeta{K: k, Strategies: set, Scenario: bandit.CSO, Dim: d})
	ts := NewCtxThompson(0.5, rng.New(7))
	ts.Reset(meta)
	var window []int
	// windowFrom reveals a round-dependent run of arms from a, so batch
	// sizes vary from round to round.
	windowFrom := func(t, a int) []int {
		window = window[:0]
		for b := a; b < k && b < a+1+t%4; b++ {
			window = append(window, b)
		}
		return window
	}
	cases := []struct {
		name string
		m    *linModel
		play round
	}{
		{"LinUCB", &linucb.m, func(t int, rc *bandit.RoundContext, reveal func([]int) []bandit.Observation) {
			arm := linucb.Select(t, rc)
			linucb.Update(t, arm, reveal(windowFrom(t, arm)))
		}},
		{"CombLinUCB", &comb.m, func(t int, rc *bandit.RoundContext, reveal func([]int) []bandit.Observation) {
			x := comb.Select(t, rc)
			comb.Update(t, x, reveal(set.Arms(x)))
		}},
		{"CtxThompson", &ts.m, func(t int, rc *bandit.RoundContext, reveal func([]int) []bandit.Observation) {
			arm := ts.Select(t, rc)
			ts.Update(t, arm, reveal(windowFrom(t, arm)))
		}},
	}
	var rc *bandit.RoundContext
	var means []float64
	var obs []bandit.Observation
	for _, tc := range cases {
		ref := newRefLinModel(d, 1)
		for t0 := 1; t0 <= rounds; t0++ {
			rc = cenv.Context(t0, rc)
			means = cenv.MeansAt(rc, means)
			tc.play(t0, rc, func(arms []int) []bandit.Observation {
				obs = cenv.SampleObservationsAt(ctr, t0, arms, means, nil, obs[:0])
				for _, o := range obs {
					ref.add(rc.Arm(o.Arm), o.Value)
				}
				return obs
			})
			if !sameBits(tc.m.theta, ref.theta) {
				t.Fatalf("%s round %d: θ̂ %v, per-add reference %v", tc.name, t0, tc.m.theta, ref.theta)
			}
		}
	}
}
