package bandit

import (
	"fmt"
	"math"

	"netbandit/internal/graphs"
	"netbandit/internal/rng"
)

// RoundContext carries one round's per-arm feature vectors. It is the
// value passed to SinglePolicy.Select / ComboPolicy.Select: nil for the
// classical fixed-mean game, non-nil when the environment is contextual.
// The buffer is reused between rounds by the runner, so a context is only
// valid until the next Select; policies that need it during Update retain
// the pointer, not a copy.
type RoundContext struct {
	// T is the round the context belongs to (1-based).
	T int
	// K is the number of arms, D the feature dimension.
	K, D int
	// X holds the feature matrix row-major: X[i*D:(i+1)*D] is arm i's
	// feature vector, each coordinate in [0, 1).
	X []float64
}

// Arm returns arm i's feature vector as a subslice of X (no copy).
func (rc *RoundContext) Arm(i int) []float64 {
	return rc.X[i*rc.D : (i+1)*rc.D]
}

// ContextualEnv is the linear-reward variant of Env: instead of fixed
// Bernoulli means, each arm i has a round-varying expected reward
//
//	p_i(t) = θ · x_i(t)
//
// where x_i(t) ∈ [0,1)^d is the arm's feature vector for round t and θ is
// a hidden non-negative weight vector normalised to sum 1 (so p_i(t) is
// always a valid Bernoulli parameter). Realised rewards are
// Bernoulli(p_i(t)).
//
// Features are drawn from a dedicated counter stream: x_i(t) is a pure
// function of (feature stream, arm, t), so every shard, worker count, and
// replay reconstructs bit-identical contexts — the same invariant the
// reward stream already has. ContextualEnv is immutable after construction
// and safe for concurrent use.
type ContextualEnv struct {
	k, d  int
	graph *graphs.Graph
	theta []float64

	closed  [][]int
	selfPos []int
	// armPremix caches the reward-stream hash half per arm; featPremix
	// caches it per flattened feature coordinate (arm*d + j).
	armPremix  []uint64
	featPremix []uint64
	features   rng.Counter
}

// NewContextualEnv builds a contextual environment over k arms linked by
// the relation graph g (nil for the classical no-side-information game).
// theta is the hidden weight vector; it must be non-negative with a
// positive sum and is normalised to sum 1 internally. features is the
// counter stream the per-round feature vectors are drawn from — derive it
// from the experiment seed (e.g. rng.RNG.Counter after Splits) so sharded
// runs agree on the contexts.
func NewContextualEnv(g *graphs.Graph, k int, theta []float64, features rng.Counter) (*ContextualEnv, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bandit: contextual environment needs at least one arm")
	}
	d := len(theta)
	if d == 0 {
		return nil, fmt.Errorf("bandit: contextual environment needs a non-empty theta")
	}
	if g != nil && g.N() != k {
		return nil, fmt.Errorf("bandit: graph has %d vertices but k=%d", g.N(), k)
	}
	if g == nil {
		g = graphs.Empty(k)
	}
	var sum float64
	for j, w := range theta {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("bandit: theta[%d] = %v must be finite and non-negative", j, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("bandit: theta must have a positive sum")
	}
	e := &ContextualEnv{
		k:          k,
		d:          d,
		graph:      g,
		theta:      make([]float64, d),
		closed:     make([][]int, k),
		selfPos:    make([]int, k),
		armPremix:  make([]uint64, k),
		featPremix: make([]uint64, k*d),
		features:   features,
	}
	for j, w := range theta {
		e.theta[j] = w / sum
	}
	for i := 0; i < k; i++ {
		e.closed[i] = g.ClosedNeighborhood(i)
		e.armPremix[i] = rng.PremixArm(uint64(i))
		for pos, j := range e.closed[i] {
			if j == i {
				e.selfPos[i] = pos
				break
			}
		}
		for j := 0; j < d; j++ {
			e.featPremix[i*d+j] = rng.PremixArm(uint64(i*d + j))
		}
	}
	return e, nil
}

// K returns the number of arms.
func (e *ContextualEnv) K() int { return e.k }

// D returns the feature dimension.
func (e *ContextualEnv) D() int { return e.d }

// Graph returns the relation graph. Callers must treat it as read-only.
func (e *ContextualEnv) Graph() *graphs.Graph { return e.graph }

// Closed returns the closed neighbourhood N̄_i, sorted. The slice is
// shared; callers must not modify it.
func (e *ContextualEnv) Closed(i int) []int { return e.closed[i] }

// SelfPos returns the position of arm i within Closed(i).
func (e *ContextualEnv) SelfPos(i int) int { return e.selfPos[i] }

// Theta returns a copy of the normalised hidden weight vector.
func (e *ContextualEnv) Theta() []float64 {
	out := make([]float64, e.d)
	copy(out, e.theta)
	return out
}

// Context fills rc with round t's feature vectors and returns it,
// reusing rc's buffer (rc may be nil). The features are a pure function of
// (feature stream, arm coordinate, t): calling Context for any subset of
// rounds, in any order, on any shard yields bit-identical values. The flat
// K·d fill batches four counter hashes per iteration, like the reward
// sampler.
func (e *ContextualEnv) Context(t int, rc *RoundContext) *RoundContext {
	if rc == nil {
		rc = &RoundContext{}
	}
	need := e.k * e.d
	if cap(rc.X) < need {
		rc.X = make([]float64, need)
	}
	rc.X = rc.X[:need]
	rc.T, rc.K, rc.D = t, e.k, e.d
	cr := e.features.Round(uint64(t))
	idx := 0
	for ; idx+4 <= need; idx += 4 {
		u0, u1, u2, u3 := cr.Uint64At4Premixed(
			e.featPremix[idx], e.featPremix[idx+1], e.featPremix[idx+2], e.featPremix[idx+3])
		rc.X[idx] = float64(u0>>11) / (1 << 53)
		rc.X[idx+1] = float64(u1>>11) / (1 << 53)
		rc.X[idx+2] = float64(u2>>11) / (1 << 53)
		rc.X[idx+3] = float64(u3>>11) / (1 << 53)
	}
	for ; idx < need; idx++ {
		rc.X[idx] = float64(cr.Uint64AtPremixed(e.featPremix[idx])>>11) / (1 << 53)
	}
	return rc
}

// MeanAt returns p_i(t) = θ · x_i(t) for the round described by rc. Each
// product is rounded by an explicit float64 conversion, so architectures
// with fused multiply-add compute the same bits as amd64.
func (e *ContextualEnv) MeanAt(rc *RoundContext, i int) float64 {
	x := rc.Arm(i)
	var p float64
	for j, w := range e.theta {
		p += float64(w * x[j])
	}
	return p
}

// MeansAt fills buf (grown to K if needed) with this round's expected
// rewards p_i(t) for every arm and returns it.
func (e *ContextualEnv) MeansAt(rc *RoundContext, buf []float64) []float64 {
	if cap(buf) < e.k {
		buf = make([]float64, e.k)
	}
	buf = buf[:e.k]
	for i := range buf {
		buf[i] = e.MeanAt(rc, i)
	}
	return buf
}

// SampleArmAt draws the round-t realisation X_{arm,t} ~ Bernoulli(p) from
// the reward counter stream c, where p is the arm's expected reward this
// round (from MeanAt/MeansAt). Like Env.SampleArm the draw is a pure
// function of (c, arm, t) — the round-varying part is only the threshold.
func (e *ContextualEnv) SampleArmAt(c rng.Counter, arm, t int, p float64) float64 {
	thr := uint64(math.Ceil(p * (1 << 53)))
	u := c.Uint64At(uint64(arm), uint64(t)) >> 11
	return float64((u - thr) >> 63)
}

// SampleObservationsAt is the contextual round loop's fused sampling pass:
// it draws X_{i,t} ~ Bernoulli(means[i]) for the listed arms from the
// reward counter stream and appends one Observation per arm to dst,
// returning the extended slice. means is the round's full expected-reward
// vector (MeansAt); when xs is non-nil each value is also written at its
// arm index. Hashing is batched four arms per iteration exactly like
// Env.SampleObservations, and each draw matches SampleArmAt bit-for-bit.
func (e *ContextualEnv) SampleObservationsAt(c rng.Counter, t int, arms []int, means []float64, xs []float64, dst []Observation) []Observation {
	cr := c.Round(uint64(t))
	premix := e.armPremix
	base := len(dst)
	if need := base + len(arms); cap(dst) < need {
		dst = append(dst[:cap(dst)], make([]Observation, need-cap(dst))...)
	}
	dst = dst[:base+len(arms)]
	out := dst[base:]
	idx := 0
	for ; idx+4 <= len(arms); idx += 4 {
		i0, i1, i2, i3 := arms[idx], arms[idx+1], arms[idx+2], arms[idx+3]
		u0, u1, u2, u3 := cr.Uint64At4Premixed(premix[i0], premix[i1], premix[i2], premix[i3])
		t0 := uint64(math.Ceil(means[i0] * (1 << 53)))
		t1 := uint64(math.Ceil(means[i1] * (1 << 53)))
		t2 := uint64(math.Ceil(means[i2] * (1 << 53)))
		t3 := uint64(math.Ceil(means[i3] * (1 << 53)))
		v0 := float64((u0>>11 - t0) >> 63)
		v1 := float64((u1>>11 - t1) >> 63)
		v2 := float64((u2>>11 - t2) >> 63)
		v3 := float64((u3>>11 - t3) >> 63)
		out[idx] = Observation{Arm: i0, Value: v0}
		out[idx+1] = Observation{Arm: i1, Value: v1}
		out[idx+2] = Observation{Arm: i2, Value: v2}
		out[idx+3] = Observation{Arm: i3, Value: v3}
		if xs != nil {
			xs[i0], xs[i1], xs[i2], xs[i3] = v0, v1, v2, v3
		}
	}
	for ; idx < len(arms); idx++ {
		i := arms[idx]
		thr := uint64(math.Ceil(means[i] * (1 << 53)))
		u := cr.Uint64AtPremixed(premix[i]) >> 11
		v := float64((u - thr) >> 63)
		out[idx] = Observation{Arm: i, Value: v}
		if xs != nil {
			xs[i] = v
		}
	}
	return dst
}

// String summarises the environment.
func (e *ContextualEnv) String() string {
	return fmt.Sprintf("ctxenv(K=%d, d=%d, %s)", e.k, e.d, e.graph)
}

// RandomTheta draws a hidden weight vector for NewContextualEnv: d
// uniforms from r, normalised to sum 1. Splitting a dedicated stream off
// the experiment seed for this call keeps the environment reproducible.
func RandomTheta(r *rng.RNG, d int) []float64 {
	theta := make([]float64, d)
	var sum float64
	for j := range theta {
		theta[j] = r.Float64()
		sum += theta[j]
	}
	if sum == 0 {
		for j := range theta {
			theta[j] = 1
		}
		sum = float64(d)
	}
	for j := range theta {
		theta[j] /= sum
	}
	return theta
}
