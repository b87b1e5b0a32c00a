package sim

import (
	"fmt"
	"sync"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
	"netbandit/internal/trace"
)

// Config controls a single simulation run.
type Config struct {
	// Horizon is the number of rounds n. Required.
	Horizon int
	// Checkpoints are the 1-based rounds at which the regret curves are
	// sampled, in increasing order. Nil selects an even 100-point grid.
	Checkpoints []int
	// AnnounceHorizon passes Horizon to the policy via Meta (MOSS uses
	// it); when false the policy runs anytime.
	AnnounceHorizon bool
	// Observer, when non-nil, receives one trace.Event per round. The
	// event's observation slice is reused between rounds; observers must
	// copy what they keep (trace.Recorder does).
	Observer trace.Observer
}

func (c Config) validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: horizon must be positive, got %d", c.Horizon)
	}
	for i, cp := range c.Checkpoints {
		if cp < 1 || cp > c.Horizon {
			return fmt.Errorf("sim: checkpoint %d out of range [1,%d]", cp, c.Horizon)
		}
		if i > 0 && cp <= c.Checkpoints[i-1] {
			return fmt.Errorf("sim: checkpoints must be strictly increasing")
		}
	}
	return nil
}

// checkpoints returns the configured grid, or an even default grid.
func (c Config) checkpoints() []int {
	if len(c.Checkpoints) > 0 {
		return c.Checkpoints
	}
	return DefaultCheckpoints(c.Horizon, 100)
}

// DefaultCheckpoints builds an even grid of `points` checkpoints over
// [1, horizon], always ending exactly at horizon.
func DefaultCheckpoints(horizon, points int) []int {
	if points > horizon {
		points = horizon
	}
	if points < 1 {
		points = 1
	}
	out := make([]int, 0, points)
	for i := 1; i <= points; i++ {
		cp := i * horizon / points
		if cp < 1 {
			cp = 1
		}
		if len(out) > 0 && cp == out[len(out)-1] {
			continue
		}
		out = append(out, cp)
	}
	return out
}

// Series is one replication's regret curves sampled at T.
type Series struct {
	Policy      string
	T           []int
	CumPseudo   []float64
	CumRealized []float64
	AvgPseudo   []float64
	AvgRealized []float64
}

// SingleRun is an in-progress single-play replication, advanced one round
// at a time by Step. Each round costs O(|N̄_chosen|) — rewards are drawn
// from a counter stream only for the arms actually revealed — plus the
// policy's own work, and performs no allocations in steady state.
type SingleRun struct {
	env     *bandit.Env
	scen    bandit.Scenario
	pol     bandit.SinglePolicy
	cfg     Config
	ctr     rng.Counter
	scratch *rng.RNG
	tracker *bandit.RegretTracker
	out     *Series
	obs     []bandit.Observation
	next    int
	t       int
	pending int // arm of the open round, -1 when none (see Decide)

	// Contextual mode (cenv non-nil): rc is the reused per-round feature
	// buffer, rmeans the round's expected rewards p_i(t). env is nil in
	// this mode; regret is accounted per round via RecordVs against the
	// round's own optimum.
	cenv   *bandit.ContextualEnv
	rc     *bandit.RoundContext
	rmeans []float64
}

// NewSingleRun validates the configuration, resets the policy, and returns
// a stepper positioned before round 1. The generator r seeds the
// environment's counter stream: every X_{i,t} is a pure function of (r's
// state at this call, i, t), so results do not depend on the policy's
// observation pattern. r itself is neither advanced nor retained — unlike
// the pre-counter runner, which consumed K draws from r per round, the
// caller's generator is left untouched.
func NewSingleRun(env *bandit.Env, scen bandit.Scenario, pol bandit.SinglePolicy, cfg Config, r *rng.RNG) (*SingleRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if scen.Combinatorial() {
		return nil, fmt.Errorf("sim: RunSingle called with combinatorial scenario %v", scen)
	}
	horizon := 0
	if cfg.AnnounceHorizon {
		horizon = cfg.Horizon
	}
	pol.Reset(bandit.Meta{
		K:        env.K(),
		Horizon:  horizon,
		Graph:    env.Graph(),
		Scenario: scen,
	})
	var optimal float64
	if scen == bandit.SSR {
		_, optimal = env.BestSideArm()
	} else {
		_, optimal = env.BestArm()
	}
	return &SingleRun{
		env:  env,
		scen: scen,
		pol:  pol,
		cfg:  cfg,
		ctr:  r.Counter(),
		// The scratch generator is fully reseeded before every use, so a
		// private zero-value instance suffices; sharing r here would
		// clobber a generator the caller may have wired into the policy.
		scratch: new(rng.RNG),
		tracker: bandit.NewRegretTracker(optimal),
		out:     newSeries(pol.Name(), cfg.checkpoints()),
		obs:     make([]bandit.Observation, 0, env.K()),
		pending: -1,
	}, nil
}

// NewContextualSingleRun is NewSingleRun over a contextual environment:
// each Decide derives the round's feature context from cenv's counter
// stream and hands it to the policy, and regret is accounted against the
// per-round optimal arm (which moves with the context). Non-contextual
// policies run unchanged — they ignore the context argument — so the same
// cell can compare LinUCB against the fixed-mean baselines.
func NewContextualSingleRun(cenv *bandit.ContextualEnv, scen bandit.Scenario, pol bandit.SinglePolicy, cfg Config, r *rng.RNG) (*SingleRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if scen.Combinatorial() {
		return nil, fmt.Errorf("sim: contextual single run called with combinatorial scenario %v", scen)
	}
	horizon := 0
	if cfg.AnnounceHorizon {
		horizon = cfg.Horizon
	}
	pol.Reset(bandit.Meta{
		K:        cenv.K(),
		Horizon:  horizon,
		Graph:    cenv.Graph(),
		Scenario: scen,
		Dim:      cenv.D(),
	})
	return &SingleRun{
		cenv:    cenv,
		scen:    scen,
		pol:     pol,
		cfg:     cfg,
		ctr:     r.Counter(),
		scratch: new(rng.RNG),
		tracker: bandit.NewRegretTracker(0), // driven via RecordVs
		out:     newSeries(pol.Name(), cfg.checkpoints()),
		obs:     make([]bandit.Observation, 0, cenv.K()),
		rmeans:  make([]float64, cenv.K()),
		pending: -1,
	}, nil
}

// Done reports whether the run has played all cfg.Horizon rounds.
func (sr *SingleRun) Done() bool { return sr.t >= sr.cfg.Horizon }

// Round returns the number of rounds fully played (decided and fed back).
func (sr *SingleRun) Round() int {
	if sr.pending >= 0 {
		return sr.t - 1
	}
	return sr.t
}

// Series returns the regret curves recorded so far. Checkpoints beyond the
// current round are zero until reached.
func (sr *SingleRun) Series() *Series { return sr.out }

// Regret returns the cumulative pseudo- and realized regret accumulated
// over the rounds played so far.
func (sr *SingleRun) Regret() (cumPseudo, cumRealized float64) {
	return sr.tracker.CumPseudo(), sr.tracker.CumRealized()
}

// Decide opens round t = Round()+1 and returns the policy's chosen arm
// without closing the round: the caller supplies the revealed rewards
// later via ApplyFeedback (or lets the environment sample them via
// AutoFeedback). Calling Decide again while a round is open returns the
// same (t, arm) pair without consulting the policy — the decision is
// served idempotently, which is what a retrying network client needs and
// what keeps replay exact for policies whose Select consumes randomness.
func (sr *SingleRun) Decide() (t, arm int, err error) {
	if sr.pending >= 0 {
		return sr.t, sr.pending, nil
	}
	if sr.t >= sr.cfg.Horizon {
		return 0, 0, fmt.Errorf("sim: horizon %d exhausted", sr.cfg.Horizon)
	}
	sr.t++
	t = sr.t
	if sr.cenv != nil {
		sr.rc = sr.cenv.Context(t, sr.rc)
		sr.rmeans = sr.cenv.MeansAt(sr.rc, sr.rmeans)
	}
	arm = sr.pol.Select(t, sr.rc)
	if arm < 0 || arm >= sr.k() {
		sr.t--
		return 0, 0, fmt.Errorf("sim: round %d: policy %s selected invalid arm %d", t, sr.pol.Name(), arm)
	}
	sr.pending = arm
	return t, arm, nil
}

// k returns the number of arms regardless of environment kind.
func (sr *SingleRun) k() int {
	if sr.cenv != nil {
		return sr.cenv.K()
	}
	return sr.env.K()
}

// closedOf returns arm i's closed neighbourhood regardless of environment
// kind.
func (sr *SingleRun) closedOf(i int) []int {
	if sr.cenv != nil {
		return sr.cenv.Closed(i)
	}
	return sr.env.Closed(i)
}

// PendingContext returns the feature context of the open round, or nil
// when the run is non-contextual. The buffer is reused; callers that keep
// it across rounds must copy. It errors when no round is open.
func (sr *SingleRun) PendingContext() (*bandit.RoundContext, error) {
	if sr.pending < 0 {
		return nil, fmt.Errorf("sim: no open round")
	}
	if sr.cenv == nil {
		return nil, nil
	}
	return sr.rc, nil
}

// Pending returns the open round and its chosen arm, if any.
func (sr *SingleRun) Pending() (t, arm int, ok bool) {
	if sr.pending < 0 {
		return 0, 0, false
	}
	return sr.t, sr.pending, true
}

// PendingClosure returns the arms whose rewards the open round reveals —
// the chosen arm's closed neighbourhood, in ascending arm order, the
// order ApplyFeedback expects values in. The slice is shared; callers
// must not modify it.
func (sr *SingleRun) PendingClosure() ([]int, error) {
	if sr.pending < 0 {
		return nil, fmt.Errorf("sim: no open round")
	}
	return sr.closedOf(sr.pending), nil
}

// ApplyFeedback closes the open round with caller-supplied rewards:
// values[j] is the revealed reward of PendingClosure()[j]. Regret is
// accounted against the environment's means exactly as in Step, the
// policy is updated, and checkpoints are recorded. The decision sequence
// is then a pure function of (seed, feedback history): replaying the
// same values re-derives the same subsequent decisions bit-for-bit.
func (sr *SingleRun) ApplyFeedback(values []float64) error {
	if sr.pending < 0 {
		return fmt.Errorf("sim: feedback with no open round")
	}
	closed := sr.closedOf(sr.pending)
	if len(values) != len(closed) {
		return fmt.Errorf("sim: round %d: feedback carries %d values, closure of arm %d has %d",
			sr.t, len(values), sr.pending, len(closed))
	}
	obs := sr.obs[:0]
	for j, arm := range closed {
		obs = append(obs, bandit.Observation{Arm: arm, Value: values[j]})
	}
	sr.obs = obs
	sr.closeRound(obs)
	return nil
}

// AutoFeedback closes the open round by sampling the revealed closed
// neighbourhood from the environment's counter stream — the simulation
// half of Step, split out so a decision service can run shadow-mode
// instances through the exact per-round code path. The returned
// observations are valid until the next call on this run.
func (sr *SingleRun) AutoFeedback() ([]bandit.Observation, error) {
	if sr.pending < 0 {
		return nil, fmt.Errorf("sim: feedback with no open round")
	}
	closed := sr.closedOf(sr.pending)
	var obs []bandit.Observation
	if sr.cenv != nil {
		obs = sr.cenv.SampleObservationsAt(sr.ctr, sr.t, closed, sr.rmeans, nil, sr.obs[:0])
	} else {
		obs = sr.env.SampleObservations(sr.ctr, sr.t, closed, nil, sr.obs[:0], sr.scratch)
	}
	sr.obs = obs
	sr.closeRound(obs)
	return obs, nil
}

// closeRound is the shared accounting tail of a round: regret, observer,
// policy update, checkpoint. obs must list the revealed closure in
// ascending arm order (the order SampleObservations and ApplyFeedback
// both produce).
func (sr *SingleRun) closeRound(obs []bandit.Observation) {
	t, i := sr.t, sr.pending
	var chosenMean, realized float64
	switch {
	case sr.cenv != nil && sr.scen == bandit.SSR:
		// Per-round accounting: both the played arm's expected side reward
		// and the benchmark (the best side sum under this round's means)
		// move with the context.
		var optimal float64
		for a := 0; a < sr.cenv.K(); a++ {
			var u float64
			for _, j := range sr.cenv.Closed(a) {
				u += sr.rmeans[j]
			}
			if a == i {
				chosenMean = u
			}
			if u > optimal {
				optimal = u
			}
		}
		realized = bandit.SumObservations(obs)
		sr.tracker.RecordVs(optimal, chosenMean, realized)
	case sr.cenv != nil:
		chosenMean = sr.rmeans[i]
		realized = obs[sr.cenv.SelfPos(i)].Value
		optimal := sr.rmeans[0]
		for _, p := range sr.rmeans[1:] {
			if p > optimal {
				optimal = p
			}
		}
		sr.tracker.RecordVs(optimal, chosenMean, realized)
	case sr.scen == bandit.SSR:
		chosenMean = sr.env.SideMean(i)
		realized = bandit.SumObservations(obs)
		sr.tracker.Record(chosenMean, realized)
	default:
		chosenMean = sr.env.Mean(i)
		realized = obs[sr.env.SelfPos(i)].Value
		sr.tracker.Record(chosenMean, realized)
	}
	if sr.cfg.Observer != nil {
		sr.cfg.Observer.ObserveRound(trace.Event{
			T: t, Chosen: i, ChosenMean: chosenMean,
			Realized: realized, Observations: obs,
		})
	}
	sr.pol.Update(t, i, obs)
	sr.pending = -1

	if sr.next < len(sr.out.T) && t == sr.out.T[sr.next] {
		sr.out.record(sr.next, sr.tracker)
		sr.next++
	}
}

// Step plays one round: select, sample the revealed closed neighbourhood,
// account regret, feed the policy back. It is exactly Decide followed by
// AutoFeedback.
func (sr *SingleRun) Step() error {
	if _, _, err := sr.Decide(); err != nil {
		return err
	}
	_, err := sr.AutoFeedback()
	return err
}

// Run plays the remaining rounds and returns the completed series.
func (sr *SingleRun) Run() (*Series, error) {
	for !sr.Done() {
		if err := sr.Step(); err != nil {
			return nil, err
		}
	}
	return sr.out, nil
}

// RunSingle plays one replication of a single-play scenario (SSO or SSR).
// The policy is Reset first; r drives the environment's counter stream
// (any policy randomness is wired in by the caller).
func RunSingle(env *bandit.Env, scen bandit.Scenario, pol bandit.SinglePolicy, cfg Config, r *rng.RNG) (*Series, error) {
	sr, err := NewSingleRun(env, scen, pol, cfg, r)
	if err != nil {
		return nil, err
	}
	return sr.Run()
}

// RunContextualSingle plays one replication of a single-play scenario over
// a contextual environment. See NewContextualSingleRun.
func RunContextualSingle(cenv *bandit.ContextualEnv, scen bandit.Scenario, pol bandit.SinglePolicy, cfg Config, r *rng.RNG) (*Series, error) {
	sr, err := NewContextualSingleRun(cenv, scen, pol, cfg, r)
	if err != nil {
		return nil, err
	}
	return sr.Run()
}

// ComboCache holds everything about a (environment, strategy set) pair
// that every replication of an experiment cell recomputed before this
// cache existed: the arm means, both scenario optima, and — behind a
// lazily built, concurrency-safe cache — the strategy relation graph
// SG(F, L). Build it once per cell and pass it to RunComboCached; it is
// safe to share across replication workers.
//
// A contextual cache holds per-round optima instead of fixed ones: a
// table per objective of the best strategy's expected reward in rounds
// 1..n, 8 B per round of the longest horizon run against the cache. A
// table grows under a mutex when a run needs more rounds than it holds,
// by a fresh copy, so a table already handed to a run is never written.
type ComboCache struct {
	env        *bandit.Env
	cenv       *bandit.ContextualEnv // contextual cells: means/optima are per-round
	set        *strategy.Set
	means      []float64
	optDirect  float64
	optClosure float64
	sg         *bandit.StrategyGraphCache

	mu       sync.Mutex
	roundOpt [2][]float64 // contextual cells: [objective][t-1] = round t's optimum
}

// NewComboCache precomputes the per-cell quantities for env and set. The
// strategy graph itself is deferred until a policy first asks for it.
func NewComboCache(env *bandit.Env, set *strategy.Set) *ComboCache {
	means := env.Means()
	return &ComboCache{
		env:        env,
		set:        set,
		means:      means,
		optDirect:  strategyOptimum(set, bandit.CSO, means),
		optClosure: strategyOptimum(set, bandit.CSR, means),
		sg:         bandit.NewStrategyGraphCache(func() *graphs.Graph { return core.BuildStrategyGraph(set) }),
	}
}

// NewContextualComboCache is NewComboCache for a contextual cell: means
// and scenario optima move with the round, so the cache shares the
// strategy relation graph and a lazily filled table of per-round optima.
func NewContextualComboCache(cenv *bandit.ContextualEnv, set *strategy.Set) *ComboCache {
	return &ComboCache{
		cenv: cenv,
		set:  set,
		sg:   bandit.NewStrategyGraphCache(func() *graphs.Graph { return core.BuildStrategyGraph(set) }),
	}
}

// strategyOptimum is the regret benchmark under means: the best feasible
// strategy's expected reward by the scenario's objective (closure sum for
// CSR, direct sum otherwise).
func strategyOptimum(set *strategy.Set, scen bandit.Scenario, means []float64) float64 {
	if scen == bandit.CSR {
		_, opt := set.BestClosure(means)
		return opt
	}
	_, opt := set.BestDirect(means)
	return opt
}

// roundOptima returns a contextual cache's per-round optima for scen,
// holding at least n rounds: entry t-1 is strategyOptimum under round t's
// means. The caller must not modify the slice.
func (cc *ComboCache) roundOptima(scen bandit.Scenario, n int) []float64 {
	obj := 0
	if scen == bandit.CSR {
		obj = 1
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	held := cc.roundOpt[obj]
	if len(held) >= n {
		return held
	}
	table := make([]float64, n)
	copy(table, held)
	var rc *bandit.RoundContext
	var means []float64
	for t := len(held) + 1; t <= n; t++ {
		rc = cc.cenv.Context(t, rc)
		means = cc.cenv.MeansAt(rc, means)
		table[t-1] = strategyOptimum(cc.set, scen, means)
	}
	cc.roundOpt[obj] = table
	return table
}

// StrategyGraph returns the shared SG(F, L), building it on first use.
func (cc *ComboCache) StrategyGraph() *graphs.Graph { return cc.sg.Get() }

// ComboRun is an in-progress combinatorial replication, the strategy-set
// analogue of SingleRun: each round samples only the played closure Y_x
// from the counter stream.
type ComboRun struct {
	env     *bandit.Env
	set     *strategy.Set
	scen    bandit.Scenario
	pol     bandit.ComboPolicy
	cfg     Config
	ctr     rng.Counter
	scratch *rng.RNG
	tracker *bandit.RegretTracker
	out     *Series
	means   []float64
	xs      []float64
	obs     []bandit.Observation
	next    int
	t       int
	pending int // strategy of the open round, -1 when none (see Decide)

	// Contextual mode (cenv non-nil): see SingleRun. means then aliases
	// rmeans and is refilled every Decide. opt, set when the run shares a
	// ComboCache, holds the per-round regret optima (opt[t-1] for round
	// t); without it each round scores the whole strategy set itself.
	cenv   *bandit.ContextualEnv
	rc     *bandit.RoundContext
	rmeans []float64
	opt    []float64
}

// NewComboRun validates, resets the policy, and returns a stepper
// positioned before round 1. cache may be nil (each replication then pays
// its own precomputation, and SG-building policies construct their own
// graph); passing the cell's ComboCache shares all of it.
func NewComboRun(env *bandit.Env, set *strategy.Set, scen bandit.Scenario, pol bandit.ComboPolicy, cfg Config, r *rng.RNG, cache *ComboCache) (*ComboRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !scen.Combinatorial() {
		return nil, fmt.Errorf("sim: RunCombo called with single-play scenario %v", scen)
	}
	if set.K() != env.K() {
		return nil, fmt.Errorf("sim: strategy set over %d arms, environment has %d", set.K(), env.K())
	}
	if cache != nil && (cache.env != env || cache.set != set) {
		return nil, fmt.Errorf("sim: ComboCache built for a different environment or strategy set")
	}
	horizon := 0
	if cfg.AnnounceHorizon {
		horizon = cfg.Horizon
	}
	meta := bandit.ComboMeta{
		K:          env.K(),
		Horizon:    horizon,
		Graph:      env.Graph(),
		Strategies: set,
		Scenario:   scen,
	}
	var means []float64
	var optimal float64
	if cache != nil {
		meta.SharedSG = cache.sg
		means = cache.means
		if scen == bandit.CSR {
			optimal = cache.optClosure
		} else {
			optimal = cache.optDirect
		}
	} else {
		means = env.Means()
		optimal = strategyOptimum(set, scen, means)
	}
	pol.Reset(meta)
	return &ComboRun{
		env:  env,
		set:  set,
		scen: scen,
		pol:  pol,
		cfg:  cfg,
		ctr:  r.Counter(),
		// See NewSingleRun: reseeded before every use, never shared with r.
		scratch: new(rng.RNG),
		tracker: bandit.NewRegretTracker(optimal),
		out:     newSeries(pol.Name(), cfg.checkpoints()),
		means:   means,
		xs:      make([]float64, env.K()),
		obs:     make([]bandit.Observation, 0, env.K()),
		pending: -1,
	}, nil
}

// NewContextualComboRun is NewComboRun over a contextual environment: each
// Decide derives the round's feature context and expected-reward vector,
// hands the context to the policy, and accounts regret against the
// per-round best strategy. cache may be nil or a NewContextualComboCache
// for the same (cenv, set) pair; with a cache the per-round optima come
// from its table, extended to cfg.Horizon rounds here if it is shorter.
func NewContextualComboRun(cenv *bandit.ContextualEnv, set *strategy.Set, scen bandit.Scenario, pol bandit.ComboPolicy, cfg Config, r *rng.RNG, cache *ComboCache) (*ComboRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !scen.Combinatorial() {
		return nil, fmt.Errorf("sim: contextual combo run called with single-play scenario %v", scen)
	}
	if set.K() != cenv.K() {
		return nil, fmt.Errorf("sim: strategy set over %d arms, environment has %d", set.K(), cenv.K())
	}
	if cache != nil && (cache.cenv != cenv || cache.set != set) {
		return nil, fmt.Errorf("sim: ComboCache built for a different environment or strategy set")
	}
	horizon := 0
	if cfg.AnnounceHorizon {
		horizon = cfg.Horizon
	}
	meta := bandit.ComboMeta{
		K:          cenv.K(),
		Horizon:    horizon,
		Graph:      cenv.Graph(),
		Strategies: set,
		Scenario:   scen,
		Dim:        cenv.D(),
	}
	var opt []float64
	if cache != nil {
		meta.SharedSG = cache.sg
		opt = cache.roundOptima(scen, cfg.Horizon)
	}
	pol.Reset(meta)
	rmeans := make([]float64, cenv.K())
	return &ComboRun{
		cenv:    cenv,
		set:     set,
		scen:    scen,
		pol:     pol,
		cfg:     cfg,
		ctr:     r.Counter(),
		scratch: new(rng.RNG),
		tracker: bandit.NewRegretTracker(0), // driven via RecordVs
		out:     newSeries(pol.Name(), cfg.checkpoints()),
		means:   rmeans, // closeRound reads the round's means through cr.means
		rmeans:  rmeans,
		opt:     opt,
		xs:      make([]float64, cenv.K()),
		obs:     make([]bandit.Observation, 0, cenv.K()),
		pending: -1,
	}, nil
}

// Done reports whether the run has played all cfg.Horizon rounds.
func (cr *ComboRun) Done() bool { return cr.t >= cr.cfg.Horizon }

// Round returns the number of rounds fully played (decided and fed back).
func (cr *ComboRun) Round() int {
	if cr.pending >= 0 {
		return cr.t - 1
	}
	return cr.t
}

// Series returns the regret curves recorded so far.
func (cr *ComboRun) Series() *Series { return cr.out }

// Regret returns the cumulative pseudo- and realized regret accumulated
// over the rounds played so far.
func (cr *ComboRun) Regret() (cumPseudo, cumRealized float64) {
	return cr.tracker.CumPseudo(), cr.tracker.CumRealized()
}

// Decide opens round t = Round()+1 and returns the policy's chosen
// strategy without closing the round — the combinatorial analogue of
// SingleRun.Decide, with the same idempotence: while a round is open,
// Decide returns the same pair without consulting the policy.
func (cr *ComboRun) Decide() (t, x int, err error) {
	if cr.pending >= 0 {
		return cr.t, cr.pending, nil
	}
	if cr.t >= cr.cfg.Horizon {
		return 0, 0, fmt.Errorf("sim: horizon %d exhausted", cr.cfg.Horizon)
	}
	cr.t++
	t = cr.t
	if cr.cenv != nil {
		cr.rc = cr.cenv.Context(t, cr.rc)
		cr.rmeans = cr.cenv.MeansAt(cr.rc, cr.rmeans)
		cr.means = cr.rmeans
	}
	x = cr.pol.Select(t, cr.rc)
	if x < 0 || x >= cr.set.Len() {
		cr.t--
		return 0, 0, fmt.Errorf("sim: round %d: policy %s selected invalid strategy %d", t, cr.pol.Name(), x)
	}
	cr.pending = x
	return t, x, nil
}

// PendingContext returns the feature context of the open round, or nil
// when the run is non-contextual; the buffer is reused between rounds. It
// errors when no round is open.
func (cr *ComboRun) PendingContext() (*bandit.RoundContext, error) {
	if cr.pending < 0 {
		return nil, fmt.Errorf("sim: no open round")
	}
	if cr.cenv == nil {
		return nil, nil
	}
	return cr.rc, nil
}

// Pending returns the open round and its chosen strategy, if any.
func (cr *ComboRun) Pending() (t, x int, ok bool) {
	if cr.pending < 0 {
		return 0, 0, false
	}
	return cr.t, cr.pending, true
}

// PendingClosure returns the arms whose rewards the open round reveals —
// the chosen strategy's closure Y_x, in ascending arm order, the order
// ApplyFeedback expects values in. The slice is shared; callers must not
// modify it.
func (cr *ComboRun) PendingClosure() ([]int, error) {
	if cr.pending < 0 {
		return nil, fmt.Errorf("sim: no open round")
	}
	return cr.set.Closure(cr.pending), nil
}

// ApplyFeedback closes the open round with caller-supplied rewards:
// values[j] is the revealed reward of PendingClosure()[j]. See
// SingleRun.ApplyFeedback for the determinism contract.
func (cr *ComboRun) ApplyFeedback(values []float64) error {
	if cr.pending < 0 {
		return fmt.Errorf("sim: feedback with no open round")
	}
	closure := cr.set.Closure(cr.pending)
	if len(values) != len(closure) {
		return fmt.Errorf("sim: round %d: feedback carries %d values, closure of strategy %d has %d",
			cr.t, len(values), cr.pending, len(closure))
	}
	obs := cr.obs[:0]
	for j, arm := range closure {
		obs = append(obs, bandit.Observation{Arm: arm, Value: values[j]})
		if cr.scen == bandit.CSO {
			cr.xs[arm] = values[j]
		}
	}
	cr.obs = obs
	cr.closeRound(obs)
	return nil
}

// AutoFeedback closes the open round by sampling the played closure from
// the environment's counter stream — the simulation half of Step. The
// returned observations are valid until the next call on this run.
func (cr *ComboRun) AutoFeedback() ([]bandit.Observation, error) {
	if cr.pending < 0 {
		return nil, fmt.Errorf("sim: feedback with no open round")
	}
	closure := cr.set.Closure(cr.pending)
	xs := cr.xs
	if cr.scen != bandit.CSO {
		xs = nil // only the direct-reward sum needs values by arm index
	}
	var obs []bandit.Observation
	if cr.cenv != nil {
		obs = cr.cenv.SampleObservationsAt(cr.ctr, cr.t, closure, cr.rmeans, xs, cr.obs[:0])
	} else {
		obs = cr.env.SampleObservations(cr.ctr, cr.t, closure, xs, cr.obs[:0], cr.scratch)
	}
	cr.obs = obs
	cr.closeRound(obs)
	return obs, nil
}

// closeRound is the shared accounting tail of a round (regret, observer,
// policy update, checkpoint); obs must list the closure in ascending arm
// order, and for CSO cr.xs must hold each closure arm's value.
func (cr *ComboRun) closeRound(obs []bandit.Observation) {
	t, x := cr.t, cr.pending
	var chosenMean, realized float64
	if cr.scen == bandit.CSR {
		chosenMean = cr.set.ClosureMean(x, cr.means)
		realized = bandit.SumObservations(obs)
	} else {
		chosenMean = cr.set.DirectMean(x, cr.means)
		realized = bandit.SumValues(cr.xs, cr.set.Arms(x))
	}
	if cr.cenv != nil {
		// The benchmark strategy moves with the context.
		var optimal float64
		if cr.opt != nil {
			optimal = cr.opt[t-1]
		} else {
			optimal = strategyOptimum(cr.set, cr.scen, cr.rmeans)
		}
		cr.tracker.RecordVs(optimal, chosenMean, realized)
	} else {
		cr.tracker.Record(chosenMean, realized)
	}
	if cr.cfg.Observer != nil {
		cr.cfg.Observer.ObserveRound(trace.Event{
			T: t, Chosen: x, ChosenMean: chosenMean,
			Realized: realized, Observations: obs,
		})
	}
	cr.pol.Update(t, x, obs)
	cr.pending = -1

	if cr.next < len(cr.out.T) && t == cr.out.T[cr.next] {
		cr.out.record(cr.next, cr.tracker)
		cr.next++
	}
}

// Step plays one round: exactly Decide followed by AutoFeedback.
func (cr *ComboRun) Step() error {
	if _, _, err := cr.Decide(); err != nil {
		return err
	}
	_, err := cr.AutoFeedback()
	return err
}

// Run plays the remaining rounds and returns the completed series.
func (cr *ComboRun) Run() (*Series, error) {
	for !cr.Done() {
		if err := cr.Step(); err != nil {
			return nil, err
		}
	}
	return cr.out, nil
}

// RunCombo plays one replication of a combinatorial scenario (CSO or CSR)
// over the given feasible strategy set, with no cross-replication sharing.
func RunCombo(env *bandit.Env, set *strategy.Set, scen bandit.Scenario, pol bandit.ComboPolicy, cfg Config, r *rng.RNG) (*Series, error) {
	return RunComboCached(env, set, scen, pol, cfg, r, nil)
}

// RunComboCached is RunCombo against a shared per-cell precompute cache:
// means, scenario optima, and the strategy relation graph come from cache
// instead of being rebuilt, so per-replication setup is O(1). The curves
// are identical either way (the cache only moves work, never changes it);
// a nil cache degrades to RunCombo.
func RunComboCached(env *bandit.Env, set *strategy.Set, scen bandit.Scenario, pol bandit.ComboPolicy, cfg Config, r *rng.RNG, cache *ComboCache) (*Series, error) {
	cr, err := NewComboRun(env, set, scen, pol, cfg, r, cache)
	if err != nil {
		return nil, err
	}
	return cr.Run()
}

// RunContextualCombo plays one replication of a combinatorial scenario
// over a contextual environment. See NewContextualComboRun; cache may be
// nil or the cell's NewContextualComboCache.
func RunContextualCombo(cenv *bandit.ContextualEnv, set *strategy.Set, scen bandit.Scenario, pol bandit.ComboPolicy, cfg Config, r *rng.RNG, cache *ComboCache) (*Series, error) {
	cr, err := NewContextualComboRun(cenv, set, scen, pol, cfg, r, cache)
	if err != nil {
		return nil, err
	}
	return cr.Run()
}

func newSeries(name string, checkpoints []int) *Series {
	n := len(checkpoints)
	return &Series{
		Policy:      name,
		T:           checkpoints,
		CumPseudo:   make([]float64, n),
		CumRealized: make([]float64, n),
		AvgPseudo:   make([]float64, n),
		AvgRealized: make([]float64, n),
	}
}

func (s *Series) record(i int, tr *bandit.RegretTracker) {
	s.CumPseudo[i] = tr.CumPseudo()
	s.CumRealized[i] = tr.CumRealized()
	s.AvgPseudo[i] = tr.AvgPseudo()
	s.AvgRealized[i] = tr.AvgRealized()
}
