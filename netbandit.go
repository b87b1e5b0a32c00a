package netbandit

import (
	"context"
	"encoding/json"
	"io"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/graphs"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/serve"
	"netbandit/internal/shard"
	"netbandit/internal/shard/transport"
	"netbandit/internal/sim"
	"netbandit/internal/strategy"
)

// Core model types, re-exported from the internal implementation.
type (
	// RNG is the deterministic, splittable generator all randomness
	// flows through.
	RNG = rng.RNG
	// Counter is a counter-based random stream: X_{arm,t} is a pure
	// function of (stream, arm, t), independent of sampling order.
	Counter = rng.Counter
	// Graph is an undirected relation graph over arms.
	Graph = graphs.Graph
	// Env is an immutable networked bandit environment.
	Env = bandit.Env
	// Scenario selects one of the paper's four settings.
	Scenario = bandit.Scenario
	// Observation is one revealed arm reward.
	Observation = bandit.Observation
	// Meta describes a single-play game to a policy.
	Meta = bandit.Meta
	// ComboMeta describes a combinatorial game to a policy.
	ComboMeta = bandit.ComboMeta
	// SinglePolicy is a single-play decision rule.
	SinglePolicy = bandit.SinglePolicy
	// ComboPolicy is a combinatorial decision rule.
	ComboPolicy = bandit.ComboPolicy
	// Distribution is a reward law with support in [0, 1].
	Distribution = armdist.Distribution
	// RoundContext carries one round's per-arm feature vectors; it is nil
	// in Select for non-contextual runs.
	RoundContext = bandit.RoundContext
	// ContextualEnv is the linear-reward environment: expected rewards are
	// θ·x_i(t) over per-round features from a counter stream.
	ContextualEnv = bandit.ContextualEnv
	// ComboObjective selects which reward sum a combinatorial baseline
	// maximises: the played arms' own rewards or the whole closure's.
	ComboObjective = policy.ComboObjective
	// StrategySet is an enumerable family of feasible strategies.
	StrategySet = strategy.Set
	// Oracle solves the per-round combinatorial maximisation of DFL-CSR.
	Oracle = strategy.Oracle
)

// Simulation harness types.
type (
	// Config controls one simulation run.
	Config = sim.Config
	// Series is one replication's regret curves.
	Series = sim.Series
	// Aggregate summarises curves across replications.
	Aggregate = sim.Aggregate
	// Metric selects one of the four regret curves.
	Metric = sim.Metric
	// ReplicateOptions controls parallel replication.
	ReplicateOptions = sim.ReplicateOptions
	// SingleFactory builds a fresh single-play policy per replication.
	SingleFactory = sim.SingleFactory
	// ComboFactory builds a fresh combinatorial policy per replication.
	ComboFactory = sim.ComboFactory
	// SingleRun steps one single-play replication round by round.
	SingleRun = sim.SingleRun
	// ComboRun steps one combinatorial replication round by round.
	ComboRun = sim.ComboRun
	// ComboCache shares per-cell precomputation (means, optima, strategy
	// relation graph) across replications. A contextual cache also holds
	// the per-round optima, 8 B per round of the longest horizon run
	// against it.
	ComboCache = sim.ComboCache
	// StrategyGraphCache lazily builds one shared SG(F, L) per cell.
	StrategyGraphCache = bandit.StrategyGraphCache
	// Params tunes a registered experiment.
	Params = sim.Params
	// Experiment is a registered, reproducible experiment.
	Experiment = sim.Experiment
	// Table is the data behind one reproduced figure.
	Table = sim.Table
	// Curve is one aggregated series of a reproduced figure.
	Curve = sim.Curve
)

// Grid-sweep engine types: a Sweep describes the Cartesian product of
// environment, policy, and configuration axes, executed on one shared
// bounded worker pool with streaming aggregation, deterministic seeding,
// and fail-fast cancellation.
type (
	// Sweep describes a grid of experiment cells.
	Sweep = sim.Sweep
	// EnvSpec is one environment axis point of a sweep.
	EnvSpec = sim.EnvSpec
	// PolicySpec is one policy axis point of a sweep.
	PolicySpec = sim.PolicySpec
	// ConfigSpec is one run-configuration axis point of a sweep.
	ConfigSpec = sim.ConfigSpec
	// SweepResult is the outcome of a completed sweep.
	SweepResult = sim.SweepResult
	// CellResult is one cell's aggregate plus its grid coordinates.
	CellResult = sim.CellResult
	// SweepProgress reports one folded replication of a running sweep.
	SweepProgress = sim.Progress
	// ProgressFunc receives per-replication progress events.
	ProgressFunc = sim.ProgressFunc
	// CellRunStats reports what a RunCells invocation did and the memory
	// bounds it observed.
	CellRunStats = sim.CellRunStats
	// AggregateState is the exact serialisable state of an Aggregate; it
	// round-trips through JSON bit-identically.
	AggregateState = sim.AggregateState
)

// Real-time decision service (package serve): many concurrent bandit
// instances — one per tenant, graph, and policy, each created from a
// declarative spec — behind an HTTP JSON API, every closed round
// appended to a checksummed decision log so that a restarted server
// resumes bit-identically and any served decision can be re-derived
// offline (`nbandit serve -replay`).
type (
	// DecisionServer hosts bandit instances behind the /v1 HTTP API; it
	// implements http.Handler and also serves /metrics and /healthz.
	DecisionServer = serve.Server
	// ServeOptions configures a DecisionServer (data directory, snapshot
	// cadence, ingest queue bounds, observability hooks).
	ServeOptions = serve.Options
	// InstanceSpec declaratively describes one hosted bandit instance.
	InstanceSpec = serve.Spec
	// InstanceStats is the lock-free read view of one hosted instance.
	InstanceStats = serve.InstanceStats
	// Decision is one answer from the service's decide endpoint.
	Decision = serve.Decision
	// FeedbackItem is one entry of a batched feedback request.
	FeedbackItem = serve.FeedbackItem
	// ServeVerifyResult reports one instance's offline replay audit.
	ServeVerifyResult = serve.VerifyResult
)

// NewDecisionServer builds a decision server over opts.Dir, restoring —
// and replay-verifying — every instance directory found there.
func NewDecisionServer(opts ServeOptions) (*DecisionServer, error) { return serve.New(opts) }

// VerifyServeDir audits every instance under a decision server's data
// directory, proving each decision log re-derives bit-identically.
func VerifyServeDir(dir string) ([]*ServeVerifyResult, error) { return serve.VerifyDir(dir) }

// VerifyServeInstance replays one instance directory offline.
func VerifyServeInstance(dir string) (*ServeVerifyResult, error) { return serve.VerifyInstance(dir) }

// PolicyNames lists the registry names accepted by InstanceSpec.Policy
// and the CLI's -policy/-policies flags.
func PolicyNames() []string { return sim.PolicyNames() }

// NewPolicySpec is the registry-backed policy constructor every layer
// shares: it resolves a name against the scenario into a complete sweep
// policy axis point — single-play or combinatorial factory as the
// scenario demands, plus the contextual-requirement flag the sweep grid
// validates. It subsumes SinglePolicyFactory and ComboPolicyFactory,
// which remain as thin views of the same registry.
func NewPolicySpec(name string, scen Scenario) (PolicySpec, error) {
	return sim.NewPolicySpec(name, scen)
}

// ContextualPolicy reports whether the named registry policy needs
// per-round feature contexts (a contextual environment axis, or a
// linear-reward instance spec).
func ContextualPolicy(name string) bool { return sim.ContextualPolicy(name) }

// SinglePolicyFactory resolves a registry name to a single-play policy
// factory for the given scenario. Prefer NewPolicySpec, which also
// carries the contextual-requirement flag.
func SinglePolicyFactory(name string, scen Scenario) (SingleFactory, error) {
	return sim.SinglePolicyFactory(name, scen)
}

// ComboPolicyFactory resolves a registry name to a combinatorial policy
// factory for the given scenario. Prefer NewPolicySpec, which also
// carries the contextual-requirement flag.
func ComboPolicyFactory(name string, scen Scenario) (ComboFactory, error) {
	return sim.ComboPolicyFactory(name, scen)
}

// AggregateSeries folds one replication's series into a fresh
// one-replication Aggregate whose State round-trips bit-identically.
func AggregateSeries(s *Series) (*Aggregate, error) { return sim.AggregateSeries(s) }

// Sharded sweep execution (package shard): a Sweep becomes a
// distributable, resumable job over a shared — or, with record
// push-sync, entirely unshared — directory: a hashed plan manifest
// partitioning cells into shards, per-cell aggregates spilled as
// checksummed records the moment each cell finishes, resume by scanning
// completed records, and a merge that is bit-identical to a
// single-process Sweep.Run. A work-stealing coordinator leases cell
// batches to workers spawned over a pluggable transport (local processes
// or ssh), re-leasing cells whose heartbeat lapses, sizing each slot's
// leases from its worker's reported per-cell cost, and — in mountless
// mode — ingesting every record as a verified frame on the worker's
// heartbeat stream instead of requiring a synced filesystem. Slots whose
// workers keep failing are exponentially backed off, quarantined, probed
// for re-admission, and eventually declared dead; when every slot is dead
// or quarantined the coordinator finishes the remaining cells in-process
// (Fallback) or aborts explicitly — never hangs.
type (
	// ShardPlan is the versioned, content-hashed shard manifest.
	ShardPlan = shard.Plan
	// ShardCellMeta identifies one grid cell of a plan.
	ShardCellMeta = shard.CellMeta
	// ShardRunOptions configures one shard-runner invocation.
	ShardRunOptions = shard.RunOptions
	// ShardRunStats reports what one shard run did (resumed vs run cells,
	// peak live aggregates).
	ShardRunStats = shard.RunStats
	// ShardStatusReport is a point-in-time scan of a shard directory.
	ShardStatusReport = shard.Status
	// ShardCoordinator is the work-stealing coordinator: it leases cell
	// batches to workers spawned through a ShardTransport, steals back the
	// cells of stragglers whose heartbeat lapses, shrinks batch sizes as
	// the queue drains (cost-seeded per slot), and with PushRecords
	// ingests records over the worker streams so no directory is shared.
	ShardCoordinator = shard.StealCoordinator
	// ShardCoordinatorStats reports what one coordinator run did (cells
	// completed, leases granted, steals, records pushed/rejected).
	ShardCoordinatorStats = shard.StealStats
	// ShardLeaseState is the coordinator's persisted lease snapshot
	// (dir/leases.json), shown by `nbandit shard status`.
	ShardLeaseState = shard.LeaseState
	// ShardLeaseInfo is one active lease inside a ShardLeaseState.
	ShardLeaseInfo = shard.LeaseInfo
	// ShardTransport spawns, monitors, and cancels shard workers for the
	// coordinator.
	ShardTransport = transport.Transport
	// ShardWorker is a transport's handle to one spawned worker.
	ShardWorker = transport.Worker
	// ShardWorkerSpec describes one lease to a transport.
	ShardWorkerSpec = transport.Spec
	// ShardLocalTransport runs workers as child processes on this machine,
	// optionally in private plan-seeded job dirs (WorkerDir).
	ShardLocalTransport = transport.Local
	// ShardSSHTransport runs workers on remote hosts over ssh, against a
	// synced job directory or (with push-sync) a plan-seeded scratch dir.
	ShardSSHTransport = transport.SSH
	// ShardChaosTransport decorates any ShardTransport with seeded,
	// replayable fault injection — refused spawns, mid-lease crashes,
	// heartbeat partitions and stalls, corrupted and truncated record
	// frames — for chaos drills (`nbandit chaos`); every fault schedule is
	// a pure function of (Seed, slot, spawn count).
	ShardChaosTransport = transport.Chaos
	// ShardInProcTransport runs workers as goroutines in the coordinator's
	// own process over the real wire protocol, for drills and tests that
	// cannot (or should not) spawn processes.
	ShardInProcTransport = transport.InProc
	// ShardSlotHealthInfo is one slot's resilience standing (backoff,
	// quarantine, probe, dead) inside a ShardLeaseState.
	ShardSlotHealthInfo = shard.SlotHealthInfo
)

// NewShardPlan enumerates the sweep's cells and partitions them
// round-robin into shards; grid is an opaque description callers may use
// to rebuild the sweep on the worker side.
func NewShardPlan(sw *Sweep, grid json.RawMessage, shards int) (*ShardPlan, error) {
	return shard.NewPlan(sw, grid, shards)
}

// WriteShardPlan hashes and writes dir/plan.json atomically.
func WriteShardPlan(dir string, p *ShardPlan) error { return shard.WritePlan(dir, p) }

// ReadShardPlan loads and verifies dir/plan.json.
func ReadShardPlan(dir string) (*ShardPlan, error) { return shard.ReadPlan(dir) }

// RunShard executes one shard of the plan with checkpoint/resume,
// spilling each finished cell's aggregate to disk (peak memory O(1 cell)).
func RunShard(ctx context.Context, dir string, p *ShardPlan, sw *Sweep, opts ShardRunOptions) (ShardRunStats, error) {
	return shard.Run(ctx, dir, p, sw, opts)
}

// MergeShards folds every spilled cell record back into a SweepResult
// bit-identical to a single-process Sweep.Run.
func MergeShards(dir string, p *ShardPlan) (*SweepResult, error) { return shard.Merge(dir, p) }

// ShardStatus scans a shard directory and reports per-shard completion.
func ShardStatus(dir string, p *ShardPlan) (*ShardStatusReport, error) {
	return shard.Scan(dir, p)
}

// ReadShardLeaseState loads a coordinator's persisted lease snapshot from
// dir/leases.json.
func ReadShardLeaseState(dir string) (*ShardLeaseState, error) {
	return shard.ReadLeaseState(dir)
}

// The four scenarios.
const (
	// SSO is single-play with side observation.
	SSO = bandit.SSO
	// CSO is combinatorial-play with side observation.
	CSO = bandit.CSO
	// SSR is single-play with side reward.
	SSR = bandit.SSR
	// CSR is combinatorial-play with side reward.
	CSR = bandit.CSR
)

// The two combinatorial objectives.
const (
	// ObjectiveDirect maximises the played arms' own reward sum (the CSO
	// target).
	ObjectiveDirect = policy.Direct
	// ObjectiveClosure maximises the whole closure's reward sum (the CSR
	// target).
	ObjectiveClosure = policy.Closure
)

// The instance reward models accepted by InstanceSpec.RewardModel.
const (
	// RewardBernoulli is the classical fixed-mean game (the default).
	RewardBernoulli = serve.RewardBernoulli
	// RewardLinear is the contextual game: per-round features, linear
	// expected rewards, context hashes on every decision.
	RewardLinear = serve.RewardLinear
)

// The four per-replication regret metrics.
const (
	// CumPseudo is cumulative pseudo-regret.
	CumPseudo = sim.CumPseudo
	// CumRealized is cumulative realized regret.
	CumRealized = sim.CumRealized
	// AvgPseudo is pseudo-regret per round (the paper's "expected regret").
	AvgPseudo = sim.AvgPseudo
	// AvgRealized is realized regret per round.
	AvgRealized = sim.AvgRealized
)

// NewRNG returns a deterministic generator seeded from seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewCounter returns the counter-based random stream rooted at seed; see
// Env.SampleObserved for how the simulation uses it.
func NewCounter(seed uint64) Counter { return rng.NewCounter(seed) }

// NewGraph returns an edgeless relation graph on n arms; add edges with
// AddEdge.
func NewGraph(n int) *Graph { return graphs.New(n) }

// GnpGraph returns an Erdős–Rényi G(n, p) relation graph — the paper's
// simulation topology.
func GnpGraph(n int, p float64, r *RNG) *Graph { return graphs.Gnp(n, p, r) }

// GnpSparseGraph returns a G(n, p) relation graph drawn by skip sampling in
// expected O(n + edges) time, stored sparse when the density-based policy
// says the O(n²)-bit matrix is not worth it — the generator for K = 10⁴–10⁵
// instances. Gnp and GnpSparseGraph consume r differently, so the same seed
// yields different (equally distributed) graphs.
func GnpSparseGraph(n int, p float64, r *RNG) *Graph { return graphs.GnpSparse(n, p, r) }

// NewSparseGraph returns an edgeless relation graph that stays in the
// adjacency-list representation regardless of size — for callers that know
// the graph will be too large or too sparse for the bit matrix.
func NewSparseGraph(n int) *Graph { return graphs.NewSparse(n) }

// StarGraph returns a hub-and-leaves relation graph.
func StarGraph(n int) *Graph { return graphs.Star(n) }

// CompleteGraph returns the complete relation graph (full side
// observability).
func CompleteGraph(n int) *Graph { return graphs.Complete(n) }

// NewBernoulliEnv builds an environment with Bernoulli(means[i]) arms over
// the given relation graph (nil graph = classical MAB).
func NewBernoulliEnv(g *Graph, means []float64) (*Env, error) {
	dists, err := armdist.BernoulliArms(means)
	if err != nil {
		return nil, err
	}
	return bandit.NewEnv(g, dists)
}

// NewRandomBernoulliEnv builds the paper's Section VII environment: k
// Bernoulli arms with means drawn uniformly from [0, 1].
func NewRandomBernoulliEnv(g *Graph, k int, r *RNG) (*Env, error) {
	return bandit.NewEnv(g, armdist.RandomBernoulliArms(k, r))
}

// NewEnv builds an environment from explicit reward distributions.
func NewEnv(g *Graph, dists []Distribution) (*Env, error) {
	return bandit.NewEnv(g, dists)
}

// NewSparseBernoulliEnv builds a large-K instance in O(k + edges): a sparse
// random relation graph with the given expected degree over k Bernoulli
// arms with uniform means, deterministic in seed.
func NewSparseBernoulliEnv(k int, avgDeg float64, seed uint64) (*Env, error) {
	return bandit.SparseBernoulliEnv(k, avgDeg, seed)
}

// Bernoulli returns a Bernoulli(p) reward distribution.
func Bernoulli(p float64) (Distribution, error) { return armdist.NewBernoulli(p) }

// Beta returns a Beta(a, b) reward distribution.
func Beta(a, b float64) (Distribution, error) { return armdist.NewBeta(a, b) }

// TruncGaussian returns a [0,1]-clamped Gaussian reward distribution.
func TruncGaussian(mu, sigma float64) (Distribution, error) {
	return armdist.NewTruncGaussian(mu, sigma)
}

// TopM enumerates all size-m strategies over k arms as the feasible family.
func TopM(k, m int, g *Graph) (*StrategySet, error) { return strategy.TopM(k, m, g) }

// UpToM enumerates all non-empty strategies with at most m arms.
func UpToM(k, m int, g *Graph) (*StrategySet, error) { return strategy.UpToM(k, m, g) }

// IndependentSets enumerates the independent sets of g with at most
// maxSize arms — the strategy family of the paper's Fig. 2 example.
func IndependentSets(g *Graph, maxSize int) (*StrategySet, error) {
	return strategy.IndependentSets(g, maxSize)
}

// ExplicitStrategies builds a feasible family from caller-supplied arm
// sets.
func ExplicitStrategies(k int, strategies [][]int, g *Graph) (*StrategySet, error) {
	return strategy.NewExplicit(k, strategies, g)
}

// BudgetedStrategies enumerates every arm subset whose total cost stays
// within budget — heterogeneous-cost constraints such as priced ad slots.
func BudgetedStrategies(costs []float64, budget float64, g *Graph) (*StrategySet, error) {
	return strategy.Budgeted(costs, budget, g)
}

// WindowStrategies builds the sliding-window family {x, ..., x+m-1 mod k},
// one strategy per arm — a combinatorial family whose size stays K at any
// K, unlike the enumeration-capped TopM.
func WindowStrategies(k, m int, g *Graph) (*StrategySet, error) {
	return bandit.WindowStrategies(k, m, g)
}

// ExactOracle returns the enumeration oracle assumed by Theorem 4.
func ExactOracle() Oracle { return strategy.ExactOracle{} }

// GreedyOracle returns the (1-1/e) weighted max-coverage oracle selecting
// size arms greedily.
func GreedyOracle(size int) Oracle { return strategy.GreedyOracle{Size: size} }

// BuildStrategyGraph constructs the Section IV strategy relation graph
// SG(F, L) for a feasible family.
func BuildStrategyGraph(set *StrategySet) *Graph { return core.BuildStrategyGraph(set) }

// The paper's algorithms (package core).

// NewDFLSSO returns Algorithm 1: distribution-free learning for
// single-play with side observation.
func NewDFLSSO() SinglePolicy { return core.NewDFLSSO() }

// NewDFLSSOGreedyHop returns the Section IX greedy-hop heuristic over
// DFL-SSO.
func NewDFLSSOGreedyHop() SinglePolicy { return core.NewDFLSSOGreedyHop() }

// NewDFLCSO returns Algorithm 2: distribution-free learning for
// combinatorial-play with side observation.
func NewDFLCSO() ComboPolicy { return core.NewDFLCSO() }

// NewDFLSSR returns Algorithm 3: distribution-free learning for
// single-play with side reward (exact observation-log estimator).
func NewDFLSSR() SinglePolicy { return core.NewDFLSSR() }

// NewDFLSSRStreaming returns the bounded-memory DFL-SSR variant.
func NewDFLSSRStreaming() SinglePolicy { return core.NewDFLSSRStreaming() }

// NewDFLCSR returns Algorithm 4: distribution-free learning for
// combinatorial-play with side reward, with the exact oracle.
func NewDFLCSR() ComboPolicy { return core.NewDFLCSR() }

// NewDFLCSRWithOracle returns Algorithm 4 with a custom combinatorial
// oracle.
func NewDFLCSRWithOracle(o Oracle) ComboPolicy { return core.NewDFLCSRWithOracle(o) }

// Baselines (package policy).

// NewMOSS returns the MOSS baseline the paper's Fig. 3 compares against.
func NewMOSS() SinglePolicy { return policy.NewMOSS() }

// NewUCB1 returns the classical UCB1 baseline.
func NewUCB1() SinglePolicy { return policy.NewUCB1() }

// NewUCBN returns the Δ-dependent side-observation baseline UCB-N.
func NewUCBN() SinglePolicy { return policy.NewUCBN() }

// NewUCBMaxN returns the UCB-MaxN side-observation baseline.
func NewUCBMaxN() SinglePolicy { return policy.NewUCBMaxN() }

// NewThompson returns Beta-Bernoulli Thompson sampling.
func NewThompson(r *RNG) SinglePolicy { return policy.NewThompson(r) }

// NewEpsilonGreedy returns a constant-ε greedy baseline.
func NewEpsilonGreedy(eps float64, r *RNG) SinglePolicy {
	return policy.NewEpsilonGreedy(eps, r)
}

// NewEXP3 returns the adversarial EXP3 baseline.
func NewEXP3(gamma float64, r *RNG) SinglePolicy { return policy.NewEXP3(gamma, r) }

// NewRandomPolicy returns the uniform-random baseline.
func NewRandomPolicy(r *RNG) SinglePolicy { return policy.NewRandom(r) }

// NewCUCBDirect returns the combinatorial UCB baseline targeting direct
// reward (CSO objective).
func NewCUCBDirect() ComboPolicy { return policy.NewCUCB(policy.Direct) }

// NewCUCBClosure returns the combinatorial UCB baseline targeting closure
// reward (CSR objective).
func NewCUCBClosure() ComboPolicy { return policy.NewCUCB(policy.Closure) }

// NewComboRandom returns the uniform-random combinatorial baseline.
func NewComboRandom(r *RNG) ComboPolicy { return policy.NewComboRandom(r) }

// Contextual policies (package policy): decision rules that read the
// per-round feature vectors a ContextualEnv publishes through Select.

// NewLinUCB returns single-play LinUCB: ridge regression over round
// features with confidence-bonus exploration scaled by alpha.
func NewLinUCB(alpha float64) SinglePolicy { return policy.NewLinUCB(alpha) }

// NewCombLinUCB returns combinatorial LinUCB: one shared ridge model
// scores every arm and the feasible strategy maximising the summed upper
// confidence bounds (under obj) is played.
func NewCombLinUCB(alpha float64, obj ComboObjective) ComboPolicy {
	return policy.NewCombLinUCB(alpha, obj)
}

// NewCtxThompson returns linear-Gaussian Thompson sampling over round
// features, posterior scale v, with counter-stream perturbations.
func NewCtxThompson(v float64, r *RNG) SinglePolicy { return policy.NewCtxThompson(v, r) }

// NewCombCtxThompson returns combinatorial linear Thompson sampling: one
// posterior draw per round scores all arms, the best feasible strategy
// under obj is played.
func NewCombCtxThompson(v float64, obj ComboObjective, r *RNG) ComboPolicy {
	return policy.NewCombCtxThompson(v, obj, r)
}

// NewCTS returns combinatorial Thompson sampling with Beta-Bernoulli
// posteriors and order-independent per-(arm, round) draws.
func NewCTS(obj ComboObjective, r *RNG) ComboPolicy { return policy.NewCTS(obj, r) }

// NewOSMD returns the m-set online stochastic mirror descent baseline
// (split-sample decomposition, capped-simplex projection); eta 0 derives
// a horizon-tuned learning rate.
func NewOSMD(eta float64, r *RNG) ComboPolicy { return policy.NewOSMD(eta, r) }

// Simulation entry points (package sim).

// RunSingle plays one replication of a single-play scenario.
func RunSingle(env *Env, scen Scenario, pol SinglePolicy, cfg Config, r *RNG) (*Series, error) {
	return sim.RunSingle(env, scen, pol, cfg, r)
}

// RunCombo plays one replication of a combinatorial scenario.
func RunCombo(env *Env, set *StrategySet, scen Scenario, pol ComboPolicy, cfg Config, r *RNG) (*Series, error) {
	return sim.RunCombo(env, set, scen, pol, cfg, r)
}

// RunComboCached is RunCombo against a shared per-cell precompute cache;
// the curves are identical, the per-replication setup is O(1).
func RunComboCached(env *Env, set *StrategySet, scen Scenario, pol ComboPolicy, cfg Config, r *RNG, cache *ComboCache) (*Series, error) {
	return sim.RunComboCached(env, set, scen, pol, cfg, r, cache)
}

// NewComboCache precomputes everything replications of one experiment cell
// share: arm means, scenario optima, and the lazily built strategy
// relation graph.
func NewComboCache(env *Env, set *StrategySet) *ComboCache {
	return sim.NewComboCache(env, set)
}

// NewSingleRun returns a round-by-round stepper for a single-play
// replication (RunSingle is NewSingleRun followed by Run).
func NewSingleRun(env *Env, scen Scenario, pol SinglePolicy, cfg Config, r *RNG) (*SingleRun, error) {
	return sim.NewSingleRun(env, scen, pol, cfg, r)
}

// NewComboRun returns a round-by-round stepper for a combinatorial
// replication; cache may be nil.
func NewComboRun(env *Env, set *StrategySet, scen Scenario, pol ComboPolicy, cfg Config, r *RNG, cache *ComboCache) (*ComboRun, error) {
	return sim.NewComboRun(env, set, scen, pol, cfg, r, cache)
}

// NewContextualEnv builds a linear-reward environment over the relation
// graph g (nil for no side information): expected rewards are
// theta·x_i(t) with per-round features drawn from the counter stream.
func NewContextualEnv(g *Graph, k int, theta []float64, features Counter) (*ContextualEnv, error) {
	return bandit.NewContextualEnv(g, k, theta, features)
}

// RandomTheta draws a hidden weight vector for NewContextualEnv from r,
// normalised to sum 1.
func RandomTheta(r *RNG, d int) []float64 { return bandit.RandomTheta(r, d) }

// RunContextualSingle plays one replication of a single-play scenario
// against a contextual environment.
func RunContextualSingle(cenv *ContextualEnv, scen Scenario, pol SinglePolicy, cfg Config, r *RNG) (*Series, error) {
	return sim.RunContextualSingle(cenv, scen, pol, cfg, r)
}

// RunContextualCombo plays one replication of a combinatorial scenario
// against a contextual environment; cache may be nil.
func RunContextualCombo(cenv *ContextualEnv, set *StrategySet, scen Scenario, pol ComboPolicy, cfg Config, r *RNG, cache *ComboCache) (*Series, error) {
	return sim.RunContextualCombo(cenv, set, scen, pol, cfg, r, cache)
}

// NewContextualSingleRun returns a round-by-round stepper for a
// contextual single-play replication.
func NewContextualSingleRun(cenv *ContextualEnv, scen Scenario, pol SinglePolicy, cfg Config, r *RNG) (*SingleRun, error) {
	return sim.NewContextualSingleRun(cenv, scen, pol, cfg, r)
}

// NewContextualComboRun returns a round-by-round stepper for a contextual
// combinatorial replication; cache may be nil.
func NewContextualComboRun(cenv *ContextualEnv, set *StrategySet, scen Scenario, pol ComboPolicy, cfg Config, r *RNG, cache *ComboCache) (*ComboRun, error) {
	return sim.NewContextualComboRun(cenv, set, scen, pol, cfg, r, cache)
}

// NewContextualComboCache shares the lazily built strategy relation graph
// and a lazily filled table of per-round regret optima (8 B per round of
// the longest horizon run against it) across replications of one
// contextual combinatorial cell.
func NewContextualComboCache(cenv *ContextualEnv, set *StrategySet) *ComboCache {
	return sim.NewContextualComboCache(cenv, set)
}

// ReplicateSingle runs many single-play replications in parallel and
// aggregates the regret curves.
func ReplicateSingle(env *Env, scen Scenario, f SingleFactory, cfg Config, opts ReplicateOptions) (*Aggregate, error) {
	return sim.ReplicateSingle(env, scen, f, cfg, opts)
}

// ReplicateCombo runs many combinatorial replications in parallel.
func ReplicateCombo(env *Env, set *StrategySet, scen Scenario, f ComboFactory, cfg Config, opts ReplicateOptions) (*Aggregate, error) {
	return sim.ReplicateCombo(env, set, scen, f, cfg, opts)
}

// GraphGenerator names a relation-graph generator for sweep axes ("gnp",
// "ba", "ws", "complete", ...).
type GraphGenerator = graphs.GeneratorName

// GnpBernoulliEnv returns the paper's Section VII environment as a sweep
// axis: a G(k, p) relation graph with uniform-random Bernoulli arms (and,
// for combinatorial scenarios, the all-m-subsets family).
func GnpBernoulliEnv(name string, scen Scenario, k, m int, p float64) EnvSpec {
	return sim.GnpBernoulliEnv(name, scen, k, m, p)
}

// GeneratorEnv returns a sweep axis over any named relation-graph
// generator with uniform-random Bernoulli arms.
func GeneratorEnv(name string, scen Scenario, gen GraphGenerator, k, m int, param float64) EnvSpec {
	return sim.GeneratorEnv(name, scen, gen, k, m, param)
}

// ContextualGnpEnv returns a contextual sweep axis: a G(k, p) relation
// graph with d-dimensional per-round features and linear expected
// rewards (and, for combinatorial scenarios, the all-m-subsets family).
func ContextualGnpEnv(name string, scen Scenario, k, m, d int, p float64) EnvSpec {
	return sim.ContextualGnpEnv(name, scen, k, m, d, p)
}

// FixedEnv wraps a prebuilt environment (plus strategy set for
// combinatorial scenarios) as a sweep axis.
func FixedEnv(name string, scen Scenario, env *Env, set *StrategySet) EnvSpec {
	return sim.FixedEnv(name, scen, env, set)
}

// WriteSweepCSV exports per-cell sweep aggregates in long CSV format.
func WriteSweepCSV(w io.Writer, res *SweepResult) error { return sim.WriteSweepCSV(w, res) }

// WriteSweepJSON exports the full per-cell sweep curves as JSON.
func WriteSweepJSON(w io.Writer, res *SweepResult) error { return sim.WriteSweepJSON(w, res) }

// SweepSummary renders each cell's final metric value as a text table.
func SweepSummary(res *SweepResult, m Metric) string { return sim.SweepSummary(res, m) }

// Experiments lists the registered figure/ablation reproductions.
func Experiments() []Experiment { return sim.Experiments() }

// FindExperiment returns the experiment registered under id (e.g.
// "fig3a").
func FindExperiment(id string) (Experiment, bool) { return sim.FindExperiment(id) }

// RenderASCII draws a reproduced table as an ASCII chart.
func RenderASCII(t *Table) string { return sim.RenderASCII(t) }

// WriteCSV exports a reproduced table as CSV (x column, then mean and
// stderr columns per curve).
func WriteCSV(w io.Writer, t *Table) error { return sim.WriteCSV(w, t) }

// Summary prints each curve's final value.
func Summary(t *Table) string { return sim.Summary(t) }
