// Package sim is the experiment harness: it drives policies against
// environments round by round with the correct per-scenario feedback and
// regret accounting, fans replications out across goroutines, and scales
// the same experiments from one replication to sharded multi-machine
// sweeps without changing a single recorded number.
//
// # Layers
//
// The package is three layers, each built on the one below:
//
//   - Runners (runner.go): RunSingle/RunCombo play one replication of one
//     scenario; SingleRun/ComboRun expose the same loop as a
//     round-by-round stepper. Rewards are drawn lazily — only the revealed
//     closed neighbourhood or closure is sampled, via the counter-based
//     streams of package rng — so a round costs O(observed), not O(K).
//   - Replication (replicate.go): ReplicateSingle/ReplicateCombo run many
//     replications of one cell on a bounded worker pool and fold the
//     regret curves into an Aggregate. ComboCache shares per-cell
//     precomputation (arm means, scenario optima or, in contextual cells,
//     a table of per-round optima, and the strategy relation graph)
//     across replications.
//   - Sweeps (sweep.go): a Sweep is the Cartesian product of environment,
//     policy, and configuration axes. Run executes the whole grid on one
//     shared pool with streaming aggregation (peak retained series is
//     O(workers), enforced by a bounded reorder window) and fail-fast
//     cancellation. RunCells executes any subset of the grid by global
//     cell index, streaming each finished cell's aggregate to a callback
//     — the execution primitive the shard subsystem distributes.
//
// The named experiment registry (figures.go, Experiments/FindExperiment)
// regenerates every figure of the paper's evaluation section on top of
// the sweep engine.
//
// # Determinism contract
//
// Every random stream is derived from one seed: cell c's replication r
// draws from rng.New(seed).Split(c+1).Split(r+1) (with CommonStreams,
// rng.New(seed).Split(r+1)), environment axis i builds from
// rng.New(seed).Split(0).Split(i+1), and within a replication every
// reward X_{i,t} is a pure function of (stream, arm, t). Consequently
// aggregates are bit-identical under any worker count, any observation
// pattern, any grid subset (RunCells), and any machine placement — the
// property the shard protocol's bit-identical merge rests on. Folding is
// kept deterministic too: series fold into Welford accumulators in strict
// replication order regardless of completion order.
package sim
