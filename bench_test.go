package netbandit_test

// One benchmark per reproduced figure plus one per ablation. Benchmarks
// run the registered experiments at reduced scale (the paper-scale curves
// are regenerated by cmd/experiments) and report the final regret values
// as custom metrics, so `go test -bench` doubles as a quick shape check:
// regret/round values should be small for the DFL policies and the Fig. 3
// benches should show MOSS well above DFL-SSO.

import (
	"context"
	"testing"

	"netbandit"
)

// benchParams shrinks an experiment to benchmark scale.
var benchParams = netbandit.Params{Horizon: 2000, Reps: 2, Seed: 99, Points: 10}

// runExperiment executes a registered experiment once per benchmark
// iteration and reports each curve's final value as a metric.
func runExperiment(b *testing.B, id string, params netbandit.Params) {
	b.Helper()
	e, ok := netbandit.FindExperiment(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var table *netbandit.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		table, err = e.Run(params)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, c := range table.Curves {
		if len(c.Mean) == 0 {
			continue
		}
		b.ReportMetric(c.Mean[len(c.Mean)-1], metricName(c.Name))
	}
}

// metricName squeezes a curve name into a benchmark metric unit label.
func metricName(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out) + "_final"
}

// Figure 3(a): expected regret over time, MOSS vs DFL-SSO.
func BenchmarkFig3a(b *testing.B) { runExperiment(b, "fig3a", benchParams) }

// Figure 3(b): accumulated regret, MOSS vs DFL-SSO.
func BenchmarkFig3b(b *testing.B) { runExperiment(b, "fig3b", benchParams) }

// Figure 4(a): DFL-CSO on a sparse relation graph (p=0.3).
func BenchmarkFig4a(b *testing.B) { runExperiment(b, "fig4a", benchParams) }

// Figure 4(b): DFL-CSO on a dense relation graph (p=0.6).
func BenchmarkFig4b(b *testing.B) { runExperiment(b, "fig4b", benchParams) }

// Figure 5: DFL-SSR expected regret.
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5", benchParams) }

// Figure 6: DFL-CSR expected regret.
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6", benchParams) }

// Ablation: Section IX greedy-hop heuristic.
func BenchmarkAblationGreedyHop(b *testing.B) { runExperiment(b, "abl-hop", benchParams) }

// Ablation: exact obs-log vs streaming composite DFL-SSR estimator.
func BenchmarkAblationSSRStreaming(b *testing.B) { runExperiment(b, "abl-ssr-stream", benchParams) }

// Ablation: exact vs greedy combinatorial oracle in DFL-CSR.
func BenchmarkAblationCSROracle(b *testing.B) { runExperiment(b, "abl-csr-oracle", benchParams) }

// Ablation: relation-graph density sweep (Theorem 1's clique-cover term).
func BenchmarkAblationDensity(b *testing.B) {
	runExperiment(b, "abl-density", netbandit.Params{Horizon: 1000, Reps: 2, Seed: 99, Points: 5})
}

// Ablation: DFL-SSO against the standard baseline suite.
func BenchmarkAblationBaselines(b *testing.B) {
	runExperiment(b, "abl-baselines", netbandit.Params{Horizon: 1000, Reps: 2, Seed: 99, Points: 5})
}

// Micro-benchmarks of the hot paths, for -benchmem allocation tracking.

func BenchmarkDFLSSORound(b *testing.B) {
	r := netbandit.NewRNG(1)
	g := netbandit.GnpGraph(100, 0.3, r)
	env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	cfg := netbandit.Config{Horizon: 1000, AnnounceHorizon: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netbandit.RunSingle(env, netbandit.SSO, netbandit.NewDFLSSO(), cfg, netbandit.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "rounds/op")
}

// BenchmarkDFLSSOSteadyStateRound measures one steady-state round of the
// DFL-SSO loop in isolation (op = one round): the replication is set up
// and warmed outside the timer, so ns/op is the marginal round cost and
// allocs/op must be exactly zero — the tentpole guarantee of the
// O(observed) round loop.
func BenchmarkDFLSSOSteadyStateRound(b *testing.B) {
	const warmup = 2000
	r := netbandit.NewRNG(1)
	g := netbandit.GnpGraph(100, 0.3, r)
	env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	cfg := netbandit.Config{Horizon: warmup + b.N, AnnounceHorizon: true}
	run, err := netbandit.NewSingleRun(env, netbandit.SSO, netbandit.NewDFLSSO(), cfg, netbandit.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		if err := run.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleObserved measures the counter-based O(|N̄|) sampling pass
// against BenchmarkSampleAll's O(K) draw-everything round.
func BenchmarkSampleObserved(b *testing.B) {
	r := netbandit.NewRNG(9)
	g := netbandit.GnpGraph(100, 0.3, r)
	env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	ctr := netbandit.NewCounter(9)
	scratch := netbandit.NewRNG(9)
	buf := make([]float64, env.K())
	closed := env.Closed(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.SampleObserved(ctr, i+1, closed, buf, scratch)
	}
	b.ReportMetric(float64(len(closed)), "arms/op")
}

// BenchmarkSampleAll is the pre-PR sampling cost baseline: every arm drawn
// every round.
func BenchmarkSampleAll(b *testing.B) {
	r := netbandit.NewRNG(9)
	g := netbandit.GnpGraph(100, 0.3, r)
	env, err := netbandit.NewRandomBernoulliEnv(g, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	stream := netbandit.NewRNG(10)
	buf := make([]float64, env.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.SampleAll(stream, buf)
	}
	b.ReportMetric(float64(env.K()), "arms/op")
}

func BenchmarkDFLCSRRound(b *testing.B) { csrRun(b, netbandit.NewDFLCSR) }

// BenchmarkCUCBClosureRound is BenchmarkDFLCSRRound's run with the
// closure-objective CUCB baseline: per-arm UCB indices plus the same
// exact strategy argmax, the other half of the shard_grid workload.
func BenchmarkCUCBClosureRound(b *testing.B) { csrRun(b, netbandit.NewCUCBClosure) }

// csrRun times one 500-round CSR replication per op on K=20, top-2
// strategies, G(20, 0.3).
func csrRun(b *testing.B, policy func() netbandit.ComboPolicy) {
	r := netbandit.NewRNG(2)
	g := netbandit.GnpGraph(20, 0.3, r)
	env, err := netbandit.NewRandomBernoulliEnv(g, 20, r)
	if err != nil {
		b.Fatal(err)
	}
	set, err := netbandit.TopM(20, 2, g)
	if err != nil {
		b.Fatal(err)
	}
	cfg := netbandit.Config{Horizon: 500, AnnounceHorizon: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netbandit.RunCombo(env, set, netbandit.CSR, policy(), cfg, netbandit.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(500, "rounds/op")
}

func BenchmarkStrategyGraphConstruction(b *testing.B) {
	r := netbandit.NewRNG(3)
	g := netbandit.GnpGraph(20, 0.3, r)
	set, err := netbandit.TopM(20, 2, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg := netbandit.BuildStrategyGraph(set)
		if sg.N() != set.Len() {
			b.Fatal("bad SG")
		}
	}
}

// largeKSizes is the BenchmarkLargeK scale ladder: past the one-word
// ceiling (256), at the dense/sparse representation boundary (4096), and
// at the paper-motivated social-graph scale (10⁴) where the O(K²)-bit
// paths used to be infeasible.
var largeKSizes = []struct {
	name string
	k    int
}{
	{"k256", 256},
	{"k4096", 4096},
	{"k10000", 10000},
}

// largeKSetup builds the shared large-K scenario: a sparse average-degree-8
// Bernoulli environment and the sliding-window strategy family (|F| = K).
func largeKSetup(b *testing.B, k int) (*netbandit.Env, *netbandit.StrategySet) {
	b.Helper()
	env, err := netbandit.NewSparseBernoulliEnv(k, 8, uint64(k))
	if err != nil {
		b.Fatal(err)
	}
	set, err := netbandit.WindowStrategies(k, 2, env.Graph())
	if err != nil {
		b.Fatal(err)
	}
	return env, set
}

// BenchmarkLargeKSGBuild measures strategy-graph construction on the
// window family: |F| = K vertices, so K = 10⁴ has 5·10⁷ strategy pairs,
// of which the first-arm kernel tests about 18 per strategy, and its SG
// is past the dense limit, so it comes out sparse.
func BenchmarkLargeKSGBuild(b *testing.B) {
	for _, tc := range largeKSizes {
		b.Run(tc.name, func(b *testing.B) {
			_, set := largeKSetup(b, tc.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sg := netbandit.BuildStrategyGraph(set)
				if sg.N() != set.Len() {
					b.Fatal("bad SG")
				}
			}
		})
	}
}

// BenchmarkLargeKSteadyRound measures one steady-state DFL-SSO round at
// large K. Warmup must exceed K: the policy's unseen queue hands out each
// arm once before the O(K) index scan becomes the round's steady shape.
func BenchmarkLargeKSteadyRound(b *testing.B) {
	for _, tc := range largeKSizes {
		b.Run(tc.name, func(b *testing.B) {
			env, _ := largeKSetup(b, tc.k)
			warmup := tc.k + 1000
			cfg := netbandit.Config{Horizon: warmup + b.N, AnnounceHorizon: true}
			run, err := netbandit.NewSingleRun(env, netbandit.SSO, netbandit.NewDFLSSO(), cfg, netbandit.NewRNG(7))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < warmup; i++ {
				if err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeKClosureSample measures the counter-based sampling pass
// over a window strategy's closure at large K — cost must track closure
// size, not K.
func BenchmarkLargeKClosureSample(b *testing.B) {
	for _, tc := range largeKSizes {
		b.Run(tc.name, func(b *testing.B) {
			env, set := largeKSetup(b, tc.k)
			ctr := netbandit.NewCounter(uint64(tc.k))
			scratch := netbandit.NewRNG(9)
			buf := make([]float64, env.K())
			closure := set.Closure(set.Len() / 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.SampleObserved(ctr, i+1, closure, buf, scratch)
			}
			b.ReportMetric(float64(len(closure)), "arms/op")
		})
	}
}

// ctxComboSetup builds the shared fixture of the contextual round
// benchmarks: a K=20 G(n, 0.3) relation graph, d=4 linear rewards, and
// the all-2-subsets family.
func ctxComboSetup(b *testing.B) (*netbandit.ContextualEnv, *netbandit.StrategySet) {
	b.Helper()
	r := netbandit.NewRNG(11)
	g := netbandit.GnpGraph(20, 0.3, r)
	cenv, err := netbandit.NewContextualEnv(g, 20, netbandit.RandomTheta(r, 4), netbandit.NewCounter(12))
	if err != nil {
		b.Fatal(err)
	}
	set, err := netbandit.TopM(20, 2, g)
	if err != nil {
		b.Fatal(err)
	}
	return cenv, set
}

// ctxSteadyRound measures one steady-state contextual round (op = one
// round): context fill, policy Select, counter-stream sampling, linear
// model update — everything past warmup.
func ctxSteadyRound(b *testing.B, pol netbandit.ComboPolicy) {
	b.Helper()
	const warmup = 500
	cenv, set := ctxComboSetup(b)
	cfg := netbandit.Config{Horizon: warmup + b.N, AnnounceHorizon: true}
	run, err := netbandit.NewContextualComboRun(cenv, set, netbandit.CSO, pol, cfg, netbandit.NewRNG(13), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		if err := run.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombLinUCBRound measures combinatorial LinUCB's marginal
// contextual round: ridge scoring of every arm plus the strategy argmax.
func BenchmarkCombLinUCBRound(b *testing.B) {
	ctxSteadyRound(b, netbandit.NewCombLinUCB(1, netbandit.ObjectiveDirect))
}

// BenchmarkCtxThompsonRound measures combinatorial linear Thompson
// sampling's marginal contextual round: a Cholesky posterior draw through
// the batched counter normals plus the strategy scan.
func BenchmarkCtxThompsonRound(b *testing.B) {
	ctxSteadyRound(b, netbandit.NewCombCtxThompson(0.5, netbandit.ObjectiveDirect, netbandit.NewRNG(14)))
}

// BenchmarkContextualSweepCell runs the contextual half of the
// repository benchmark's sweep_combo pass through the sweep engine (op =
// one pass): a K=20 G(n, 0.3) axis with d=4 linear rewards and the
// all-2-subsets family, CombLinUCB and CombCtxThompson, 13 replications
// of 2000 rounds each on 2 workers. Unlike the round benchmarks above,
// which pass no ComboCache, every replication here shares its axis's
// cache, per-round optimum table included.
func BenchmarkContextualSweepCell(b *testing.B) {
	const k, m, d, n, reps = 20, 2, 4, 2000, 13
	var pols []netbandit.PolicySpec
	for _, name := range []string{"linucb", "ctx-thompson"} {
		spec, err := netbandit.NewPolicySpec(name, netbandit.CSO)
		if err != nil {
			b.Fatal(err)
		}
		pols = append(pols, spec)
	}
	sw := netbandit.Sweep{
		Name:     "ctx-cell",
		Envs:     []netbandit.EnvSpec{netbandit.ContextualGnpEnv("gnp(0.3)+ctx4", netbandit.CSO, k, m, d, 0.3)},
		Policies: pols,
		Config:   netbandit.Config{Horizon: n, AnnounceHorizon: true},
		Reps:     reps,
		Seed:     1,
		Workers:  2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pols)*reps*n), "ns/round")
}
