package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/serve"
	"netbandit/internal/sim"
	"netbandit/internal/strategy"
)

// Both sweep workloads run in this process as sim.Sweep passes on a pool of
// sweepWorkers, one pass after another until the measured time is up.
// Every pass uses the run seed, so every pass must reproduce the first
// pass's output byte for byte. A replication's latency runs from its
// policy's construction to its final Update.
const sweepWorkers = 2

// sweepPhase is what a sequence of passes measured.
type sweepPhase struct {
	wall     time.Duration // summed pass time
	windows  []window      // one per pass
	setup    []float64     // environment builds timed between passes, seconds
	hash     string        // sha256 of the first pass's sweep JSON
	stable   bool          // every later pass reproduced it
	first    []*sim.SweepResult
	rounds   int64
	reps     int64
	busy     time.Duration
	cpu      time.Duration // process CPU during passes
	allocB   uint64
	gcs      uint32
	policies map[string]*policyTimes
}

func (s sweepPhase) roundsPerS() float64 { return bestRate(s.windows) }

// setupEvery spaces the set-up samples taken between passes, so that
// their median spans the same stretch of host time as the passes do.
const setupEvery = time.Second

// runPasses runs passes of the sweeps build returns until their summed
// time reaches d (at least one pass). Before the first pass and then at
// most every setupEvery it times one call of setup, outside the pass
// time. Each pass starts from a collected heap, as a sweep in a fresh
// process would, so the peak resident set is one pass's. A timed phase
// clocks every policy call.
func runPasses(ctx context.Context, d time.Duration, tr *Tracer, timed bool, build func(*Probe) ([]sim.Sweep, error), setup func() error) (sweepPhase, error) {
	probe := NewProbe(tr, timed)
	ph := sweepPhase{stable: true}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var lastSetup time.Time
	for i := 0; i == 0 || ph.wall < d; i++ {
		if i == 0 || time.Since(lastSetup) >= setupEvery {
			runtime.GC()
			lastSetup = time.Now()
			if err := setup(); err != nil {
				return ph, err
			}
			ph.setup = append(ph.setup, time.Since(lastSetup).Seconds())
		}
		sweeps, err := build(probe)
		if err != nil {
			return ph, err
		}
		runtime.GC()
		id := tr.NewID()
		probe.setParent(id)
		cpu0 := selfCPU()
		t0 := time.Now()
		h := sha256.New()
		for _, sw := range sweeps {
			res, err := sw.Run(ctx)
			if err != nil {
				return ph, err
			}
			if err := sim.WriteSweepJSON(h, res); err != nil {
				return ph, err
			}
			if i == 0 {
				ph.first = append(ph.first, res)
			}
		}
		end := time.Now()
		ph.wall += end.Sub(t0)
		rounds, lat := probe.sincePass()
		ph.windows = append(ph.windows, window{rate: float64(rounds) / end.Sub(t0).Seconds(), lat: lat})
		ph.cpu += selfCPU() - cpu0
		tr.Add("sim.pass", id, 0, id, t0, end)
		sum := hex.EncodeToString(h.Sum(nil))
		if i == 0 {
			ph.hash = sum
		} else if sum != ph.hash {
			ph.stable = false
		}
	}
	runtime.ReadMemStats(&m1)
	ph.allocB = m1.TotalAlloc - m0.TotalAlloc
	ph.gcs = (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	ph.rounds, ph.reps, ph.busy = probe.snapshot()
	ph.policies = probe.policies
	return ph, nil
}

// sweepWorkload is what distinguishes the two sweep workloads.
type sweepWorkload struct {
	// build returns one pass's sweeps, policies wrapped by the probe.
	build func(*Probe) ([]sim.Sweep, error)
	// buildEnvs constructs every environment axis of a pass once (set-up).
	buildEnvs func() error
	// ladder is the serve spec closest to the workload's rounds.
	ladder serve.Spec
	// check adds workload-specific oracles on the first pass's results.
	check func(w *run, first []*sim.SweepResult)
	// traced adds workload-specific per-layer extras to a traced run.
	traced func(w *run) error
}

// runSweepWorkload measures a sweep workload untraced (end-to-end metrics)
// or traced (per-layer metrics: an untraced and a timed half, the ladder).
func runSweepWorkload(ctx context.Context, w *run, sw sweepWorkload) error {
	d := w.cfg.measure()
	if !w.cfg.Trace {
		ph, err := runPasses(ctx, d, nil, false, sw.build, sw.buildEnvs)
		if err != nil {
			return err
		}
		rss, err := peakRSSMiB("self")
		if err != nil {
			return err
		}
		w.rec.set("setup_s", Median(ph.setup))
		w.setRate(ph.windows, float64(ph.rounds), ph.wall.Seconds(), bestWindows)
		w.setLatency(ph.windows, ms, bestWindows)
		w.rec.set("peak_rss_mb", rss)
		w.rec.addExtra("proc.cpu_ms_per_kround", ph.cpu.Seconds()*ms/float64(ph.rounds)*1e3, "ms")
		w.res.Attempted = ph.reps
		w.sweepExtras(ph)
		w.sweepOracles(ph, sw)
		return nil
	}
	plain, err := runPasses(ctx, d/2, nil, false, sw.build, sw.buildEnvs)
	if err != nil {
		return err
	}
	timed, err := runPasses(ctx, d/2, w.tr, true, sw.build, sw.buildEnvs)
	if err != nil {
		return err
	}
	w.res.Attempted = plain.reps + timed.reps
	w.rec.set("bandit.env_build_ms", Median(plain.setup)*ms)
	w.rec.set("proc.cpu_ms_per_kround", plain.cpu.Seconds()*ms/float64(plain.rounds)*1e3)
	w.rec.set("trace.overhead_frac", 1-timed.roundsPerS()/plain.roundsPerS())
	w.rec.check("traced-output-identical", timed.hash == plain.hash,
		"traced pass sha256 %s, untraced %s", short(timed.hash), short(plain.hash))
	w.sweepExtras(plain)
	names := make([]string, 0, len(timed.policies))
	for name := range timed.policies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pt := timed.policies[name]
		w.rec.addExtra("policy."+name+".select_ns", float64(pt.selectNS)/float64(pt.calls), "ns")
		w.rec.addExtra("policy."+name+".update_ns", float64(pt.updateNS)/float64(pt.calls), "ns")
	}
	w.sweepOracles(plain, sw)
	if err := runLadder(ctx, sw.ladder, w.cfg.Scale, w.dir, w.tr, w.rec); err != nil {
		return err
	}
	if sw.traced != nil {
		return sw.traced(w)
	}
	return nil
}

// sweepExtras records the sim layer's own counters for a phase.
func (w *run) sweepExtras(ph sweepPhase) {
	w.rec.addExtra("sim.passes", float64(len(ph.windows)), "count")
	w.rec.addExtra("sim.setup_samples", float64(len(ph.setup)), "count")
	w.rec.addExtra("sim.round_ns", float64(ph.busy.Nanoseconds())/float64(ph.rounds), "ns")
	w.rec.addExtra("sim.pool_busy_frac", ph.busy.Seconds()/(ph.wall.Seconds()*sweepWorkers), "frac")
	w.rec.addExtra("sim.alloc_bytes_per_round", float64(ph.allocB)/float64(ph.rounds), "B")
	w.rec.addExtra("sim.gc_cycles", float64(ph.gcs), "count")
}

func (w *run) sweepOracles(ph sweepPhase, sw sweepWorkload) {
	w.rec.exact["pass_sha256"] = ph.hash
	w.rec.exact["rounds_per_pass"] = fmt.Sprint(ph.rounds / int64(len(ph.windows)))
	w.rec.check("passes-identical", ph.stable, "%d passes reproduced sha256 %s", len(ph.windows), short(ph.hash))
	w.checkPinned(w.cfg.Workload, ph.hash)
	sw.check(w, ph.first)
}

// checkFinalRegret fails unless every cell's final average pseudo-regret
// is finite and non-negative.
func checkFinalRegret(w *run, results []*sim.SweepResult) {
	ok, bad := true, ""
	for _, res := range results {
		for _, c := range res.Cells {
			v := c.Agg.Final(sim.AvgPseudo)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				ok, bad = false, fmt.Sprintf("%s = %v", c.Cell, v)
			}
		}
	}
	w.rec.check("regret-finite", ok, "every cell's final avg pseudo-regret is finite and ≥ 0 %s", bad)
}

// sweepSingle is the paper's Section VII single-play grid: SSO on K=100
// G(n,p) graphs at three densities, DFL against MOSS and UCB1.
func sweepSingle(ctx context.Context, w *run) error {
	const k, n = 100, 10000
	densities := []float64{0.05, 0.3, 0.6}
	policies := []string{"dfl", "moss", "ucb1"}
	reps := w.cfg.scaled(4, 1)
	seed := w.cfg.Seed
	envs := func() []sim.EnvSpec {
		var out []sim.EnvSpec
		for _, p := range densities {
			out = append(out, sim.GnpBernoulliEnv(fmt.Sprintf("gnp(%g)", p), bandit.SSO, k, 2, p))
		}
		return out
	}
	return runSweepWorkload(ctx, w, sweepWorkload{
		build: func(probe *Probe) ([]sim.Sweep, error) {
			var pols []sim.PolicySpec
			for _, name := range policies {
				spec, err := sim.NewPolicySpec(name, bandit.SSO)
				if err != nil {
					return nil, err
				}
				spec.Single = probe.Single(name, n, spec.Single)
				pols = append(pols, spec)
			}
			return []sim.Sweep{{
				Name: fmt.Sprintf("sso sweep (gnp, K=%d)", k), Envs: envs(), Policies: pols,
				Configs: []sim.ConfigSpec{{Config: sim.Config{
					Horizon: n, Checkpoints: sim.DefaultCheckpoints(n, 100), AnnounceHorizon: true,
				}}},
				Reps: reps, Seed: seed, Workers: sweepWorkers,
			}}, nil
		},
		buildEnvs: func() error { return buildAxes(seed, envs()) },
		ladder: serve.Spec{
			ID: "ladder", Seed: subSeed(seed, 1), Scenario: "sso", Policy: "dfl", K: k, P: 0.3,
		},
		check: func(w *run, first []*sim.SweepResult) {
			res := first[0]
			for _, p := range densities {
				env := fmt.Sprintf("gnp(%g)", p)
				dfl, ok1 := res.Find(env, "dfl", "")
				moss, ok2 := res.Find(env, "moss", "")
				ok := ok1 && ok2 && dfl.Agg.Final(sim.AvgPseudo) < moss.Agg.Final(sim.AvgPseudo)
				detail := "cells missing"
				if ok1 && ok2 {
					detail = fmt.Sprintf("DFL %.5f, MOSS %.5f", dfl.Agg.Final(sim.AvgPseudo), moss.Agg.Final(sim.AvgPseudo))
				}
				w.rec.check("dfl-below-moss-"+env, ok, "%s", detail)
			}
			checkFinalRegret(w, first)
		},
	})
}

// buildAxes builds every axis the way Sweep.Run does: axis i from
// rng.New(seed).Split(0).Split(i+1).
func buildAxes(seed uint64, envs []sim.EnvSpec) error {
	root := rng.New(seed).Split(0)
	for i, e := range envs {
		var err error
		if e.Build != nil {
			_, _, err = e.Build(root.Split(uint64(i) + 1))
		} else if e.CtxBuild != nil {
			_, _, err = e.CtxBuild(root.Split(uint64(i) + 1))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepCombo runs two combinatorial sweeps back to back: CSO/DFL on sparse
// large-K environments with the sliding-window family, where building the
// strategy graph of every pass is a large share of the work, then
// contextual CSO with LinUCB and linear Thompson sampling.
func sweepCombo(ctx context.Context, w *run) error {
	const (
		deg, m, n   = 8.0, 2, 2000
		ctxK, ctxD  = 20, 4
		ctxDensity  = 0.3
		largeName   = "cso large-K sweep (sparse deg 8, windows m=2)"
		ctxName     = "cso contextual sweep (gnp(0.3), K=20, d=4)"
		ctxEnvLabel = "gnp(0.3)+ctx4"
	)
	sizes := []int{4096, 10000}
	seed := w.cfg.Seed
	// A pass's replications come in three sizes: 26 contextual ones of
	// about 7 ms, two K=4096 ones of about 20 ms and two K=10⁴ ones of
	// about 120 ms on the reference host. These counts put the p50 inside
	// the first group and the p90 in the middle of the second, away from
	// the jumps between groups where a percentile would swing from run to
	// run.
	repsLarge, repsCtx := w.cfg.scaled(2, 1), w.cfg.scaled(13, 1)
	type largeAxis struct {
		env *bandit.Env
		set *strategy.Set
	}
	buildLarge := func() ([]largeAxis, error) {
		var out []largeAxis
		for i, k := range sizes {
			env, err := bandit.SparseBernoulliEnv(k, deg, subSeed(seed, uint64(10+i)))
			if err != nil {
				return nil, err
			}
			set, err := bandit.WindowStrategies(k, m, env.Graph())
			if err != nil {
				return nil, err
			}
			out = append(out, largeAxis{env, set})
		}
		return out, nil
	}
	large, err := buildLarge()
	if err != nil {
		return err
	}
	ctxEnv := func() sim.EnvSpec {
		return sim.ContextualGnpEnv(ctxEnvLabel, bandit.CSO, ctxK, m, ctxD, ctxDensity)
	}
	return runSweepWorkload(ctx, w, sweepWorkload{
		build: func(probe *Probe) ([]sim.Sweep, error) {
			dfl, err := sim.NewPolicySpec("dfl", bandit.CSO)
			if err != nil {
				return nil, err
			}
			dfl.Combo = probe.Combo("dfl", n, dfl.Combo)
			var envs []sim.EnvSpec
			for i, ax := range large {
				envs = append(envs, sim.FixedEnv(fmt.Sprintf("sparse(%d)", sizes[i]), bandit.CSO, ax.env, ax.set))
			}
			var ctxPols []sim.PolicySpec
			for _, name := range []string{"linucb", "ctx-thompson"} {
				spec, err := sim.NewPolicySpec(name, bandit.CSO)
				if err != nil {
					return nil, err
				}
				spec.Combo = probe.Combo(name, n, spec.Combo)
				ctxPols = append(ctxPols, spec)
			}
			configs := []sim.ConfigSpec{{Config: sim.Config{Horizon: n, Checkpoints: sim.DefaultCheckpoints(n, 100), AnnounceHorizon: true}}}
			return []sim.Sweep{
				{Name: largeName, Envs: envs, Policies: []sim.PolicySpec{dfl}, Configs: configs,
					Reps: repsLarge, Seed: seed, Workers: sweepWorkers},
				{Name: ctxName, Envs: []sim.EnvSpec{ctxEnv()}, Policies: ctxPols, Configs: configs,
					Reps: repsCtx, Seed: seed, Workers: sweepWorkers},
			}, nil
		},
		buildEnvs: func() error {
			if _, err := buildLarge(); err != nil {
				return err
			}
			return buildAxes(seed, []sim.EnvSpec{ctxEnv()})
		},
		ladder: serve.Spec{
			ID: "ladder", Seed: subSeed(seed, 1), Scenario: "cso", Policy: "linucb", K: ctxK, M: m, P: ctxDensity,
			RewardModel: serve.RewardLinear, D: ctxD,
		},
		check: checkFinalRegret,
		traced: func(w *run) error {
			// The strategy-graph kernel alone, on every combinatorial axis.
			for i, ax := range large {
				s, err := repeatMedian(3, func() error {
					if sim.NewComboCache(ax.env, ax.set).StrategyGraph().N() != ax.set.Len() {
						return fmt.Errorf("strategy graph of the wrong size")
					}
					return nil
				})
				if err != nil {
					return err
				}
				w.rec.addExtra(fmt.Sprintf("core.sg_build_ms.k%d", sizes[i]), s*ms, "ms")
			}
			cenv, set, err := ctxEnv().CtxBuild(rng.New(seed).Split(0).Split(1))
			if err != nil {
				return err
			}
			s, err := repeatMedian(3, func() error {
				sim.NewContextualComboCache(cenv, set).StrategyGraph()
				return nil
			})
			if err != nil {
				return err
			}
			w.rec.addExtra("core.sg_build_ms.ctx", s*ms, "ms")
			return nil
		},
	})
}
