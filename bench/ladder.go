package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/serve"
	"netbandit/internal/sim"
	"netbandit/internal/strategy"
)

// The layer ladder times one decision through each layer in turn, on one
// instance spec: runner Step → Server.Decide (mailbox, log append) → the
// HTTP handler without a socket → a loopback HTTP client. Adjacent rungs
// share everything below them, so the difference between two rungs is the
// self time of the layer between them. Every workload runs the ladder on
// its own representative spec.

// stepper is the slice of sim.SingleRun/sim.ComboRun the ladder drives.
type stepper interface {
	Step() error
	Decide() (t, action int, err error)
	AutoFeedback() ([]bandit.Observation, error)
}

// ladderFixture is a spec realised in-process as the decision service
// realises it (graph from Split(1), rewards from Split(2), policy stream
// Split(3), reward stream Split(4), features Split(5)), so the sim rung
// steps the same game the serve rungs decide. runLadder checks that it
// does: matchesServe fails the run when the service's derivation drifts
// from this copy of it.
type ladderFixture struct {
	run    stepper
	sample func(t int) // one counter-stream sample of a typical closure
}

// buildFixture realises a normalized spec, wrapping its policy with wrapS
// or wrapC when they are non-nil.
func buildFixture(spec serve.Spec, wrapS func(bandit.SinglePolicy) bandit.SinglePolicy, wrapC func(bandit.ComboPolicy) bandit.ComboPolicy) (*ladderFixture, error) {
	scen, err := bandit.ParseScenario(spec.Scenario)
	if err != nil {
		return nil, err
	}
	r := rng.New(spec.Seed)
	env, cenv, set, err := specEnv(spec, r)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Horizon:         spec.Horizon,
		Checkpoints:     sim.DefaultCheckpoints(spec.Horizon, spec.Points),
		AnnounceHorizon: true,
	}
	fx := &ladderFixture{}
	var closure []int
	switch {
	case set != nil:
		closure = set.Closure(0)
	case cenv != nil:
		closure = cenv.Closed(0)
	default:
		closure = env.Closed(0)
	}
	if scen.Combinatorial() {
		factory, err := sim.ComboPolicyFactory(spec.Policy, scen)
		if err != nil {
			return nil, err
		}
		pol := factory(r.Split(3))
		if wrapC != nil {
			pol = wrapC(pol)
		}
		if cenv != nil {
			fx.run, err = sim.NewContextualComboRun(cenv, set, scen, pol, cfg, r.Split(4), nil)
		} else {
			fx.run, err = sim.NewComboRun(env, set, scen, pol, cfg, r.Split(4), nil)
		}
		if err != nil {
			return nil, err
		}
	} else {
		factory, err := sim.SinglePolicyFactory(spec.Policy, scen)
		if err != nil {
			return nil, err
		}
		pol := factory(r.Split(3))
		if wrapS != nil {
			pol = wrapS(pol)
		}
		if cenv != nil {
			fx.run, err = sim.NewContextualSingleRun(cenv, scen, pol, cfg, r.Split(4))
		} else {
			fx.run, err = sim.NewSingleRun(env, scen, pol, cfg, r.Split(4))
		}
		if err != nil {
			return nil, err
		}
	}
	ctr := r.Split(4).Counter()
	obs := make([]bandit.Observation, 0, spec.K)
	xs := make([]float64, spec.K)
	if cenv != nil {
		means := cenv.MeansAt(cenv.Context(1, nil), nil)
		fx.sample = func(t int) { obs = cenv.SampleObservationsAt(ctr, t, closure, means, xs, obs[:0]) }
	} else {
		scratch := new(rng.RNG)
		fx.sample = func(t int) { obs = env.SampleObservations(ctr, t, closure, xs, obs[:0], scratch) }
	}
	return fx, nil
}

// specEnv realises a normalized spec's environment as the decision service
// does: graph from r.Split(1), rewards from Split(2), features from
// Split(5), and the TopM strategy family on combinatorial scenarios (set
// is nil otherwise). Exactly one of env and cenv is non-nil.
func specEnv(spec serve.Spec, r *rng.RNG) (env *bandit.Env, cenv *bandit.ContextualEnv, set *strategy.Set, err error) {
	g, err := graphs.FromName(graphs.GeneratorName(spec.Graph), spec.K, spec.P, r.Split(1))
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Contextual() {
		cenv, err = bandit.NewContextualEnv(g, spec.K, bandit.RandomTheta(r.Split(2), spec.D), r.Split(5).Counter())
	} else {
		env, err = bandit.NewEnv(g, armdist.RandomBernoulliArms(spec.K, r.Split(2)))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	scen, err := bandit.ParseScenario(spec.Scenario)
	if err != nil {
		return nil, nil, nil, err
	}
	if scen.Combinatorial() {
		if set, err = strategy.TopM(spec.K, spec.M, g); err != nil {
			return nil, nil, nil, err
		}
	}
	return env, cenv, set, nil
}

// ladderSizes are the per-rung operation counts at scale 1; each rung
// takes a few tens to a few hundred milliseconds.
type ladderSizes struct {
	warm, step, sample, decide, handler, loopback, feedback, snapshots int
}

func scaledLadder(scale float64) ladderSizes {
	n := func(base int) int { return atLeast(int(float64(base)*scale), 20) }
	return ladderSizes{
		warm: n(2000), step: n(50000), sample: n(100000), decide: n(20000),
		handler: n(5000), loopback: n(3000), feedback: n(2000), snapshots: 5,
	}
}

// rung times ops calls of f and records a span for the whole loop; it
// returns mean ns per op and heap allocations per op.
func rung(tr *Tracer, name string, ops int, f func(i int) error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := f(i); err != nil {
			return 0, 0, fmt.Errorf("%s op %d: %w", name, i, err)
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	tr.Add(name, 0, 0, 0, start, end)
	return float64(end.Sub(start).Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

// runLadder measures every ladder rung on spec inside dir and records the
// PerLayer ladder metrics. The spec's horizon and feedback mode are
// replaced: the decide rungs run an env-feedback copy, the feedback rung a
// client-feedback one.
func runLadder(ctx context.Context, spec serve.Spec, scale float64, dir string, tr *Tracer, rec *recorder) error {
	sz := scaledLadder(scale)
	spec.Horizon = 10 * (sz.warm + sz.step + sz.decide + sz.handler + sz.loopback + sz.feedback)
	if err := spec.Normalize(); err != nil {
		return err
	}

	// sim rung: a clean runner for ns and allocs per Step.
	fx, err := buildFixture(spec, nil, nil)
	if err != nil {
		return err
	}
	for i := 0; i < sz.warm; i++ {
		if err := fx.run.Step(); err != nil {
			return err
		}
	}
	stepNS, stepAllocs, err := rung(tr, "ladder.sim.step", sz.step, func(int) error { return fx.run.Step() })
	if err != nil {
		return err
	}
	sampleNS, _, err := rung(tr, "ladder.bandit.sample", sz.sample, func(i int) error { fx.sample(i + 1); return nil })
	if err != nil {
		return err
	}

	// The same game with every policy call clocked: select and update busy
	// time, and the runner's own share of a clocked round by difference
	// (taking both from one runner keeps the difference non-negative).
	probe := NewProbe(nil, true)
	never := &repRec{p: probe, horizon: -1}
	tfx, err := buildFixture(spec,
		func(p bandit.SinglePolicy) bandit.SinglePolicy { return &timedSingle{p, never} },
		func(p bandit.ComboPolicy) bandit.ComboPolicy { return &timedCombo{p, never} })
	if err != nil {
		return err
	}
	for i := 0; i < sz.warm; i++ {
		if err := tfx.run.Step(); err != nil {
			return err
		}
	}
	never.sel, never.upd = 0, 0
	clockedNS, _, err := rung(tr, "ladder.policy", sz.step, func(int) error { return tfx.run.Step() })
	if err != nil {
		return err
	}
	selectNS := float64(never.sel.Nanoseconds()) / float64(sz.step)
	updateNS := float64(never.upd.Nanoseconds()) / float64(sz.step)

	// serve rungs, on a fresh in-process server.
	srvDir := filepath.Join(dir, "ladder")
	if err := os.RemoveAll(srvDir); err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{Dir: srvDir})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			srv.Kill()
		}
	}()
	envSpec := spec
	envSpec.ID, envSpec.Feedback = "lad-env", serve.FeedbackEnv
	clientSpec := spec
	clientSpec.ID, clientSpec.Feedback = "lad-client", serve.FeedbackClient
	for _, s := range []serve.Spec{envSpec, clientSpec} {
		if _, err := srv.CreateInstance(s); err != nil {
			return err
		}
	}
	// The warm-up decides double as the check that the sim rung plays the
	// service's game.
	ref, err := buildFixture(spec, nil, nil)
	if err != nil {
		return err
	}
	if err := matchesServe(srv, "lad-env", ref.run, sz.warm, rec); err != nil {
		return err
	}
	decideNS, decideAllocs, err := rung(tr, "ladder.serve.decide", sz.decide, func(int) error {
		_, err := srv.Decide("lad-env")
		return err
	})
	if err != nil {
		return err
	}
	body := []byte(`{"instance":"lad-env"}`)
	handlerNS, handlerAllocs, err := rung(tr, "ladder.serve.handler", sz.handler, func(int) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", w.Code, w.Body.String())
		}
		return nil
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	client := ts.Client()
	loopNS, loopAllocs, err := rung(tr, "ladder.net.loopback", sz.loopback, func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/decide", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return err
	})
	ts.Close()
	if err != nil {
		return err
	}

	applyUS, err := feedbackApply(srv, "lad-client", sz.feedback)
	if err != nil {
		return err
	}
	snapMS := make([]float64, sz.snapshots)
	for i := range snapMS {
		t0 := time.Now()
		if err := srv.SnapshotAll(); err != nil {
			return err
		}
		snapMS[i] = msSince(t0)
	}
	closed = true
	if err := srv.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	verified, err := serve.VerifyDir(srvDir)
	if err != nil {
		return err
	}
	replay := time.Since(t0)
	rounds, logBytes := 0, int64(0)
	for _, v := range verified {
		rounds += v.Rounds
		st, err := os.Stat(filepath.Join(srvDir, "instances", v.ID, serve.LogName))
		if err != nil {
			return err
		}
		logBytes += st.Size()
	}
	if rounds == 0 {
		return fmt.Errorf("ladder: replay verified no rounds")
	}

	rec.set("bandit.sample_ns", sampleNS)
	rec.set("policy.select_ns", selectNS)
	rec.set("policy.update_ns", updateNS)
	rec.set("sim.step_ns", stepNS)
	rec.set("sim.runner_self_ns", clockedNS-selectNS-updateNS)
	rec.set("sim.step_allocs", stepAllocs)
	rec.set("serve.decide_ns", decideNS)
	rec.set("serve.mailbox_log_self_ns", decideNS-stepNS)
	rec.set("serve.decide_allocs", decideAllocs)
	rec.set("serve.handler_ns", handlerNS)
	rec.set("serve.http_self_ns", handlerNS-decideNS)
	rec.set("serve.handler_allocs", handlerAllocs)
	rec.set("net.loopback_ns", loopNS)
	rec.set("net.self_ns", loopNS-handlerNS)
	rec.set("net.loopback_allocs", loopAllocs)
	rec.setPct("serve.feedback_apply_us_p50", NearestRank(applyUS, 50), 1)
	rec.setPct("serve.feedback_apply_us_p99", NearestRank(applyUS, 99), 1)
	rec.set("serve.snapshot_ms", Median(snapMS))
	rec.set("serve.replay_us_per_round", float64(replay.Nanoseconds())/1e3/float64(rounds))
	rec.set("serve.log_bytes_per_round", float64(logBytes)/float64(rounds))
	return nil
}

// matchesServe decides n rounds of the env-feedback instance id and plays
// the same rounds on run, and records whether every round's (t, action)
// and revealed values agree bit for bit.
func matchesServe(srv *serve.Server, id string, run stepper, n int, rec *recorder) error {
	for i := 0; i < n; i++ {
		dec, err := srv.Decide(id)
		if err != nil {
			return err
		}
		t, action, err := run.Decide()
		if err != nil {
			return err
		}
		obs, err := run.AutoFeedback()
		if err != nil {
			return err
		}
		same := dec.T == t && dec.Action == action && len(dec.Values) == len(obs)
		for j := 0; same && j < len(obs); j++ {
			same = math.Float64bits(dec.Values[j]) == math.Float64bits(obs[j].Value)
		}
		if !same {
			vals := make([]float64, len(obs))
			for j, o := range obs {
				vals[j] = o.Value
			}
			rec.check("ladder-matches-serve", false, "round %d: service t=%d action %d values %v, ladder fixture t=%d action %d values %v",
				i+1, dec.T, dec.Action, dec.Values, t, action, vals)
			return nil
		}
	}
	rec.check("ladder-matches-serve", true, "%d rounds of the ladder fixture equal Server.Decide", n)
	return nil
}

// feedbackApply measures, n times, the in-process feedback path of a
// client-mode instance: EnqueueFeedback through the ingest queue and pump
// to the instance's writer, until its published round advances. It returns
// microseconds per feedback.
func feedbackApply(srv *serve.Server, id string, n int) ([]float64, error) {
	round := func() int {
		for _, st := range srv.Stats() {
			if st.ID == id {
				return st.Round
			}
		}
		return -1
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		dec, err := srv.Decide(id)
		if err != nil {
			return nil, err
		}
		item := serve.FeedbackItem{
			Instance: id, T: dec.T, Action: dec.Action,
			Values: make([]float64, len(dec.Closure)), ContextHash: dec.ContextHash,
		}
		for j := range item.Values {
			item.Values[j] = float64((dec.T + j) & 1)
		}
		t0 := time.Now()
		if !srv.EnqueueFeedback(item) {
			return nil, fmt.Errorf("feedback for round %d refused", dec.T)
		}
		deadline := t0.Add(5 * time.Second)
		for round() < dec.T {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("feedback for round %d not applied within 5s", dec.T)
			}
			runtime.Gosched()
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

func atLeast(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}
