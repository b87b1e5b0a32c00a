package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"netbandit/internal/rng"
	"netbandit/internal/serve"
)

// Both serve workloads exec the real `nbandit serve` and drive it over
// loopback HTTP with at most serveConns connections from this process.
const serveConns = 2

// serveHorizon is every benchmark instance's horizon: beyond any run.
const serveHorizon = 100_000_000

// apiClient speaks the /v1 JSON API over a bounded connection pool.
type apiClient struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newAPIClient(base string, conns int) *apiClient {
	tr := &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	return &apiClient{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: failLatency}}
}

func (a *apiClient) close() { a.tr.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out (when non-nil),
// failing on any status but want.
func (a *apiClient) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

type statsBody struct {
	DecisionsTotal float64                `json:"decisions_total"`
	QueueDepth     int                    `json:"queue_depth"`
	Instances      []*serve.InstanceStats `json:"instances"`
}

func (a *apiClient) stats(ctx context.Context) (*statsBody, error) {
	var st statsBody
	return &st, a.do(ctx, http.MethodGet, "/v1/stats", nil, http.StatusOK, &st)
}

// buildSpecEnvs builds the environments of serve specs the way the service
// does, for the per-layer environment-build metric.
func buildSpecEnvs(specs []serve.Spec) error {
	for _, s := range specs {
		if err := s.Normalize(); err != nil {
			return err
		}
		if _, _, _, err := specEnv(s, rng.New(s.Seed)); err != nil {
			return err
		}
	}
	return nil
}

// finishServer is the tail every serve workload shares: CPU per round,
// peak RSS, graceful stop, and the offline replay audit.
func (w *run) finishServer(ctx context.Context, srv *serverProc, dir string, cpu time.Duration, rounds int64, instances int) error {
	if rounds > 0 {
		cpuMS := cpu.Seconds() * ms / float64(rounds) * 1e3
		if w.cfg.Trace {
			w.rec.set("proc.cpu_ms_per_kround", cpuMS)
		} else {
			w.rec.addExtra("proc.cpu_ms_per_kround", cpuMS, "ms")
		}
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	if !w.cfg.Trace {
		w.rec.set("peak_rss_mb", rss)
	}
	if _, err := srv.stop(); err != nil {
		return err
	}
	audit, err := runTool(ctx, w.cfg.NBandit, "serve", "-replay", "-dir", dir)
	if err != nil {
		w.rec.check("replay-bit-identical", false, "%v", err)
		return nil
	}
	want := fmt.Sprintf("serve: %d instance(s) re-derived bit-identically", instances)
	w.rec.check("replay-bit-identical", strings.Contains(string(audit.stdout), want), "nbandit serve -replay: %q", want)
	return nil
}

// serveEnv: four env-feedback instances — two SSO/DFL K=16, two CSR/DFL
// K=20 m=2 — with a long decision log prepared in-process; set-up is a
// server restart that replay-verifies those logs, and the load is a closed
// loop of serveConns callers deciding round-robin over the instances.
func serveEnv(ctx context.Context, w *run) error {
	seed := w.cfg.Seed
	var specs []serve.Spec
	for i := 0; i < 4; i++ {
		s := serve.Spec{
			ID: fmt.Sprintf("env-%d", i), Seed: subSeed(seed, uint64(20+i)),
			Scenario: "sso", Policy: "dfl", K: 16, Horizon: serveHorizon, Feedback: serve.FeedbackEnv,
		}
		if i >= 2 {
			s.Scenario, s.K, s.M = "csr", 20, 2
		}
		specs = append(specs, s)
	}
	dir, err := w.subdir("serve-env")
	if err != nil {
		return err
	}
	prepRounds := w.cfg.scaled(15000, 50)
	if err := prepareLogs(dir, specs, prepRounds); err != nil {
		return err
	}
	var logs []byte
	for _, s := range specs {
		raw, err := os.ReadFile(filepath.Join(dir, "instances", s.ID, serve.LogName))
		if err != nil {
			return err
		}
		logs = append(logs, raw...)
	}
	w.rec.exact["prep_log_sha256"] = sha(logs)
	w.rec.exact["prep_rounds"] = fmt.Sprint(prepRounds * len(specs))

	srv, _, setup, err := w.setupServers(ctx, 5, func(int) (string, error) { return dir, nil }, nil)
	if err != nil {
		return err
	}
	defer srv.kill()
	api := newAPIClient(srv.base, serveConns)
	defer api.close()
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		bodies[i] = []byte(fmt.Sprintf(`{"instance":%q}`, s.ID))
	}
	decide := func(tr *Tracer) Op {
		return func(ctx context.Context, i int64) error {
			t0 := time.Now()
			err := api.do(ctx, http.MethodPost, "/v1/decide", bodies[i%int64(len(bodies))], http.StatusOK, nil)
			if i%SampleEvery == 0 {
				tr.Add("net.decide", 0, 0, i, t0, time.Now())
			}
			return err
		}
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	d := w.cfg.measure()
	var served int64
	if !w.cfg.Trace {
		step := ClosedLoop(ctx, serveConns, d, decide(nil))
		served = step.Completed()
		w.res.Attempted, w.res.Failed = step.Attempted, step.Failed
		w.rec.set("setup_s", setup)
		w.setRate(step.windows(), float64(served), step.Wall.Seconds(), wholeRun)
		w.setLatency(step.windows(), ms, wholeRun)
		w.rec.addExtra("loadgen.cpu_frac", step.CPUFrac, "frac")
	} else {
		plain := ClosedLoop(ctx, serveConns, d/2, decide(nil))
		traced := ClosedLoop(ctx, serveConns, d/2, decide(w.tr))
		served = plain.Completed() + traced.Completed()
		w.res.Attempted = plain.Attempted + traced.Attempted
		w.res.Failed = plain.Failed + traced.Failed
		w.rec.set("trace.overhead_frac", 1-traced.completedPerS()/plain.completedPerS())
	}
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	st, err := api.stats(ctx)
	if err != nil {
		return err
	}
	var rounds int64
	for _, in := range st.Instances {
		rounds += int64(in.Round)
	}
	want := int64(prepRounds*len(specs)) + served
	w.rec.check("decisions-accounted", int64(st.DecisionsTotal) == served && rounds == want,
		"server counted %v decisions and %d closed rounds; %d served, %d expected", st.DecisionsTotal, rounds, served, want)
	if err := w.finishServer(ctx, srv, dir, cpu1-cpu0, served, len(specs)); err != nil {
		return err
	}
	if w.cfg.Trace {
		s, err := repeatMedian(5, func() error { return buildSpecEnvs(specs) })
		if err != nil {
			return err
		}
		w.rec.set("bandit.env_build_ms", s*ms)
		return runLadder(ctx, specs[0], w.cfg.Scale, w.dir, w.tr, w.rec)
	}
	return nil
}

// prepareLogs creates the instances in-process and decides rounds rounds
// on each, leaving their decision logs in dir.
func prepareLogs(dir string, specs []serve.Spec, rounds int) error {
	srv, err := serve.New(serve.Options{Dir: dir})
	if err != nil {
		return err
	}
	for _, s := range specs {
		if _, err := srv.CreateInstance(s); err != nil {
			srv.Kill()
			return err
		}
	}
	for r := 0; r < rounds; r++ {
		for _, s := range specs {
			if _, err := srv.Decide(s.ID); err != nil {
				srv.Kill()
				return err
			}
		}
	}
	return srv.Close()
}

// setupServers starts the server n times, the i-th over dirFor(i), runs
// create (when non-nil) once it answers, and keeps the last server
// running. Earlier servers are stopped gracefully. It returns the running
// server, its directory, and the median set-up time.
func (w *run) setupServers(ctx context.Context, n int, dirFor func(i int) (string, error), create func(*apiClient) error) (*serverProc, string, float64, error) {
	times := make([]float64, n)
	for i := 0; ; i++ {
		dir, err := dirFor(i)
		if err != nil {
			return nil, "", 0, err
		}
		t0 := time.Now()
		s, err := startServer(ctx, w.cfg.NBandit, dir)
		if err != nil {
			return nil, "", 0, err
		}
		if create != nil {
			api := newAPIClient(s.base, 1)
			err := create(api)
			api.close()
			if err != nil {
				s.kill()
				return nil, "", 0, err
			}
		}
		times[i] = time.Since(t0).Seconds()
		w.tr.Add("serve.setup", 0, 0, 0, t0, time.Now())
		if i == n-1 {
			return s, dir, Median(times), nil
		}
		if _, err := s.stop(); err != nil {
			return nil, "", 0, err
		}
	}
}

// serveClient: eight client-feedback instances — four CSO/DFL Bernoulli,
// four CSO/LinUCB linear (d=4) — driven by rounds of a decide followed by a
// feedback POST. Latency is measured in an open loop at refRate rounds per
// second, timed from each round's due time; throughput is the capacity of
// a closed loop of serveConns callers.
func serveClient(ctx context.Context, w *run) error {
	const refRate = 2000
	seed := w.cfg.Seed
	var specs []serve.Spec
	for i := 0; i < 8; i++ {
		s := serve.Spec{
			ID: fmt.Sprintf("client-%d", i), Seed: subSeed(seed, uint64(30+i)),
			Scenario: "cso", Policy: "dfl", K: 20, M: 2, Horizon: serveHorizon, Feedback: serve.FeedbackClient,
		}
		if i >= 4 {
			s.Policy, s.RewardModel, s.D = "linucb", serve.RewardLinear, 4
		}
		specs = append(specs, s)
	}
	hashes := ""
	for _, s := range specs {
		n := s
		if err := n.Normalize(); err != nil {
			return err
		}
		hashes += n.Hash()
	}
	w.rec.exact["spec_hashes_sha256"] = sha([]byte(hashes))

	srv, dir, setup, err := w.setupServers(ctx, 9, func(i int) (string, error) {
		return w.subdir(fmt.Sprintf("serve-client-%d", i))
	}, func(api *apiClient) error {
		for _, s := range specs {
			raw, err := json.Marshal(s)
			if err != nil {
				return err
			}
			if err := api.do(ctx, http.MethodPost, "/v1/instances", raw, http.StatusCreated, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.kill()
	api := newAPIClient(srv.base, serveConns)
	defer api.close()
	cr := newClientRounds(api, seed, specs)

	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	d := w.cfg.measure()
	open := func(rate float64, dur time.Duration, label uint64, tr *Tracer) StepResult {
		return OpenLoop{Rate: rate, Duration: dur, Conns: serveConns, Seed: subSeed(seed, label), Grace: time.Second}.
			Run(ctx, cr.op(tr, label))
	}
	// The warm-up step opens connections and fills caches and instance
	// state; it counts toward attempted and failed, not toward any metric.
	all := []StepResult{open(refRate, d/10, 1, nil)}
	if !w.cfg.Trace {
		ref := open(refRate, d/2, 2, nil)
		capacity := ClosedLoop(ctx, serveConns, d*4/10, cr.op(nil, 3))
		all = append(all, ref, capacity)
		w.rec.set("setup_s", setup)
		w.setRate(capacity.windows(), float64(capacity.Completed()), capacity.Wall.Seconds(), wholeRun)
		w.setLatency(ref.windows(), ms, wholeRun)
		w.rec.addExtraPct("loadgen.lag_p90_ms", NearestRank(ref.Lags(), 90), ms, "ms")
		w.rec.addExtraPct("loadgen.lag_p99_ms", NearestRank(ref.Lags(), 99), ms, "ms")
		w.rec.addExtra("loadgen.cpu_frac", ref.CPUFrac, "frac")
	} else {
		plain := ClosedLoop(ctx, serveConns, d/4, cr.op(nil, 3))
		traced := ClosedLoop(ctx, serveConns, d/4, cr.op(w.tr, 4))
		all = append(all, plain, traced)
		w.rec.set("trace.overhead_frac", 1-traced.completedPerS()/plain.completedPerS())
		steps := w.rateLadder(open, d/10)
		all = append(all, steps...)
	}
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	var rounds int64
	for _, s := range all {
		w.res.Attempted += s.Attempted
		w.res.Failed += s.Failed
		rounds += s.Completed()
	}
	if err := cr.checkFeedback(ctx, w); err != nil {
		return err
	}
	if err := w.finishServer(ctx, srv, dir, cpu1-cpu0, rounds, len(specs)); err != nil {
		return err
	}
	if w.cfg.Trace {
		s, err := repeatMedian(5, func() error { return buildSpecEnvs(specs) })
		if err != nil {
			return err
		}
		w.rec.set("bandit.env_build_ms", s*ms)
		return runLadder(ctx, specs[0], w.cfg.Scale, w.dir, w.tr, w.rec)
	}
	return nil
}

// ladderRates are the open-loop rates (rounds per second) of the traced
// serve_client rate ladder; each is 1.5× the previous.
var ladderRates = []float64{1000, 1500, 2250, 3375, 5000, 7500}

// clientLimitMS is serve_client's latency limit on the p90 round latency.
const clientLimitMS = 10

// maxLagMS is the generator lag p90 above which a step is invalid: the
// connections were saturated, so arrivals no longer went out on schedule.
const maxLagMS = 1

// rateLadder runs one open-loop step per ladder rate and reports, per
// step, the p90 of latency and of generator lag and the CPU share, plus
// the highest valid rate that met the latency limit.
func (w *run) rateLadder(open func(float64, time.Duration, uint64, *Tracer) StepResult, step time.Duration) []StepResult {
	var out []StepResult
	best := 0.0
	for i, rate := range ladderRates {
		res := open(rate, step, uint64(10+i), w.tr)
		out = append(out, res)
		p90 := NearestRank(res.Latencies(), 90)
		lag := NearestRank(res.Lags(), 90)
		tag := fmt.Sprintf(".r%d", int(rate))
		w.rec.addExtraPct("loadgen.p90_ms"+tag, p90, ms, "ms")
		w.rec.addExtraPct("loadgen.lag_p90_ms"+tag, lag, ms, "ms")
		w.rec.addExtra("loadgen.cpu_frac"+tag, res.CPUFrac, "frac")
		if p90.Value*ms <= clientLimitMS && lag.Value*ms <= maxLagMS && res.Failed == 0 {
			best = rate
		}
	}
	w.rec.addExtra("loadgen.max_rate_per_s", best, "1/s")
	return out
}

// clientRounds issues client-feedback rounds and accounts for them. It
// spends as little CPU per round as it can, since it shares the host's
// cores with the server it measures.
type clientRounds struct {
	api      *apiClient
	seed     uint64
	specs    []serve.Spec
	decide   [][]byte       // decide request body per instance
	last     []atomic.Int64 // highest round served per instance
	decides  atomic.Int64
	reopens  atomic.Int64
	accepted atomic.Int64
}

func newClientRounds(api *apiClient, seed uint64, specs []serve.Spec) *clientRounds {
	c := &clientRounds{api: api, seed: seed, specs: specs, last: make([]atomic.Int64, len(specs))}
	for _, s := range specs {
		c.decide = append(c.decide, []byte(fmt.Sprintf(`{"instance":%q}`, s.ID)))
	}
	return c
}

// openRound is the part of a client-mode decision a round needs.
type openRound struct {
	T           int    `json:"t"`
	Action      int    `json:"action"`
	Closure     []int  `json:"closure"`
	Open        bool   `json:"open"`
	ContextHash string `json:"context_hash"`
}

// op returns the round operation; label separates the instance choice of
// different steps.
func (c *clientRounds) op(tr *Tracer, label uint64) Op {
	return func(ctx context.Context, i int64) error {
		t0 := time.Now()
		err := c.round(ctx, subSeed(c.seed, label<<32|uint64(i)))
		if i%SampleEvery == 0 {
			tr.Add("loadgen.round", 0, 0, i, t0, time.Now())
		}
		return err
	}
}

// round plays one round for the instance key picks: decide, then feedback
// whose values are a pure function of (seed, instance, t, arm).
func (c *clientRounds) round(ctx context.Context, key uint64) error {
	inst := int(key % uint64(len(c.specs)))
	id := c.specs[inst].ID
	var dec openRound
	if err := c.api.do(ctx, http.MethodPost, "/v1/decide", c.decide[inst], http.StatusOK, &dec); err != nil {
		return err
	}
	c.decides.Add(1)
	if !dec.Open {
		return fmt.Errorf("client-mode decision for %s round %d is not open", id, dec.T)
	}
	// A decide that returns a round another caller already holds open is a
	// reopen; its feedback will be counted stale by the instance.
	for {
		prev := c.last[inst].Load()
		if int64(dec.T) <= prev {
			c.reopens.Add(1)
			break
		}
		if c.last[inst].CompareAndSwap(prev, int64(dec.T)) {
			break
		}
	}
	// The body is serve.FeedbackItem's wire form, written by hand; every
	// value is 0 or 1.
	raw := make([]byte, 0, 160)
	raw = append(raw, `{"items":[{"instance":`...)
	raw = strconv.AppendQuote(raw, id)
	raw = append(raw, `,"t":`...)
	raw = strconv.AppendInt(raw, int64(dec.T), 10)
	raw = append(raw, `,"action":`...)
	raw = strconv.AppendInt(raw, int64(dec.Action), 10)
	raw = append(raw, `,"values":[`...)
	for j, arm := range dec.Closure {
		if j > 0 {
			raw = append(raw, ',')
		}
		raw = strconv.AppendUint(raw, subSeed(c.seed, uint64(inst)<<48|uint64(dec.T)<<16|uint64(arm))&1, 10)
	}
	raw = append(raw, ']')
	if dec.ContextHash != "" {
		raw = append(raw, `,"context_hash":`...)
		raw = strconv.AppendQuote(raw, dec.ContextHash)
	}
	raw = append(raw, `}]}`...)
	var ack struct{ Accepted, Rejected int }
	if err := c.api.do(ctx, http.MethodPost, "/v1/feedback", raw, http.StatusAccepted, &ack); err != nil {
		return err
	}
	if ack.Accepted != 1 {
		return fmt.Errorf("feedback for %s round %d refused", id, dec.T)
	}
	c.accepted.Add(1)
	return nil
}

// checkFeedback waits for the ingest queue to drain, then checks that
// every accepted feedback item was classified exactly once, none of them
// as a mismatch or invalid.
func (c *clientRounds) checkFeedback(ctx context.Context, w *run) error {
	accepted := c.accepted.Load()
	var st *statsBody
	var applied, stale, mismatch, invalid uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		if st, err = c.api.stats(ctx); err != nil {
			return err
		}
		applied, stale, mismatch, invalid = 0, 0, 0, 0
		for _, in := range st.Instances {
			applied += in.FeedbackApplied
			stale += in.FeedbackStale
			mismatch += in.FeedbackMismatch
			invalid += in.FeedbackInvalid
		}
		if int64(applied+stale+mismatch+invalid) >= accepted || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	classified := int64(applied + stale + mismatch + invalid)
	w.rec.check("feedback-accounted", classified == accepted && mismatch == 0 && invalid == 0,
		"accepted %d = applied %d + stale %d + mismatch %d + invalid %d", accepted, applied, stale, mismatch, invalid)
	w.rec.addExtra("serve.feedback_applied", float64(applied), "count")
	w.rec.addExtra("serve.feedback_stale", float64(stale), "count")
	w.rec.addExtra("serve.feedback_mismatch", float64(mismatch), "count")
	w.rec.addExtra("serve.feedback_invalid", float64(invalid), "count")
	if n := c.decides.Load(); n > 0 {
		w.rec.addExtra("serve.reopen_frac", float64(c.reopens.Load())/float64(n), "frac")
	}
	return nil
}
