// Package bench is the repository benchmark: five workloads over the
// in-process sweep engine, the sharded job runner and the decision
// service, each reporting the end-to-end metrics of BENCHMARK.json
// untraced and the per-layer metrics traced. See README.md.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Config selects and sizes one benchmark run.
type Config struct {
	// Workload names one entry of Workloads.
	Workload string
	// Seed makes every input of the run; the same seed gives the same
	// inputs.
	Seed uint64
	// Seconds is how long the run measures at Scale 1.
	Seconds float64
	// Trace selects the traced run: per-layer metrics, spans, the layer
	// ladder, and the tracing overhead.
	Trace bool
	// Scale multiplies the measured time and the per-pass sizes; the smoke
	// test runs at 0.01. Pinned output hashes are checked only at 1.
	Scale float64
	// NBandit is the nbandit binary the shard and serve workloads exec.
	NBandit string
	// Work is a scratch directory for job directories and server data; the
	// run removes what it creates there.
	Work string
}

// measure is the measured duration of the run.
func (c Config) measure() time.Duration {
	return time.Duration(c.Seconds * c.Scale * float64(time.Second))
}

// scaled returns base × Scale, at least lo.
func (c Config) scaled(base, lo int) int {
	return atLeast(int(math.Round(float64(base)*c.Scale)), lo)
}

// Workload is one traffic mix the benchmark runs. Why each was chosen is
// in BENCHMARK.json and README.md.
type Workload struct {
	Name string
	run  func(ctx context.Context, w *run) error
}

// Workloads lists every workload in the order "all" runs them.
var Workloads = []Workload{
	{"sweep_single", sweepSingle},
	{"sweep_combo", sweepCombo},
	{"shard_grid", shardGrid},
	{"serve_env", serveEnv},
	{"serve_client", serveClient},
}

// run is the state of one workload run.
type run struct {
	cfg Config
	rec *recorder
	tr  *Tracer // nil when untraced
	dir string  // private scratch directory
	res *Result
}

// Run executes one workload and checks its outputs. The returned error
// reports a run that could not measure at all; failed correctness checks
// are reported through Result.Oracles instead.
func Run(ctx context.Context, cfg Config) (*Result, *Tracer, error) {
	var wl *Workload
	for i := range Workloads {
		if Workloads[i].Name == cfg.Workload {
			wl = &Workloads[i]
		}
	}
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Seconds <= 0 {
		return nil, nil, fmt.Errorf("seconds must be positive, got %g", cfg.Seconds)
	}
	dir, err := os.MkdirTemp(cfg.Work, cfg.Workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	w := &run{
		cfg: cfg, rec: newRecorder(), dir: dir,
		res: &Result{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Seconds: cfg.Seconds, Scale: cfg.Scale},
	}
	if cfg.Trace {
		w.tr = NewTracer()
	}
	t0 := time.Now()
	if err := wl.run(ctx, w); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	w.res.WallS = time.Since(t0).Seconds()
	if w.tr != nil {
		w.selfTimes()
	}
	defs := EndToEnd
	if cfg.Trace {
		defs = PerLayer
	}
	metrics, err := w.rec.ordered(defs)
	if err != nil {
		w.rec.check("metrics-complete", false, "%v", err)
	} else {
		w.rec.check("metrics-complete", true, "%d contract metrics recorded", len(metrics))
	}
	// JSON has no spelling for NaN or ±Inf, and a metric without a finite
	// value means the run did not measure what it claims: it fails.
	finite := true
	for i := range metrics {
		if math.IsNaN(metrics[i].Value) || math.IsInf(metrics[i].Value, 0) {
			finite = false
			metrics[i].Value = -1
		}
	}
	w.rec.check("metrics-finite", finite, "every contract metric has a finite value: %v", finite)
	w.res.Metrics = metrics
	w.res.Extra = w.rec.extra
	w.res.Exact = w.rec.exact
	w.res.Oracles = w.rec.oracles
	return w.res, w.tr, nil
}

// selfTimes records the summed self time of each span name that has
// child spans: passes, shard jobs and runs. Replication spans are left
// out: their only children are sampled policy calls, so their self time
// would be mostly the unsampled calls.
func (w *run) selfTimes() {
	spans := w.tr.Spans()
	self := SelfTimes(spans)
	byID := make(map[int64]string, len(spans))
	for _, s := range spans {
		byID[s.ID] = s.Name
	}
	parents := make(map[string]bool)
	for _, s := range spans {
		if name, ok := byID[s.Parent]; ok && name != "sim.replication" {
			parents[name] = true
		}
	}
	names := make([]string, 0, len(parents))
	for name := range parents {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w.rec.addExtra("self_ms."+name, float64(self[name].Nanoseconds())/1e6, "ms")
	}
}

// subSeed derives an independent 64-bit seed for the given label
// (SplitMix64 over the run seed).
func subSeed(seed, label uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// repeatMedian runs f n times and returns the median duration in seconds.
func repeatMedian(n int, f func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = time.Since(t0).Seconds()
	}
	return Median(xs), nil
}

// ms converts a sample in seconds to milliseconds.
const ms = 1e3

// Where a workload takes its contract throughput and latency from: the
// whole run, or its best windows. The other reading is printed as extras
// named "best.*" or "all.*". Why each workload uses which is in README.md.
const (
	wholeRun    = false
	bestWindows = true
)

// setRate records the end-to-end throughput: all the work over all the
// measured time, or the best window's rate.
func (w *run) setRate(ws []window, work, seconds float64, fromBest bool) {
	whole, best := work/seconds, bestRate(ws)
	if fromBest {
		w.rec.set("rounds_per_s", best)
		w.rec.addExtra("all.rounds_per_s", whole, "1/s")
	} else {
		w.rec.set("rounds_per_s", whole)
		w.rec.addExtra("best.rounds_per_s", best, "1/s")
	}
}

// setLatency records the end-to-end latency percentiles over every sample
// of the run or over its best windows, the other reading as extras, and
// the whole run's p99 as an extra; scale turns samples into milliseconds.
// Why the tail metric is the p90 is in README.md.
func (w *run) setLatency(ws []window, scale float64, fromBest bool) {
	all := pooled(ws)
	for _, p := range []float64{50, 90} {
		name := fmt.Sprintf("latency_p%g_ms", p)
		whole, best := NearestRank(all, p), bestPct(ws, p)
		if fromBest {
			w.rec.setPct(name, best, scale)
			w.rec.addExtraPct("all."+name, whole, scale, "ms")
		} else {
			w.rec.setPct(name, whole, scale)
			w.rec.addExtraPct("best."+name, best, scale, "ms")
		}
	}
	w.rec.addExtraPct("all.latency_p99_ms", NearestRank(all, 99), scale, "ms")
}

// subdir creates a fresh directory under the run's scratch directory.
func (w *run) subdir(name string) (string, error) {
	d := filepath.Join(w.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
