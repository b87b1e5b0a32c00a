package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// MetricDef names one contract metric and its unit. The lists below must
// match BENCHMARK.json at the repository root; the smoke test checks that
// every metric named there is emitted exactly once with its declared unit.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd are the metrics an untraced run reports on every workload.
// Their per-workload meaning is documented in README.md.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"rounds_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// PerLayer are the metrics a traced run reports on every workload: the
// layer ladder measured on the workload's own instance spec, plus the
// workload's environment build, CPU cost and tracing overhead.
var PerLayer = []MetricDef{
	{"bandit.env_build_ms", "ms"},
	{"bandit.sample_ns", "ns"},
	{"policy.select_ns", "ns"},
	{"policy.update_ns", "ns"},
	{"sim.step_ns", "ns"},
	{"sim.runner_self_ns", "ns"},
	{"sim.step_allocs", "allocs"},
	{"serve.decide_ns", "ns"},
	{"serve.mailbox_log_self_ns", "ns"},
	{"serve.decide_allocs", "allocs"},
	{"serve.handler_ns", "ns"},
	{"serve.http_self_ns", "ns"},
	{"serve.handler_allocs", "allocs"},
	{"net.loopback_ns", "ns"},
	{"net.self_ns", "ns"},
	{"net.loopback_allocs", "allocs"},
	{"serve.feedback_apply_us_p50", "us"},
	{"serve.feedback_apply_us_p99", "us"},
	{"serve.snapshot_ms", "ms"},
	{"serve.replay_us_per_round", "us"},
	{"serve.log_bytes_per_round", "B"},
	{"proc.cpu_ms_per_kround", "ms"},
	{"trace.overhead_frac", "frac"},
}

// Metric is one named measurement. N and Beyond are set on percentiles:
// the sample size and the number of samples ranked above the percentile.
type Metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
}

// Oracle is one correctness check of a run's outputs.
type Oracle struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is everything one workload run measured and checked.
type Result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Scale    float64 `json:"scale"`
	// Attempted and Failed count the workload's operations (replications,
	// shard cells, decide requests or client rounds; see README.md).
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Metrics are the contract metrics: EndToEnd untraced, PerLayer traced.
	Metrics []Metric `json:"metrics"`
	// Extra are the workload's own measurements outside the contract set.
	Extra []Metric `json:"extra,omitempty"`
	// Exact are counts and output hashes that repeat exactly for a given
	// seed and scale, whatever the timing.
	Exact   map[string]string `json:"exact"`
	Oracles []Oracle          `json:"oracles"`
	WallS   float64           `json:"wall_s"`
}

// Correct reports whether the run checked its outputs and every check
// passed.
func (r *Result) Correct() bool {
	if len(r.Oracles) == 0 {
		return false
	}
	for _, o := range r.Oracles {
		if !o.OK {
			return false
		}
	}
	return true
}

// recorder accumulates a run's measurements while a workload executes.
type recorder struct {
	contract map[string]Metric
	extra    []Metric
	exact    map[string]string
	oracles  []Oracle
}

func newRecorder() *recorder {
	return &recorder{contract: make(map[string]Metric), exact: make(map[string]string)}
}

// set records a contract metric; the unit comes from the contract lists.
func (rc *recorder) set(name string, v float64) {
	rc.contract[name] = Metric{Name: name, Value: v}
}

// setPct records a contract percentile with its sample counts.
func (rc *recorder) setPct(name string, p Pct, scale float64) {
	rc.contract[name] = Metric{Name: name, Value: p.Value * scale, N: p.N, Beyond: p.Beyond}
}

// extra records a workload-specific measurement.
func (rc *recorder) addExtra(name string, v float64, unit string) {
	rc.extra = append(rc.extra, Metric{Name: name, Value: v, Unit: unit})
}

func (rc *recorder) addExtraPct(name string, p Pct, scale float64, unit string) {
	rc.extra = append(rc.extra, Metric{Name: name, Value: p.Value * scale, Unit: unit, N: p.N, Beyond: p.Beyond})
}

// check records an oracle outcome.
func (rc *recorder) check(name string, ok bool, format string, args ...any) {
	rc.oracles = append(rc.oracles, Oracle{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// ordered returns the contract metrics in list order with their declared
// units, and an error naming any metric the workload failed to record or
// recorded outside the list.
func (rc *recorder) ordered(defs []MetricDef) ([]Metric, error) {
	var out []Metric
	var missing []string
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		seen[d.Name] = true
		m, ok := rc.contract[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		m.Unit = d.Unit
		out = append(out, m)
	}
	var stray []string
	for name := range rc.contract {
		if !seen[name] {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	if len(missing) > 0 || len(stray) > 0 {
		return out, fmt.Errorf("metrics missing %v, unexpected %v", missing, stray)
	}
	return out, nil
}

// WriteLines prints every metric as `workload metric value unit`, with
// sample counts after percentiles, then every oracle outcome.
func WriteLines(w io.Writer, r *Result) {
	line := func(m Metric) {
		fmt.Fprintf(w, "%s %s %s %s", r.Workload, m.Name, formatValue(m.Value), m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d beyond=%d", m.N, m.Beyond)
		}
		fmt.Fprintln(w)
	}
	for _, m := range r.Metrics {
		line(m)
	}
	for _, m := range r.Extra {
		line(m)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, o := range r.Oracles {
		status := "ok"
		if !o.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s oracle %s %s %s\n", r.Workload, o.Name, status, o.Detail)
	}
}

func formatValue(v float64) string {
	return strings.TrimSpace(fmt.Sprintf("%.6g", v))
}

// contractLine is the one-line summary the benchmark prints last.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ContractJSON renders runs as the final summary line. One run reports its
// metrics by name; several (the "all" workload) prefix each name with its
// workload.
func ContractJSON(runs []*Result) ([]byte, error) {
	out := contractLine{Correct: len(runs) > 0, Metrics: make(map[string]metricValue)}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(runs) > 1 {
				name = r.Workload + "." + m.Name
			}
			out.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	return json.Marshal(out)
}

// Meta describes where a results file was measured.
type Meta struct {
	CPU       string `json:"cpu"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Rev       string `json:"rev"`
	Time      string `json:"time"`
}

// HostMeta collects the host description for a results file, with the
// source revision of the repository at root.
func HostMeta(root string) Meta {
	return Meta{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Rev: gitRev(root),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRev describes the commit checked out at root, as `git describe
// --always --dirty` does, or returns "unknown" outside a git work tree.
// The search for a repository stops at root, so a checkout without one
// never reads a parent directory's.
func gitRev(root string) string {
	if root == "" {
		return "unknown"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ResultsFile is the schema of results.json.
type ResultsFile struct {
	Meta Meta      `json:"meta"`
	Runs []*Result `json:"runs"`
}

// WriteResults writes dir/results.json.
func WriteResults(dir string, f *ResultsFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(raw, '\n'), 0o644)
}

// ReadResults loads a results.json file.
func ReadResults(path string) (*ResultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
