package bench

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// The smoke test runs every workload at 1% scale: twice untraced (the
// end-to-end metrics, and exact counts and hashes that must repeat under
// one seed) and once traced (the per-layer metrics). It checks the emitted
// metrics against BENCHMARK.json at the repository root.

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkDefs is the part of BENCHMARK.json the benchmark code mirrors;
// MetricDef's fields match the "name" and "unit" keys.
type benchmarkDefs struct {
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
	Work     []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readDefs(t *testing.T) benchmarkDefs {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDefs
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	d := readDefs(t)
	same := func(what string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: code lists %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", EndToEnd, d.EndToEnd)
	same("per_layer", PerLayer, d.PerLayer)
	if len(d.Work) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, code %d", len(d.Work), len(Workloads))
	}
	for i, w := range d.Work {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, Workloads[i].Name)
		}
	}
}

func buildNBandit(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nbandit")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nbandit")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building nbandit: %v\n%s", err, out)
	}
	return bin
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDefs(t)
	bin := buildNBandit(t)
	for _, wl := range Workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			run := func(trace bool) *Result {
				res, _, err := Run(context.Background(), Config{
					Workload: wl.Name, Seed: 3, Seconds: 10, Scale: 0.01, Trace: trace,
					NBandit: bin, Work: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct() {
					t.Fatalf("oracles failed: %+v", res.Oracles)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				return res
			}
			a := run(false)
			checkEmitted(t, a, d.EndToEnd)
			b := run(false)
			if len(a.Exact) == 0 {
				t.Fatal("no exact counts or hashes recorded")
			}
			for k, v := range a.Exact {
				if b.Exact[k] != v {
					t.Errorf("exact %s: %q then %q under one seed", k, v, b.Exact[k])
				}
			}
			checkEmitted(t, run(true), d.PerLayer)
		})
	}
}

// checkEmitted asserts that res carries exactly the metrics defs names,
// each once with its declared unit, and that every name it prints is
// well formed.
func checkEmitted(t *testing.T, res *Result, defs []MetricDef) {
	t.Helper()
	seen := make(map[string]int)
	for _, m := range res.Metrics {
		seen[m.Name]++
	}
	for _, d := range defs {
		if seen[d.Name] != 1 {
			t.Errorf("metric %s emitted %d times", d.Name, seen[d.Name])
		}
	}
	units := make(map[string]string)
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	for _, m := range res.Metrics {
		if units[m.Name] != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(defs))
	}
	printed := make(map[string]bool)
	for _, m := range append(append([]Metric(nil), res.Metrics...), res.Extra...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if printed[m.Name] {
			t.Errorf("metric name %q printed twice", m.Name)
		}
		printed[m.Name] = true
	}
}
