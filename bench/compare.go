package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Bound is one end-to-end metric's regression rule from BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end metrics of a BENCHMARK.json file.
func LoadBounds(path string) ([]Bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.EndToEnd, nil
}

// LoadRuns reads every results.json under dir, in path order, and returns
// the untraced runs grouped by workload.
func LoadRuns(dir string) (map[string][]*Result, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == "results.json" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make(map[string][]*Result)
	for _, p := range paths {
		f, err := ReadResults(p)
		if err != nil {
			return nil, err
		}
		for _, r := range f.Runs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

// MinPairs is the fewest parent/change pairs a comparison accepts.
const MinPairs = 10

// Verdict is the comparison of one end-to-end metric on one workload.
type Verdict struct {
	Workload, Metric string
	Pairs            int
	// Parent and Change are each side's first quartile, median and third
	// quartile.
	Parent, Change [3]float64
	// Wins and Losses count pairs the change read better or worse than
	// the parent; ties count for neither.
	Wins, Losses int
	Verdict      string
}

// Compare applies the pairwise rule to every end-to-end metric of every
// workload both sides ran. Pairs are formed in run order, so the runs
// should alternate which side goes first. A gain needs the change to win
// at least nine tenths of the pairs and its median to differ from the
// parent's by more than the parent's interquartile range. A regression is
// a change median worse than the parent's by more than the metric's
// tolerance: its bound times the parent's median, or its absolute floor
// when that is larger. Where either side's interquartile range exceeds
// its own median's tolerance, the metric is unresolved, unless every
// change run reads better than every parent run.
func Compare(parent, change map[string][]*Result, bounds []Bound) ([]Verdict, error) {
	var workloads []string
	for wl := range parent {
		if len(change[wl]) > 0 {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return nil, fmt.Errorf("no workload has runs on both sides")
	}
	var out []Verdict
	for _, wl := range workloads {
		ps, cs := parent[wl], change[wl]
		n := len(ps)
		if len(cs) < n {
			n = len(cs)
		}
		if n < MinPairs {
			return nil, fmt.Errorf("%s: %d pairs, need at least %d", wl, n, MinPairs)
		}
		for _, b := range bounds {
			pv, cv := metricValues(ps[:n], b.Name), metricValues(cs[:n], b.Name)
			if len(pv) != n || len(cv) != n {
				return nil, fmt.Errorf("%s: metric %s missing from some runs", wl, b.Name)
			}
			out = append(out, judge(wl, b, pv, cv))
		}
	}
	return out, nil
}

func metricValues(runs []*Result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// absFloor is, per metric, the smallest worsening (in the metric's unit)
// that can count as a regression however small the parent's median: a
// relative bound on a set-up of a millisecond, or a latency of a tenth of
// one, would otherwise judge timer and scheduler jitter. The latency floor
// of the p90 is the one meant for the p99 it replaced.
var absFloor = map[string]float64{
	"setup_s":        0.05,
	"latency_p50_ms": 0.02,
	"latency_p90_ms": 0.05,
}

// tolerance is how far a metric may move from a median before the move
// counts: its bound as a share of the median, or its absolute floor when
// that is larger.
func tolerance(b Bound, median float64) float64 {
	return math.Max(b.Bound*math.Abs(median), absFloor[b.Name])
}

func judge(workload string, b Bound, pv, cv []float64) Verdict {
	v := Verdict{Workload: workload, Metric: b.Name, Pairs: len(pv)}
	better := func(x, y float64) bool {
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range pv {
		switch {
		case better(cv[i], pv[i]):
			v.Wins++
		case better(pv[i], cv[i]):
			v.Losses++
		}
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
		}
	}
	p1, p2, p3 := Quartiles(pv)
	c1, c2, c3 := Quartiles(cv)
	v.Parent, v.Change = [3]float64{p1, p2, p3}, [3]float64{c1, c2, c3}
	worse := c2 - p2
	if b.Better == "higher" {
		worse = -worse
	}
	switch {
	case (p3-p1 > tolerance(b, p2) || c3-c1 > tolerance(b, c2)) && !allBetter:
		v.Verdict = "unresolved"
	case worse > tolerance(b, p2):
		v.Verdict = "regression"
	case float64(v.Wins) >= 0.9*float64(v.Pairs) && -worse > p3-p1:
		v.Verdict = "gain"
	default:
		v.Verdict = "no regression"
	}
	return v
}

// WriteVerdicts prints one row per workload and metric.
func WriteVerdicts(w io.Writer, vs []Verdict) {
	fmt.Fprintf(w, "%-13s %-15s %5s %-32s %-32s %9s %s\n", "workload", "metric", "pairs",
		"parent q1/median/q3", "change q1/median/q3", "wins/loss", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-13s %-15s %5d %-32s %-32s %4d/%-4d %s\n", v.Workload, v.Metric, v.Pairs,
			quartileText(v.Parent), quartileText(v.Change), v.Wins, v.Losses, v.Verdict)
	}
}

func quartileText(q [3]float64) string {
	return fmt.Sprintf("%s/%s/%s", formatValue(q[0]), formatValue(q[1]), formatValue(q[2]))
}
