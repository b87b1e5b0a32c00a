// Command nbbench runs the repository benchmark. One workload:
//
//	nbbench -workload sweep_single -seed 1 -seconds 10 -trace 0 -out results
//
// prints every metric as `workload metric value unit`, every correctness
// oracle, and last one JSON line with the run's verdict and contract
// metrics; it exits non-zero when any oracle fails. -out DIR also writes
// DIR/results.json and, when traced, DIR/trace.json (Chrome trace-event
// format). -workload all runs the five workloads in turn, each in a fresh
// process, with results under DIR/<workload>/.
//
//	nbbench compare -parent A -change B
//
// compares two sets of runs (every results.json under A and under B,
// paired in path order) by the rule in README.md.
//
// bench/run.sh builds this command and nbandit from source and runs it;
// see bench/README.md.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"netbandit/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	os.Exit(runBench(os.Args[1:]))
}

// perWorkloadTimeout bounds one workload run, builds excluded.
const perWorkloadTimeout = 170 * time.Second

func runBench(args []string) int {
	fs := flag.NewFlagSet("nbbench", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(names(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input of the run is made from")
	seconds := fs.Float64("seconds", 20, "seconds each workload measures")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans, layer ladder; 0 = end-to-end metrics")
	scale := fs.Float64("scale", 1, "multiplier on measured time and per-pass sizes (pinned hashes are checked only at 1)")
	nbandit := fs.String("nbandit", "", "nbandit binary for the shard and serve workloads (default: build it from the enclosing repository)")
	work := fs.String("work", "", "scratch directory (default: a new temporary directory)")
	out := fs.String("out", "", "directory for results.json and trace.json (default: none; with -workload all, one subdirectory per workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "nbbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *work == "" {
		dir, err := os.MkdirTemp("", "nbbench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbbench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		*work = dir
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nbbench:", err)
		return 1
	}
	if *nbandit == "" {
		bin, err := buildNBandit(ctx, *work)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbbench: building nbandit:", err)
			return 1
		}
		*nbandit = bin
	}
	if *workload == "all" {
		return runAll(ctx, *out, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*trace), "-scale", fmt.Sprint(*scale), "-nbandit", *nbandit,
			"-work", *work)
	}

	wctx, cancel := context.WithTimeout(ctx, perWorkloadTimeout)
	res, tr, err := bench.Run(wctx, bench.Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Scale: *scale, NBandit: *nbandit, Work: *work,
	})
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench:", err)
		return 1
	}
	bench.WriteLines(os.Stdout, res)
	if *out != "" {
		root, _ := repoRoot()
		if err := bench.WriteResults(*out, &bench.ResultsFile{Meta: bench.HostMeta(root), Runs: []*bench.Result{res}}); err != nil {
			fmt.Fprintln(os.Stderr, "nbbench:", err)
			return 1
		}
		if err := tr.WriteChrome(filepath.Join(*out, "trace.json"), *workload); err != nil {
			fmt.Fprintln(os.Stderr, "nbbench:", err)
			return 1
		}
	}
	return summarize([]*bench.Result{res})
}

// summarize prints the final summary line and returns the exit status.
func summarize(runs []*bench.Result) int {
	line, err := bench.ContractJSON(runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench:", err)
		return 1
	}
	fmt.Println(string(line))
	for _, r := range runs {
		if !r.Correct() {
			return 1
		}
	}
	return 0
}

// runAll runs every workload in a fresh nbbench process of its own, so no
// workload inherits another's heap, and peak-RSS readings stay each
// workload's. It relays their lines, writes each workload's results under
// out/<workload>/, and prints one summary over all of them.
func runAll(ctx context.Context, out string, flags ...string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench:", err)
		return 1
	}
	if out == "" {
		dir, err := os.MkdirTemp("", "nbbench-out-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbbench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		out = dir
	}
	var runs []*bench.Result
	for _, name := range names() {
		dir := filepath.Join(out, name)
		cmd := exec.CommandContext(ctx, self, append([]string{"-workload", name, "-out", dir}, flags...)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		// The child's last line is its own summary; the combined one follows.
		if i := strings.LastIndexByte(strings.TrimRight(string(stdout), "\n"), '\n'); i >= 0 {
			fmt.Println(string(stdout[:i]))
		}
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			fmt.Fprintln(os.Stderr, "nbbench:", err)
			return 1
		}
		f, rerr := bench.ReadResults(filepath.Join(dir, "results.json"))
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "nbbench: %s: %v (%v)\n", name, rerr, err)
			return 1
		}
		runs = append(runs, f.Runs...)
	}
	return summarize(runs)
}

func names() []string {
	var out []string
	for _, w := range bench.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// buildNBandit builds cmd/nbandit of the enclosing repository into dir.
// The build is not part of any measurement.
func buildNBandit(ctx context.Context, dir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "nbandit")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/nbandit")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%w: %s", err, out)
	}
	return bin, nil
}

// repoRoot walks up from the working directory to the go.mod of module
// netbandit.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(f)
			first := sc.Scan() && strings.TrimSpace(sc.Text()) == "module netbandit"
			f.Close()
			if first {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing netbandit module; pass -nbandit")
		}
		dir = parent
	}
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("nbbench compare", flag.ExitOnError)
	parent := fs.String("parent", "", "directory of the parent commit's runs (every results.json below it)")
	change := fs.String("change", "", "directory of the change's runs")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json with the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "nbbench compare: -parent and -change are required")
		return 2
	}
	bounds, err := bench.LoadBounds(*benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench compare:", err)
		return 1
	}
	p, err := bench.LoadRuns(*parent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench compare:", err)
		return 1
	}
	c, err := bench.LoadRuns(*change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench compare:", err)
		return 1
	}
	verdicts, err := bench.Compare(p, c, bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench compare:", err)
		return 1
	}
	bench.WriteVerdicts(os.Stdout, verdicts)
	for _, v := range verdicts {
		if v.Verdict == "regression" {
			return 1
		}
	}
	return 0
}
