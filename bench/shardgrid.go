package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"netbandit/internal/bandit"
	"netbandit/internal/obs"
	"netbandit/internal/serve"
	"netbandit/internal/sim"
)

// shard_grid runs the CLI grid below as whole shard jobs — plan, a
// two-process work-stealing run, merge — one after another until the
// measured time is up. Every job must merge byte-identical to the
// single-process `nbandit sweep` of the same flags.
var (
	shardDensities = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6}
	shardHorizons  = []int{2000, 4000}
	shardPolicies  = []string{"dfl", "cucb"}
)

const (
	shardK, shardM = 20, 2
	shardProcs     = 2
)

func shardGridFlags(seed uint64) []string {
	ps := make([]string, len(shardDensities))
	for i, p := range shardDensities {
		ps[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	ns := make([]string, len(shardHorizons))
	for i, n := range shardHorizons {
		ns[i] = strconv.Itoa(n)
	}
	return []string{
		"-scenario", "csr", "-policies", strings.Join(shardPolicies, ","),
		"-k", strconv.Itoa(shardK), "-m", strconv.Itoa(shardM),
		"-p", strings.Join(ps, ","), "-n", strings.Join(ns, ","),
		"-reps", "1", "-seed", strconv.FormatUint(seed, 10),
	}
}

// shardRoundsPerJob is the simulated rounds of one job: one replication of
// every cell.
func shardRoundsPerJob() int64 {
	var sum int64
	for _, n := range shardHorizons {
		sum += int64(n)
	}
	return sum * int64(len(shardDensities)*len(shardPolicies))
}

// shardJob is what one plan → run → merge measured.
type shardJob struct {
	plan, run, merge      time.Duration
	rssMiB                float64
	cpu                   time.Duration
	cellMS                []float64 // cost each worker reported (whole ms)
	cellLatMS             []float64 // coordinator-side cell latency
	leases, steals, retry int
	cells                 int
	recordBytes           int64
	merged                []byte
}

func (j shardJob) wall() time.Duration { return j.plan + j.run + j.merge }

// runShardJob executes one job in dir.
func runShardJob(ctx context.Context, bin, dir string, flags []string, tr *Tracer) (shardJob, error) {
	var j shardJob
	id := tr.NewID()
	t0 := time.Now()
	plan, err := runTool(ctx, bin, append([]string{"shard", "plan", "-dir", dir, "-shards", strconv.Itoa(shardProcs)}, flags...)...)
	if err != nil {
		return j, err
	}
	run, err := runTool(ctx, bin, "shard", "run", "-dir", dir, "-procs", strconv.Itoa(shardProcs), "-workers", "1", "-journal")
	if err != nil {
		return j, err
	}
	merge, err := runTool(ctx, bin, "shard", "merge", "-dir", dir, "-format", "json")
	if err != nil {
		return j, err
	}
	j.plan, j.run, j.merge = plan.wall, run.wall, merge.wall
	j.merged = merge.stdout
	j.cpu = plan.cpu() + run.cpu() + merge.cpu()
	for _, t := range []toolRun{plan, run, merge} {
		if t.peakMiB > j.rssMiB {
			j.rssMiB = t.peakMiB
		}
	}
	if err := j.readJournal(filepath.Join(dir, obs.JournalName), tr, id, t0.Add(plan.wall)); err != nil {
		return j, err
	}
	entries, err := os.ReadDir(filepath.Join(dir, "cells"))
	if err != nil {
		return j, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return j, err
		}
		j.recordBytes += info.Size()
	}
	if tr != nil {
		tr.Add("shard.plan", 0, id, id, t0, t0.Add(plan.wall))
		tr.Add("shard.run", 0, id, id, t0.Add(plan.wall), t0.Add(plan.wall+run.wall))
		tr.Add("shard.merge", 0, id, id, t0.Add(plan.wall+run.wall), t0.Add(j.wall()))
		tr.Add("shard.job", id, 0, id, t0, t0.Add(j.wall()))
	}
	return j, nil
}

// readJournal takes the coordinator's counts and per-cell times from its
// flight-recorder journal; runStart anchors cell spans on the trace. A
// cell's latency runs from its lease's grant, or from the lease's previous
// cell, to the coordinator recording the cell durable: worker spawn, cell
// execution, record persist and heartbeat, at microsecond resolution.
func (j *shardJob) readJournal(path string, tr *Tracer, job int64, runStart time.Time) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	last := make(map[int]int64) // lease → time of its grant or latest cell
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("journal %s: %w", path, err)
		}
		switch ev.Type {
		case obs.EvLeaseGrant:
			j.leases++
			last[ev.Lease] = ev.TUS
		case obs.EvSteal:
			j.steals++
		case obs.EvRetry:
			j.retry++
		case obs.EvCellDone:
			j.cells++
			if t, ok := last[ev.Lease]; ok {
				j.cellLatMS = append(j.cellLatMS, float64(ev.TUS-t)/1e3)
				last[ev.Lease] = ev.TUS
			}
			if ev.MS > 0 {
				j.cellMS = append(j.cellMS, ev.MS)
				if tr != nil {
					// Journal times count from the coordinator opening it,
					// a few milliseconds after the run process started.
					end := runStart.Add(time.Duration(ev.TUS) * time.Microsecond)
					tr.Add("shard.cell", 0, job, job, end.Add(-time.Duration(ev.MS*float64(time.Millisecond))), end)
				}
			}
		}
	}
	return sc.Err()
}

// shardPhase is a sequence of jobs.
type shardPhase struct {
	jobs      []shardJob
	wall      time.Duration // summed job time
	identical bool
}

func (p shardPhase) rounds() int64 { return shardRoundsPerJob() * int64(len(p.jobs)) }

// windows are the phase's jobs: a job's rounds per second and its cell
// latencies in milliseconds.
func (p shardPhase) windows() []window {
	ws := make([]window, len(p.jobs))
	for i, j := range p.jobs {
		ws[i] = window{rate: float64(shardRoundsPerJob()) / j.wall().Seconds(), lat: j.cellLatMS}
	}
	return ws
}

func (p shardPhase) roundsPerS() float64 { return bestRate(p.windows()) }

func (p shardPhase) cells() int64 {
	var n int64
	for _, j := range p.jobs {
		n += int64(j.cells)
	}
	return n
}

// runShardJobs runs jobs until their summed time reaches d (at least one),
// each in a fresh directory, and compares every merge with ref.
func (w *run) runShardJobs(ctx context.Context, d time.Duration, flags []string, ref []byte, tr *Tracer) (shardPhase, error) {
	ph := shardPhase{identical: true}
	for i := 0; i == 0 || ph.wall < d; i++ {
		dir, err := w.subdir(fmt.Sprintf("job-%d", i))
		if err != nil {
			return ph, err
		}
		j, err := runShardJob(ctx, w.cfg.NBandit, dir, flags, tr)
		if err != nil {
			return ph, err
		}
		if !bytes.Equal(j.merged, ref) {
			ph.identical = false
		}
		j.merged = nil
		ph.jobs = append(ph.jobs, j)
		ph.wall += j.wall()
		if err := os.RemoveAll(dir); err != nil {
			return ph, err
		}
	}
	return ph, nil
}

func shardGrid(ctx context.Context, w *run) error {
	seed := w.cfg.Seed
	flags := shardGridFlags(seed)
	ref, err := runTool(ctx, w.cfg.NBandit, append(append([]string{"sweep"}, flags...), "-workers", strconv.Itoa(shardProcs), "-format", "json")...)
	if err != nil {
		return err
	}
	refHash := sha(ref.stdout)
	w.rec.exact["merge_sha256"] = refHash
	w.checkPinned("shard_grid", refHash)

	d := w.cfg.measure()
	if !w.cfg.Trace {
		ph, err := w.runShardJobs(ctx, d, flags, ref.stdout, nil)
		if err != nil {
			return err
		}
		var plans []float64
		var rss float64
		for _, j := range ph.jobs {
			plans = append(plans, j.plan.Seconds())
			if j.rssMiB > rss {
				rss = j.rssMiB
			}
		}
		w.res.Attempted = ph.cells()
		w.rec.set("setup_s", Median(plans))
		w.setRate(ph.windows(), float64(ph.rounds()), ph.wall.Seconds(), bestWindows)
		w.setLatency(ph.windows(), 1, bestWindows)
		w.rec.set("peak_rss_mb", rss)
		w.shardExtras(ph)
		w.shardOracles(ph)
		return nil
	}
	plain, err := w.runShardJobs(ctx, d/2, flags, ref.stdout, nil)
	if err != nil {
		return err
	}
	traced, err := w.runShardJobs(ctx, d/2, flags, ref.stdout, w.tr)
	if err != nil {
		return err
	}
	w.res.Attempted = plain.cells() + traced.cells()
	var cpu time.Duration
	for _, j := range plain.jobs {
		cpu += j.cpu
	}
	w.rec.set("proc.cpu_ms_per_kround", cpu.Seconds()*ms/float64(plain.rounds())*1e3)
	w.rec.set("trace.overhead_frac", 1-traced.roundsPerS()/plain.roundsPerS())
	setup, err := repeatMedian(5, func() error {
		return buildAxes(seed, shardEnvSpecs())
	})
	if err != nil {
		return err
	}
	w.rec.set("bandit.env_build_ms", setup*ms)
	w.rec.addExtra("shard.ref_sweep_s", ref.wall.Seconds(), "s")
	var walls []float64
	for _, j := range plain.jobs {
		walls = append(walls, j.wall().Seconds())
	}
	w.rec.addExtra("shard.overhead_ratio", Median(walls)/ref.wall.Seconds(), "frac")
	w.shardExtras(plain)
	w.shardOracles(shardPhase{jobs: append(plain.jobs, traced.jobs...), identical: plain.identical && traced.identical})
	return runLadder(ctx, serve.Spec{
		ID: "ladder", Seed: subSeed(seed, 1), Scenario: "csr", Policy: "dfl", K: shardK, M: shardM, P: 0.3,
	}, w.cfg.Scale, w.dir, w.tr, w.rec)
}

// shardEnvSpecs are the grid's environment axes as the CLI builds them.
func shardEnvSpecs() []sim.EnvSpec {
	var out []sim.EnvSpec
	for _, p := range shardDensities {
		out = append(out, sim.GnpBernoulliEnv(fmt.Sprintf("gnp(%g)", p), bandit.CSR, shardK, shardM, p))
	}
	return out
}

func (w *run) shardExtras(ph shardPhase) {
	var plans, runs, merges, cellMS []float64
	var leases, steals, retries int
	for _, j := range ph.jobs {
		plans = append(plans, j.plan.Seconds())
		runs = append(runs, j.run.Seconds())
		merges = append(merges, j.merge.Seconds())
		cellMS = append(cellMS, j.cellMS...)
		leases += j.leases
		steals += j.steals
		retries += j.retry
	}
	jobs := float64(len(ph.jobs))
	w.rec.addExtra("shard.jobs", jobs, "count")
	w.rec.addExtra("shard.plan_s", Median(plans), "s")
	w.rec.addExtra("shard.run_s", Median(runs), "s")
	w.rec.addExtra("shard.merge_s", Median(merges), "s")
	w.rec.addExtra("shard.leases_per_job", float64(leases)/jobs, "count")
	w.rec.addExtra("shard.steals_per_job", float64(steals)/jobs, "count")
	w.rec.addExtra("shard.retries_per_job", float64(retries)/jobs, "count")
	w.rec.addExtraPct("shard.cell_ms_p50", NearestRank(cellMS, 50), 1, "ms")
	w.rec.addExtraPct("shard.cell_ms_p99", NearestRank(cellMS, 99), 1, "ms")
}

func (w *run) shardOracles(ph shardPhase) {
	first := ph.jobs[0]
	w.rec.exact["cells_per_job"] = strconv.Itoa(first.cells)
	w.rec.exact["record_bytes_per_job"] = strconv.FormatInt(first.recordBytes, 10)
	w.rec.check("merge-equals-sweep", ph.identical, "%d job(s) merged byte-identical to nbandit sweep", len(ph.jobs))
	want := len(shardDensities) * len(shardHorizons) * len(shardPolicies)
	allCells := true
	for _, j := range ph.jobs {
		allCells = allCells && j.cells == want
	}
	w.rec.check("cells-complete", allCells, "every job completed %d cells exactly once", want)
}
