package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"netbandit/internal/armdist"
	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// This file implements the grid-sweep engine: a Sweep describes the
// Cartesian product of named environment, policy, and configuration axes,
// and Run executes every cell's replications on one shared bounded worker
// pool. Replication results are folded into the per-cell aggregates through
// a bounded reorder window, so peak series memory is O(workers) regardless
// of the replication count, results are bit-identical under any worker
// count, and the pool stops dispatching on the first error.

// EnvSpec is one environment axis point of a sweep. Exactly one of Build,
// Env, CtxBuild, or CtxEnv must be set; combinatorial scenarios
// additionally need a strategy set (returned by the builder or supplied as
// Set).
type EnvSpec struct {
	// Name labels the axis point in cell names and exports.
	Name string
	// Scenario selects the feedback/regret semantics for every cell using
	// this environment.
	Scenario bandit.Scenario
	// Build constructs the environment from the axis' private random
	// stream. It runs once per sweep; all cells sharing the axis see the
	// same instance.
	Build func(r *rng.RNG) (*bandit.Env, *strategy.Set, error)
	// Env and Set supply a prebuilt environment instead of Build.
	Env *bandit.Env
	Set *strategy.Set
	// CtxBuild constructs a contextual (linear-reward) environment from the
	// axis' private stream; cells on this axis run through the contextual
	// runners and pass per-round contexts to their policies.
	CtxBuild func(r *rng.RNG) (*bandit.ContextualEnv, *strategy.Set, error)
	// CtxEnv supplies a prebuilt contextual environment instead of CtxBuild.
	CtxEnv *bandit.ContextualEnv
}

// contextual reports whether the axis describes a contextual environment —
// decidable at plan time, without building anything.
func (e *EnvSpec) contextual() bool { return e.CtxBuild != nil || e.CtxEnv != nil }

// GeneratorEnv returns a sweep axis over any named relation-graph
// generator, with Bernoulli arms whose means are drawn uniformly from
// [0, 1]. The axis stream is split as Split(1) for the graph and Split(2)
// for the arm means; combinatorial scenarios get the all-m-subsets family.
func GeneratorEnv(name string, scen bandit.Scenario, gen graphs.GeneratorName, k, m int, param float64) EnvSpec {
	return EnvSpec{
		Name:     name,
		Scenario: scen,
		Build: func(r *rng.RNG) (*bandit.Env, *strategy.Set, error) {
			g, err := graphs.FromName(gen, k, param, r.Split(1))
			if err != nil {
				return nil, nil, err
			}
			env, err := bandit.NewEnv(g, armdist.RandomBernoulliArms(k, r.Split(2)))
			if err != nil {
				return nil, nil, err
			}
			if !scen.Combinatorial() {
				return env, nil, nil
			}
			set, err := strategy.TopM(k, m, g)
			if err != nil {
				return nil, nil, err
			}
			return env, set, nil
		},
	}
}

// GnpBernoulliEnv returns the paper's Section VII environment as a sweep
// axis: a G(k, p) relation graph with uniform-random Bernoulli arms.
func GnpBernoulliEnv(name string, scen bandit.Scenario, k, m int, p float64) EnvSpec {
	return GeneratorEnv(name, scen, graphs.GenGnp, k, m, p)
}

// FixedEnv wraps a prebuilt environment (and, for combinatorial scenarios,
// its strategy set) as a sweep axis.
func FixedEnv(name string, scen bandit.Scenario, env *bandit.Env, set *strategy.Set) EnvSpec {
	return EnvSpec{Name: name, Scenario: scen, Env: env, Set: set}
}

// ContextualGnpEnv returns a contextual sweep axis: a G(k, p) relation
// graph, a hidden d-dimensional weight vector θ drawn uniformly and
// normalised, and per-round feature vectors from a dedicated counter
// stream — the feature-targeted variant of the paper's Section VII
// environment. The axis stream is split as Split(1) for the graph,
// Split(2) for θ, and Split(3) for the feature stream; combinatorial
// scenarios get the all-m-subsets family.
func ContextualGnpEnv(name string, scen bandit.Scenario, k, m, d int, p float64) EnvSpec {
	return ContextualGeneratorEnv(name, scen, graphs.GenGnp, k, m, d, p)
}

// ContextualGeneratorEnv is ContextualGnpEnv over any named relation-graph
// generator.
func ContextualGeneratorEnv(name string, scen bandit.Scenario, gen graphs.GeneratorName, k, m, d int, param float64) EnvSpec {
	return EnvSpec{
		Name:     name,
		Scenario: scen,
		CtxBuild: func(r *rng.RNG) (*bandit.ContextualEnv, *strategy.Set, error) {
			g, err := graphs.FromName(gen, k, param, r.Split(1))
			if err != nil {
				return nil, nil, err
			}
			theta := bandit.RandomTheta(r.Split(2), d)
			cenv, err := bandit.NewContextualEnv(g, k, theta, r.Split(3).Counter())
			if err != nil {
				return nil, nil, err
			}
			if !scen.Combinatorial() {
				return cenv, nil, nil
			}
			set, err := strategy.TopM(k, m, g)
			if err != nil {
				return nil, nil, err
			}
			return cenv, set, nil
		},
	}
}

// PolicySpec is one policy axis point. Single serves the single-play
// scenarios, Combo the combinatorial ones; a spec crossed with an
// incompatible environment axis is a sweep validation error.
type PolicySpec struct {
	Name   string
	Single SingleFactory
	Combo  ComboFactory
	// Contextual marks policies that require per-round feature contexts
	// (LinUCB family): crossing one with a non-contextual environment axis
	// is a plan-time validation error instead of a mid-run panic.
	Contextual bool
}

// ConfigSpec is one run-configuration axis point (horizon, checkpoints).
type ConfigSpec struct {
	Name   string
	Config Config
}

// Progress reports one folded replication. Callbacks run on the folding
// goroutine, strictly ordered per cell.
type Progress struct {
	// CellIndex and Cell identify the cell the replication belongs to.
	// CellIndex is the cell's global grid index — stable even when only a
	// subset of the grid runs (RunCells) — and Cell its slash-joined name.
	CellIndex int
	Cell      string
	// Env, Policy, and Config are the cell's grid axis-point names (the
	// axis values, not indices), so progress output is human-readable.
	// Axes the sweep does not name are empty.
	Env, Policy, Config string
	// Rep is the replication index just folded into the cell aggregate.
	Rep int
	// CellDone/CellReps count folded replications within the cell,
	// Done/Total across the whole run (for RunCells: the selected subset).
	CellDone, CellReps int
	Done, Total        int
}

// Label returns a human-readable identity for the cell the event belongs
// to: the slash-joined axis values when the sweep names them, otherwise
// the positional "cell N" fallback.
func (p Progress) Label() string {
	if p.Cell != "" {
		return p.Cell
	}
	return fmt.Sprintf("cell %d", p.CellIndex)
}

// ProgressFunc receives per-replication progress events.
type ProgressFunc func(Progress)

// Sweep describes a grid of experiment cells: the Cartesian product
// Envs × Policies × Configs, each cell replicated Reps times.
type Sweep struct {
	// Name labels the sweep in exports.
	Name string
	// Envs, Policies, and Configs are the grid axes. Envs and Policies are
	// required; an empty Configs uses Config as the single unnamed point.
	Envs     []EnvSpec
	Policies []PolicySpec
	Configs  []ConfigSpec
	// Config is the run configuration used when Configs is empty.
	Config Config
	// Reps is the number of replications per cell. Required.
	Reps int
	// Seed roots every random stream in the sweep. Cell c's replication r
	// draws from rng.New(Seed).Split(c+1).Split(r+1) (or, with
	// CommonStreams, rng.New(Seed).Split(r+1)), so results are bit-identical
	// under any worker count. Environment axis i builds from
	// rng.New(Seed).Split(0).Split(i+1), disjoint from the cell namespace.
	Seed uint64
	// Workers bounds the shared pool; 0 means GOMAXPROCS.
	Workers int
	// Window bounds how many replications may be dispatched ahead of the
	// slowest unfolded one — the reorder-buffer size and therefore the peak
	// number of retained Series. 0 means 2×Workers.
	Window int
	// CommonStreams reuses the same replication streams in every cell
	// (common random numbers: paired comparisons across cells, and the
	// derivation ReplicateSingle/ReplicateCombo use). Otherwise each cell
	// gets an independent stream family.
	CommonStreams bool
	// Progress, when non-nil, receives one event per folded replication.
	Progress ProgressFunc
}

// CellResult is one cell's aggregate plus its grid coordinates.
type CellResult struct {
	// Index is the cell's position in deterministic grid order
	// (env-major, then policy, then config).
	Index int
	// Cell is the slash-joined display name of the coordinates.
	Cell string
	// Env, Policy, and Config are the axis-point names.
	Env, Policy, Config string
	// Scenario is inherited from the environment axis.
	Scenario bandit.Scenario
	// Agg holds the four aggregated regret curves.
	Agg *Aggregate
}

// SweepResult is the outcome of a completed sweep.
type SweepResult struct {
	Name string
	Seed uint64
	Reps int
	// Cells are in deterministic grid order.
	Cells []CellResult
	// MaxBuffered is the peak number of completed Series held in the
	// reorder window, an observability hook for the O(workers) memory
	// guarantee: it never exceeds the window.
	MaxBuffered int
}

func (s *Sweep) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Sweep) validate() error {
	if len(s.Envs) == 0 {
		return errors.New("sim: sweep needs at least one environment axis point")
	}
	if len(s.Policies) == 0 {
		return errors.New("sim: sweep needs at least one policy axis point")
	}
	if s.Reps <= 0 {
		return fmt.Errorf("sim: sweep needs at least one replication, got %d", s.Reps)
	}
	return nil
}

// cellName joins non-empty coordinate names with "/".
func cellName(parts ...string) string {
	name := ""
	for _, p := range parts {
		if p == "" {
			continue
		}
		if name != "" {
			name += "/"
		}
		name += p
	}
	return name
}

// gridCell couples one cell's grid coordinates with everything needed to
// compile it into an executable cell: the environment axis it draws from
// and its policy and configuration axis points.
type gridCell struct {
	meta   CellResult // Agg is nil until the cell runs
	envIdx int
	pol    PolicySpec
	cfg    Config
}

// grid validates the sweep and expands the axes into cells in
// deterministic grid order (env-major, then policy, then config) without
// building any environment or running anything. Policy/scenario
// compatibility is checked here so that plan-time enumeration rejects the
// same grids Run would.
func (s *Sweep) grid() ([]gridCell, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	configs := s.Configs
	if len(configs) == 0 {
		configs = []ConfigSpec{{Config: s.Config}}
	}
	var cells []gridCell
	for ei, e := range s.Envs {
		for _, pol := range s.Policies {
			for _, c := range configs {
				idx := len(cells)
				name := cellName(e.Name, pol.Name, c.Name)
				if e.Scenario.Combinatorial() && pol.Combo == nil {
					return nil, fmt.Errorf("sim: cell %q: policy %q has no combinatorial factory for scenario %v", name, pol.Name, e.Scenario)
				}
				if !e.Scenario.Combinatorial() && pol.Single == nil {
					return nil, fmt.Errorf("sim: cell %q: policy %q has no single-play factory for scenario %v", name, pol.Name, e.Scenario)
				}
				if pol.Contextual && !e.contextual() {
					return nil, fmt.Errorf("sim: cell %q: policy %q requires per-round contexts but environment axis %q is not contextual", name, pol.Name, e.Name)
				}
				cells = append(cells, gridCell{
					meta: CellResult{
						Index: idx, Cell: name,
						Env: e.Name, Policy: pol.Name, Config: c.Name,
						Scenario: e.Scenario,
					},
					envIdx: ei,
					pol:    pol,
					cfg:    c.Config,
				})
			}
		}
	}
	return cells, nil
}

// CellMetas returns the coordinates of every cell of the grid in
// deterministic order, without building environments or running any
// replication. This is the enumeration a shard plan is built from: the
// indices are the ones Run and RunCells key every replication stream on.
func (s *Sweep) CellMetas() ([]CellResult, error) {
	cells, err := s.grid()
	if err != nil {
		return nil, err
	}
	metas := make([]CellResult, len(cells))
	for i := range cells {
		metas[i] = cells[i].meta
	}
	return metas, nil
}

// builtEnv is one environment axis after construction, plus — for
// combinatorial axes — the per-cell precompute cache (means, optima,
// lazily built strategy relation graph) shared read-only by every cell and
// replication using the axis.
type builtEnv struct {
	env   *bandit.Env
	cenv  *bandit.ContextualEnv
	set   *strategy.Set
	cache *ComboCache
}

// buildEnvs constructs the environment axes selected by need (nil = all),
// each from its private stream keyed by the axis index — so a shard that
// builds only the axes its cells touch sees exactly the environments a
// full run would.
func (s *Sweep) buildEnvs(need func(envIdx int) bool) ([]builtEnv, error) {
	envRoot := rng.New(s.Seed).Split(0)
	built := make([]builtEnv, len(s.Envs))
	for i, e := range s.Envs {
		if need != nil && !need(i) {
			continue
		}
		env, cenv, set := e.Env, e.CtxEnv, e.Set
		if e.Build != nil {
			var err error
			env, set, err = e.Build(envRoot.Split(uint64(i) + 1))
			if err != nil {
				return nil, fmt.Errorf("sim: building environment %q: %w", e.Name, err)
			}
		}
		if e.CtxBuild != nil {
			if env != nil {
				return nil, fmt.Errorf("sim: environment axis %q sets both contextual and fixed-mean sources", e.Name)
			}
			var err error
			cenv, set, err = e.CtxBuild(envRoot.Split(uint64(i) + 1))
			if err != nil {
				return nil, fmt.Errorf("sim: building environment %q: %w", e.Name, err)
			}
		}
		if env == nil && cenv == nil {
			return nil, fmt.Errorf("sim: environment axis %q has no Build, Env, CtxBuild, or CtxEnv", e.Name)
		}
		if env != nil && cenv != nil {
			return nil, fmt.Errorf("sim: environment axis %q sets both contextual and fixed-mean sources", e.Name)
		}
		if e.Scenario.Combinatorial() && set == nil {
			return nil, fmt.Errorf("sim: environment axis %q is combinatorial but has no strategy set", e.Name)
		}
		built[i] = builtEnv{env: env, cenv: cenv, set: set}
		if e.Scenario.Combinatorial() {
			if cenv != nil {
				built[i].cache = NewContextualComboCache(cenv, set)
			} else {
				built[i].cache = NewComboCache(env, set)
			}
		}
	}
	return built, nil
}

// compileCell turns a grid cell into the executor's view of it. The
// replication stream derivation is keyed on the cell's global grid index,
// so a cell produces bit-identical curves whether it runs as part of the
// full grid, alone, or inside any shard subset.
func (s *Sweep) compileCell(gc gridCell, be builtEnv) execCell {
	idx := gc.meta.Index
	repStream := func(rep int) *rng.RNG {
		if s.CommonStreams {
			return rng.New(s.Seed).Split(uint64(rep) + 1)
		}
		return rng.New(s.Seed).Split(uint64(idx) + 1).Split(uint64(rep) + 1)
	}
	var run func(rep int) (*Series, error)
	env, cenv, set, scen, cfg, cache := be.env, be.cenv, be.set, gc.meta.Scenario, gc.cfg, be.cache
	switch {
	case scen.Combinatorial() && cenv != nil:
		factory := gc.pol.Combo
		run = func(rep int) (*Series, error) {
			stream := repStream(rep)
			return RunContextualCombo(cenv, set, scen, factory(stream.Split(0)), cfg, stream.Split(1), cache)
		}
	case scen.Combinatorial():
		factory := gc.pol.Combo
		run = func(rep int) (*Series, error) {
			stream := repStream(rep)
			return RunComboCached(env, set, scen, factory(stream.Split(0)), cfg, stream.Split(1), cache)
		}
	case cenv != nil:
		factory := gc.pol.Single
		run = func(rep int) (*Series, error) {
			stream := repStream(rep)
			return RunContextualSingle(cenv, scen, factory(stream.Split(0)), cfg, stream.Split(1))
		}
	default:
		factory := gc.pol.Single
		run = func(rep int) (*Series, error) {
			stream := repStream(rep)
			return RunSingle(env, scen, factory(stream.Split(0)), cfg, stream.Split(1))
		}
	}
	return execCell{meta: gc.meta, reps: s.Reps, run: run}
}

// Run executes the full grid. It returns after every replication of every
// cell has been folded, or as soon as the pool has drained following the
// first replication error (fail-fast) or a context cancellation. On
// failure the returned error joins every replication error that occurred
// before the pool drained.
func (s *Sweep) Run(ctx context.Context) (*SweepResult, error) {
	grid, err := s.grid()
	if err != nil {
		return nil, err
	}
	built, err := s.buildEnvs(nil)
	if err != nil {
		return nil, err
	}
	cells := make([]execCell, len(grid))
	metas := make([]CellResult, len(grid))
	for i, gc := range grid {
		cells[i] = s.compileCell(gc, built[gc.envIdx])
		metas[i] = gc.meta
	}
	aggs, stats, err := executeCells(ctx, cells, s.workers(), s.Window, s.Progress, nil)
	if err != nil {
		return nil, err
	}
	for i := range metas {
		metas[i].Agg = aggs[i]
	}
	return &SweepResult{
		Name: s.Name, Seed: s.Seed, Reps: s.Reps,
		Cells: metas, MaxBuffered: stats.maxBuffered,
	}, nil
}

// CellRunStats reports what a RunCells invocation did and the memory
// bounds it observed.
type CellRunStats struct {
	// Cells is the number of cells executed.
	Cells int
	// MaxBuffered is the peak number of completed Series held in the
	// reorder window (never exceeds the window).
	MaxBuffered int
	// MaxLiveAggs is the peak number of cell aggregates alive at once.
	// Because every finished cell is handed to onCell and released, this
	// stays O(1 + window/reps) — independent of how many cells run — which
	// is the shard runner's O(1 cell) memory guarantee.
	MaxLiveAggs int
}

// RunCells executes only the cells whose global grid indices appear in
// indices (any order, duplicates rejected), streaming each finished cell's
// aggregate to onCell as soon as its last replication folds and releasing
// it immediately afterwards — peak aggregate memory is O(1 cell), not
// O(len(indices)). Only the environment axes the selected cells touch are
// built. Replication streams stay keyed on the global cell index, so every
// cell's aggregate is bit-identical to the one the full Run would produce;
// this is the execution primitive of the sharded sweep protocol
// (internal/shard).
//
// onCell runs on the folding goroutine in cell completion order; an error
// cancels the run fail-fast. Progress events report Done/Total over the
// selected subset.
func (s *Sweep) RunCells(ctx context.Context, indices []int, onCell func(CellResult) error) (CellRunStats, error) {
	if onCell == nil {
		return CellRunStats{}, errors.New("sim: RunCells needs an onCell callback")
	}
	grid, err := s.grid()
	if err != nil {
		return CellRunStats{}, err
	}
	selected := make([]int, len(indices))
	copy(selected, indices)
	sort.Ints(selected)
	for i, idx := range selected {
		if idx < 0 || idx >= len(grid) {
			return CellRunStats{}, fmt.Errorf("sim: cell index %d out of range [0,%d)", idx, len(grid))
		}
		if i > 0 && idx == selected[i-1] {
			return CellRunStats{}, fmt.Errorf("sim: duplicate cell index %d", idx)
		}
	}
	needEnv := make(map[int]bool, len(selected))
	for _, idx := range selected {
		needEnv[grid[idx].envIdx] = true
	}
	built, err := s.buildEnvs(func(envIdx int) bool { return needEnv[envIdx] })
	if err != nil {
		return CellRunStats{}, err
	}
	cells := make([]execCell, len(selected))
	for i, idx := range selected {
		cells[i] = s.compileCell(grid[idx], built[grid[idx].envIdx])
	}
	handoff := func(pos int, agg *Aggregate) error {
		meta := cells[pos].meta
		meta.Agg = agg
		return onCell(meta)
	}
	_, stats, err := executeCells(ctx, cells, s.workers(), s.Window, s.Progress, handoff)
	if err != nil {
		return CellRunStats{}, err
	}
	return CellRunStats{
		Cells:       len(selected),
		MaxBuffered: stats.maxBuffered,
		MaxLiveAggs: stats.maxLive,
	}, nil
}

// Find returns the first cell (in grid order) whose coordinates match;
// empty strings act as wildcards.
func (r *SweepResult) Find(env, policy, config string) (CellResult, bool) {
	for _, c := range r.Cells {
		if (env == "" || c.Env == env) &&
			(policy == "" || c.Policy == policy) &&
			(config == "" || c.Config == config) {
			return c, true
		}
	}
	return CellResult{}, false
}

// wrapRepErr attributes a replication error to its grid coordinates.
func wrapRepErr(cell string, rep int, err error) error {
	if cell == "" {
		return fmt.Errorf("sim: replication %d: %w", rep, err)
	}
	return fmt.Errorf("sim: cell %q replication %d: %w", cell, rep, err)
}

// execCell is the executor's view of one cell: its grid coordinates (for
// error reporting and progress), a replication count, and the
// per-replication closure.
type execCell struct {
	meta CellResult
	reps int
	run  func(rep int) (*Series, error)
}

// execStats are the executor's observability counters: the peak reorder
// buffer occupancy and the peak number of live cell aggregates.
type execStats struct {
	maxBuffered int
	maxLive     int
}

// executeCells fans every cell's replications out over one shared bounded
// worker pool and folds finished Series into per-cell aggregates in strict
// replication order through a bounded reorder window.
//
// The window caps how far dispatch may run ahead of the slowest unfolded
// replication, which bounds retained Series to O(window) = O(workers): a
// completed replication holds its window token until it is folded, and the
// dispatcher blocks once all tokens are out.
//
// When onCell is non-nil it receives each cell's aggregate (on the folding
// goroutine) as soon as the cell's last replication folds, and the
// executor releases the aggregate immediately afterwards — the returned
// slice then holds nils and peak aggregate memory is bounded by the number
// of cells the reorder window can straddle, not by len(cells). An onCell
// error cancels the run like a replication error.
//
// On the first replication error the shared pool is cancelled: dispatch
// stops, queued replications are discarded, and after in-flight work drains
// every error that occurred is returned joined.
func executeCells(ctx context.Context, cells []execCell, workers, window int, progress ProgressFunc, onCell func(pos int, agg *Aggregate) error) ([]*Aggregate, execStats, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if window <= 0 {
		window = 2 * workers
	}
	if window < workers {
		window = workers
	}
	total := 0
	for _, c := range cells {
		total += c.reps
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct{ cell, rep int }
	type outcome struct {
		cell, rep int
		series    *Series
		err       error
	}
	jobs := make(chan job)
	results := make(chan outcome)
	tokens := make(chan struct{}, window)

	// Dispatcher: enumerate (cell, rep) in deterministic grid order, but
	// never run more than `window` replications ahead of the fold frontier.
	go func() {
		defer close(jobs)
		for c := range cells {
			for rep := 0; rep < cells[c].reps; rep++ {
				select {
				case tokens <- struct{}{}:
				case <-ctx.Done():
					return
				}
				select {
				case jobs <- job{cell: c, rep: rep}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: discard without running
				}
				s, err := cells[j.cell].run(j.rep)
				if err == nil && s == nil {
					err = errors.New("replication produced no series")
				}
				results <- outcome{cell: j.cell, rep: j.rep, series: s, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Fold loop: consume arrival-ordered outcomes, fold each cell's series
	// in strict replication order so Welford accumulation is bit-for-bit
	// reproducible under any worker count.
	aggs := make([]*Aggregate, len(cells))
	frontier := make([]int, len(cells))
	pending := make([]map[int]*Series, len(cells))
	for i := range pending {
		pending[i] = make(map[int]*Series, workers)
	}
	var st execStats
	buffered, live, done := 0, 0, 0
	var errs []error
	for res := range results {
		if res.err != nil {
			errs = append(errs, wrapRepErr(cells[res.cell].meta.Cell, res.rep, res.err))
			cancel()
			continue
		}
		if len(errs) > 0 || ctx.Err() != nil {
			continue // failing or cancelled: drain without folding
		}
		pending[res.cell][res.rep] = res.series
		buffered++
		if buffered > st.maxBuffered {
			st.maxBuffered = buffered
		}
		for {
			cell := res.cell
			s, ok := pending[cell][frontier[cell]]
			if !ok {
				break
			}
			delete(pending[cell], frontier[cell])
			buffered--
			if aggs[cell] == nil {
				aggs[cell] = newAggregate(s.Policy, s.T)
				live++
				if live > st.maxLive {
					st.maxLive = live
				}
			}
			if err := aggs[cell].add(s); err != nil {
				errs = append(errs, wrapRepErr(cells[cell].meta.Cell, frontier[cell], err))
				cancel()
				break
			}
			frontier[cell]++
			done++
			<-tokens
			if progress != nil {
				meta := cells[cell].meta
				progress(Progress{
					CellIndex: meta.Index, Cell: meta.Cell,
					Env: meta.Env, Policy: meta.Policy, Config: meta.Config,
					Rep:      frontier[cell] - 1,
					CellDone: frontier[cell], CellReps: cells[cell].reps,
					Done: done, Total: total,
				})
			}
			if onCell != nil && frontier[cell] == cells[cell].reps {
				err := onCell(cell, aggs[cell])
				aggs[cell] = nil // release: the callback owns it now
				live--
				if err != nil {
					errs = append(errs, fmt.Errorf("sim: cell %q: %w", cells[cell].meta.Cell, err))
					cancel()
					break
				}
			}
			if ctx.Err() != nil {
				// Cancelled, possibly by the progress callback itself:
				// nothing more is folded or handed to onCell, so the
				// cancellation point is also the last persistence point.
				break
			}
		}
	}
	if len(errs) > 0 {
		return nil, st, errors.Join(errs...)
	}
	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("sim: sweep cancelled: %w", err)
	}
	if done != total {
		return nil, st, fmt.Errorf("sim: internal error: folded %d of %d replications", done, total)
	}
	return aggs, st, nil
}
