package sim

import (
	"fmt"
	"sync"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// ctxCacheFixture is a contextual top-2 cell small enough to run many
// replications: K=12, d=3, G(12, 0.35).
func ctxCacheFixture(t *testing.T) (*bandit.ContextualEnv, *strategy.Set) {
	t.Helper()
	cenv := ctxTestEnv(t, 12, 3, 0.35, 61)
	set, err := strategy.TopM(12, 2, cenv.Graph())
	if err != nil {
		t.Fatal(err)
	}
	return cenv, set
}

// ctxCachePolicies are the contextual-cell policies the per-round optimum
// table must leave untouched.
var ctxCachePolicies = []string{"linucb", "ctx-thompson", "cts", "osmd"}

// ctxRunResult is one replication's full curves plus its final regret.
type ctxRunResult struct {
	series           *Series
	pseudo, realized float64
	opt              []float64
}

// playCtxCombo plays one contextual replication of the named registry
// policy with the given horizon, against cache (nil for none).
func playCtxCombo(cenv *bandit.ContextualEnv, set *strategy.Set, scen bandit.Scenario, name string, horizon int, cache *ComboCache) (ctxRunResult, error) {
	factory, err := ComboPolicyFactory(name, scen)
	if err != nil {
		return ctxRunResult{}, err
	}
	cfg := Config{Horizon: horizon, Checkpoints: DefaultCheckpoints(horizon, 25), AnnounceHorizon: true}
	cr, err := NewContextualComboRun(cenv, set, scen, factory(rng.New(71)), cfg, rng.New(72), cache)
	if err != nil {
		return ctxRunResult{}, err
	}
	s, err := cr.Run()
	if err != nil {
		return ctxRunResult{}, err
	}
	pseudo, realized := cr.Regret()
	return ctxRunResult{series: s, pseudo: pseudo, realized: realized, opt: cr.opt}, nil
}

// runCtxCombo is playCtxCombo failing the test on error.
func runCtxCombo(t *testing.T, cenv *bandit.ContextualEnv, set *strategy.Set, scen bandit.Scenario, name string, horizon int, cache *ComboCache) ctxRunResult {
	t.Helper()
	res, err := playCtxCombo(cenv, set, scen, name, horizon, cache)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameCtxRun asserts two replications agree bit for bit: every Series
// value and both final regrets.
func sameCtxRun(t *testing.T, label string, got, want ctxRunResult) {
	t.Helper()
	sameSeries(t, label, got.series, want.series)
	if got.pseudo != want.pseudo || got.realized != want.realized {
		t.Fatalf("%s: final regret (%v, %v), want (%v, %v)", label, got.pseudo, got.realized, want.pseudo, want.realized)
	}
}

// TestContextualComboCacheBitIdentical is the acceptance criterion for the
// shared per-round optimum table: CSO and CSR replications of every
// contextual-cell policy produce the same bits with a shared cache as
// with none, which recomputes each round's optimum itself.
func TestContextualComboCacheBitIdentical(t *testing.T) {
	cenv, set := ctxCacheFixture(t)
	for _, scen := range []bandit.Scenario{bandit.CSO, bandit.CSR} {
		cache := NewContextualComboCache(cenv, set)
		for _, name := range ctxCachePolicies {
			label := fmt.Sprintf("%v/%s", scen, name)
			want := runCtxCombo(t, cenv, set, scen, name, 300, nil)
			got := runCtxCombo(t, cenv, set, scen, name, 300, cache)
			sameCtxRun(t, label, got, want)
			if len(got.opt) < 300 {
				t.Fatalf("%s: cached run read a %d-round optimum table, want ≥ 300", label, len(got.opt))
			}
		}
	}
}

// TestContextualComboCacheExtends runs horizons 50, 200 and 100 against
// one cache: the second run extends the table, the third reads a prefix
// of it, and a table handed out before an extension keeps its values.
func TestContextualComboCacheExtends(t *testing.T) {
	cenv, set := ctxCacheFixture(t)
	cache := NewContextualComboCache(cenv, set)
	var first []float64
	for _, n := range []int{50, 200, 100} {
		for _, name := range ctxCachePolicies {
			label := fmt.Sprintf("n=%d/%s", n, name)
			got := runCtxCombo(t, cenv, set, bandit.CSO, name, n, cache)
			sameCtxRun(t, label, got, runCtxCombo(t, cenv, set, bandit.CSO, name, n, nil))
			if first == nil {
				first = append([]float64(nil), got.opt...)
				if len(first) != 50 {
					t.Fatalf("first table holds %d rounds, want 50", len(first))
				}
			}
		}
	}
	table := cache.roundOptima(bandit.CSO, 1)
	if len(table) != 200 {
		t.Fatalf("table holds %d rounds after horizons 50, 200, 100; want 200", len(table))
	}
	for i, v := range first {
		if table[i] != v {
			t.Fatalf("round %d optimum changed on extension: %v, was %v", i+1, table[i], v)
		}
	}
	if cache.roundOpt[1] != nil {
		t.Fatalf("CSO runs filled the CSR table (%d rounds)", len(cache.roundOpt[1]))
	}
}

// TestContextualComboCacheConcurrent has replications of mixed horizons,
// scenarios and policies share one cache from many goroutines; run under
// -race it checks that table extension and reads do not race, and every
// replication still matches its nil-cache twin.
func TestContextualComboCacheConcurrent(t *testing.T) {
	cenv, set := ctxCacheFixture(t)
	type job struct {
		scen bandit.Scenario
		name string
		n    int
	}
	var jobs []job
	for i, name := range ctxCachePolicies {
		for j, scen := range []bandit.Scenario{bandit.CSO, bandit.CSR} {
			jobs = append(jobs, job{scen, name, 60 + 70*((i+j)%3)})
		}
	}
	want := make([]ctxRunResult, len(jobs))
	for i, j := range jobs {
		want[i] = runCtxCombo(t, cenv, set, j.scen, j.name, j.n, nil)
	}
	cache := NewContextualComboCache(cenv, set)
	got := make([]ctxRunResult, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = playCtxCombo(cenv, set, j.scen, j.name, j.n, cache)
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameCtxRun(t, fmt.Sprintf("%v/%s/n=%d", j.scen, j.name, j.n), got[i], want[i])
	}
}

// TestContextualComboNilCacheBuildsNoTable pins that a run without a cache
// (every serve instance, whose horizon is 10⁸) never builds an optimum
// table: it scores the strategy set round by round instead.
func TestContextualComboNilCacheBuildsNoTable(t *testing.T) {
	cenv, set := ctxCacheFixture(t)
	factory, err := ComboPolicyFactory("linucb", bandit.CSO)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := NewContextualComboRun(cenv, set, bandit.CSO, factory(nil), Config{Horizon: 100_000_000}, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := cr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if cr.opt != nil {
		t.Fatalf("nil-cache run holds a %d-round optimum table", len(cr.opt))
	}
}
