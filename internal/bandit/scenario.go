package bandit

import (
	"fmt"
	"sync"

	"netbandit/internal/graphs"
	"netbandit/internal/strategy"
)

// Scenario identifies one of the paper's four problem settings.
type Scenario int

// The four scenarios of Tang & Zhou. Values start at 1 so the zero value
// is detectably invalid.
const (
	// SSO is single-play with side observation: pull one arm, collect its
	// reward, observe its closed neighbourhood.
	SSO Scenario = iota + 1
	// CSO is combinatorial-play with side observation: pull a feasible set
	// of arms, collect its direct reward, observe the closure Y_x.
	CSO
	// SSR is single-play with side reward: pull one arm, collect the sum
	// of rewards over its closed neighbourhood.
	SSR
	// CSR is combinatorial-play with side reward: pull a feasible set,
	// collect the sum of rewards over the closure Y_x.
	CSR
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case SSO:
		return "sso"
	case CSO:
		return "cso"
	case SSR:
		return "ssr"
	case CSR:
		return "csr"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// Combinatorial reports whether the scenario plays strategies rather than
// single arms.
func (s Scenario) Combinatorial() bool { return s == CSO || s == CSR }

// SideReward reports whether neighbours' rewards are collected (not just
// observed).
func (s Scenario) SideReward() bool { return s == SSR || s == CSR }

// ParseScenario converts a string such as "sso" into a Scenario.
func ParseScenario(text string) (Scenario, error) {
	switch text {
	case "sso", "SSO":
		return SSO, nil
	case "cso", "CSO":
		return CSO, nil
	case "ssr", "SSR":
		return SSR, nil
	case "csr", "CSR":
		return CSR, nil
	default:
		return 0, fmt.Errorf("bandit: unknown scenario %q (want sso|cso|ssr|csr)", text)
	}
}

// Observation is one revealed arm reward: after a play, the runner passes
// the policy one Observation per arm whose reward became visible.
type Observation struct {
	Arm   int
	Value float64
}

// Meta describes the game a single-play policy is about to play. Graph is
// the relation graph; policies that do not exploit side information simply
// ignore it. Dim is the per-arm feature dimension when the run is
// contextual (Select will receive non-nil *RoundContext values), and 0 for
// the classical fixed-mean game.
type Meta struct {
	K        int
	Horizon  int // total rounds, 0 when unknown (anytime operation)
	Graph    *graphs.Graph
	Scenario Scenario
	Dim      int // feature dimension, 0 = non-contextual
}

// SinglePolicy is a single-play decision rule. The runner drives it as:
//
//	policy.Reset(meta)
//	for t := 1; t <= n; t++ {
//	    i := policy.Select(t, rc)
//	    ... environment reveals observations obs ...
//	    policy.Update(t, i, obs)
//	}
//
// Implementations are not safe for concurrent use; each replication owns
// its own instance (built via a Factory).
type SinglePolicy interface {
	// Name identifies the policy in reports and legends.
	Name() string
	// Reset prepares the policy for a fresh run.
	Reset(meta Meta)
	// Select returns the arm to pull in round t (1-based). rc carries the
	// round's per-arm feature vectors and is nil for non-contextual runs;
	// policies that ignore contexts must accept nil. A non-nil rc stays
	// valid until the next Select, so contextual policies may retain it
	// across the matching Update.
	Select(t int, rc *RoundContext) int
	// Update feeds back the round's observations. chosen is the arm
	// returned by Select; obs contains every arm reward revealed this
	// round (the chosen arm always included; neighbours included in the
	// side-observation/side-reward scenarios).
	Update(t int, chosen int, obs []Observation)
}

// ComboMeta describes a combinatorial-play game: the feasible strategy set
// ("com-arms") plus the single-play metadata.
type ComboMeta struct {
	K          int
	Horizon    int
	Graph      *graphs.Graph
	Strategies *strategy.Set
	Scenario   Scenario
	// Dim is the per-arm feature dimension when the run is contextual
	// (Select receives non-nil *RoundContext values), 0 otherwise.
	Dim int
	// SharedSG, when non-nil, supplies the strategy relation graph SG(F, L)
	// from a cache shared read-only across replications, so its
	// construction is paid once per experiment cell instead of once per
	// Reset. Policies that need SG fall back to building their own when nil.
	SharedSG *StrategyGraphCache
}

// StrategyGraphCache hands out one strategy relation graph, built at most
// once no matter how many replications ask for it concurrently. The build
// is deferred until the first Get, so policies that never consult SG (the
// CUCB baselines, DFL-CSR) cost nothing.
type StrategyGraphCache struct {
	once  sync.Once
	build func() *graphs.Graph
	sg    *graphs.Graph
}

// NewStrategyGraphCache wraps a builder (typically core.BuildStrategyGraph
// closed over the cell's strategy set).
func NewStrategyGraphCache(build func() *graphs.Graph) *StrategyGraphCache {
	return &StrategyGraphCache{build: build}
}

// Get returns the shared graph, building it on first use. It is safe for
// concurrent use; the returned graph must be treated as read-only.
func (c *StrategyGraphCache) Get() *graphs.Graph {
	c.once.Do(func() { c.sg = c.build() })
	return c.sg
}

// ComboPolicy is a combinatorial-play decision rule. Select returns an
// index into ComboMeta.Strategies; Update receives the arm-level
// observations revealed by playing it (all arms in the closure Y_chosen in
// the side-bonus scenarios).
type ComboPolicy interface {
	// Name identifies the policy in reports and legends.
	Name() string
	// Reset prepares the policy for a fresh run.
	Reset(meta ComboMeta)
	// Select returns the strategy to play in round t (1-based). rc is the
	// round's feature context, nil for non-contextual runs; it stays valid
	// until the next Select (see SinglePolicy.Select).
	Select(t int, rc *RoundContext) int
	// Update feeds back the round's arm-level observations.
	Update(t int, chosen int, obs []Observation)
}
