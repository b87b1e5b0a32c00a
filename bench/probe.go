package bench

import (
	"sync"
	"time"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/sim"
)

// Probe measures replications from the outside: its factories wrap each
// policy in a decorator whose final Update (t == horizon) closes the
// replication's timing. The sim runners call policies only through the
// bandit interfaces, so the decorator changes no decision. Untimed probes
// add one indirect call per round; timed probes (traced runs) also clock
// every Select and Update and keep one round in SampleEvery as spans.
type Probe struct {
	tr    *Tracer
	timed bool

	mu       sync.Mutex
	parent   int64 // span of the pass the replications belong to
	busy     time.Duration
	rounds   int64
	reps     int64
	policies map[string]*policyTimes
	// since the previous sincePass: replication latencies, and the rounds
	// counted before it
	latencies  []float64
	passRounds int64
}

// policyTimes are one policy's busy totals across replications.
type policyTimes struct {
	selectNS, updateNS, calls int64
}

// NewProbe returns a probe; timed probes clock every policy call and
// record spans on tr.
func NewProbe(tr *Tracer, timed bool) *Probe {
	return &Probe{tr: tr, timed: timed, policies: make(map[string]*policyTimes)}
}

// setParent makes later replications children of the given span.
func (p *Probe) setParent(id int64) {
	p.mu.Lock()
	p.parent = id
	p.mu.Unlock()
}

// snapshot returns the probe's totals so far.
func (p *Probe) snapshot() (rounds, reps int64, busy time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rounds, p.reps, p.busy
}

// sincePass returns the rounds and replication latencies recorded since
// its previous call: those of the pass that just ended.
func (p *Probe) sincePass() (rounds int64, latencies []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rounds, latencies = p.rounds-p.passRounds, p.latencies
	p.passRounds, p.latencies = p.rounds, nil
	return rounds, latencies
}

// repRec is one replication in flight.
type repRec struct {
	p        *Probe
	name     string
	horizon  int
	id       int64
	parent   int64
	start    time.Time
	sel, upd time.Duration
}

func (p *Probe) begin(name string, horizon int) *repRec {
	p.mu.Lock()
	parent := p.parent
	p.mu.Unlock()
	return &repRec{p: p, name: name, horizon: horizon, id: p.tr.NewID(), parent: parent, start: time.Now()}
}

func (r *repRec) finish() {
	end := time.Now()
	d := end.Sub(r.start)
	p := r.p
	p.mu.Lock()
	p.latencies = append(p.latencies, d.Seconds())
	p.busy += d
	p.rounds += int64(r.horizon)
	p.reps++
	if p.timed {
		pt := p.policies[r.name]
		if pt == nil {
			pt = &policyTimes{}
			p.policies[r.name] = pt
		}
		pt.selectNS += r.sel.Nanoseconds()
		pt.updateNS += r.upd.Nanoseconds()
		pt.calls += int64(r.horizon)
	}
	p.mu.Unlock()
	p.tr.Add("sim.replication", r.id, r.parent, r.id, r.start, end)
}

// timeSelect and timeUpdate account one timed call and keep a sampled span.
func (r *repRec) timeSelect(t int, t0 time.Time) {
	d := time.Since(t0)
	r.sel += d
	if t%SampleEvery == 0 {
		r.p.tr.Add("policy.select", 0, r.id, r.id, t0, t0.Add(d))
	}
}

func (r *repRec) timeUpdate(t int, t0 time.Time) {
	d := time.Since(t0)
	r.upd += d
	if t%SampleEvery == 0 {
		r.p.tr.Add("policy.update", 0, r.id, r.id, t0, t0.Add(d))
	}
}

// Single wraps a single-play factory for replications of the given horizon.
func (p *Probe) Single(name string, horizon int, f sim.SingleFactory) sim.SingleFactory {
	return func(r *rng.RNG) bandit.SinglePolicy {
		rec := p.begin(name, horizon)
		if p.timed {
			return &timedSingle{f(r), rec}
		}
		return &endSingle{f(r), rec}
	}
}

// Combo wraps a combinatorial factory for replications of the given horizon.
func (p *Probe) Combo(name string, horizon int, f sim.ComboFactory) sim.ComboFactory {
	return func(r *rng.RNG) bandit.ComboPolicy {
		rec := p.begin(name, horizon)
		if p.timed {
			return &timedCombo{f(r), rec}
		}
		return &endCombo{f(r), rec}
	}
}

type endSingle struct {
	bandit.SinglePolicy
	rec *repRec
}

func (e *endSingle) Update(t, chosen int, obs []bandit.Observation) {
	e.SinglePolicy.Update(t, chosen, obs)
	if t == e.rec.horizon {
		e.rec.finish()
	}
}

type timedSingle struct {
	bandit.SinglePolicy
	rec *repRec
}

func (e *timedSingle) Select(t int, rc *bandit.RoundContext) int {
	t0 := time.Now()
	a := e.SinglePolicy.Select(t, rc)
	e.rec.timeSelect(t, t0)
	return a
}

func (e *timedSingle) Update(t, chosen int, obs []bandit.Observation) {
	t0 := time.Now()
	e.SinglePolicy.Update(t, chosen, obs)
	e.rec.timeUpdate(t, t0)
	if t == e.rec.horizon {
		e.rec.finish()
	}
}

type endCombo struct {
	bandit.ComboPolicy
	rec *repRec
}

func (e *endCombo) Update(t, chosen int, obs []bandit.Observation) {
	e.ComboPolicy.Update(t, chosen, obs)
	if t == e.rec.horizon {
		e.rec.finish()
	}
}

type timedCombo struct {
	bandit.ComboPolicy
	rec *repRec
}

func (e *timedCombo) Select(t int, rc *bandit.RoundContext) int {
	t0 := time.Now()
	a := e.ComboPolicy.Select(t, rc)
	e.rec.timeSelect(t, t0)
	return a
}

func (e *timedCombo) Update(t, chosen int, obs []bandit.Observation) {
	t0 := time.Now()
	e.ComboPolicy.Update(t, chosen, obs)
	e.rec.timeUpdate(t, t0)
	if t == e.rec.horizon {
		e.rec.finish()
	}
}
