package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"netbandit/internal/obs"
)

// Options configures a decision server.
type Options struct {
	// Dir is the data directory; instance state lives under
	// Dir/instances/<id>/. Required.
	Dir string
	// Registry receives the serve metric series; a fresh registry is
	// created when nil.
	Registry *obs.Registry
	// Recorder, when non-nil, journals instance lifecycle events.
	Recorder *obs.Recorder
	// SnapshotEvery is the snapshot cadence in closed rounds (default
	// 256; negative disables cadence snapshots).
	SnapshotEvery int
	// QueueSize bounds the server-wide async feedback queue (default
	// 1024). A full queue rejects feedback items rather than blocking
	// the HTTP handler.
	QueueSize int
	// MailboxSize bounds each instance's command mailbox (default 64).
	MailboxSize int
}

func (o *Options) defaults() error {
	if o.Dir == "" {
		return fmt.Errorf("serve: Options.Dir is required")
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.MailboxSize <= 0 {
		o.MailboxSize = 64
	}
	return nil
}

// serverMetrics is the serve slice of the observability plane.
type serverMetrics struct {
	reg           *obs.Registry
	decisions     *obs.Counter
	decideLatency *obs.Histogram
	feedbackLag   *obs.Histogram
	instances     *obs.Gauge

	mu        sync.Mutex
	feedback_ map[string]*obs.Counter
	rounds_   map[string]*obs.Gauge
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg: reg,
		decisions: reg.Counter("nbandit_serve_decisions_total",
			"Decisions served across all instances."),
		decideLatency: reg.Histogram("nbandit_serve_decide_seconds",
			"In-process decide latency (mailbox rendezvous to response).",
			obs.DefaultLatencyBuckets),
		feedbackLag: reg.Histogram("nbandit_serve_feedback_lag_seconds",
			"Time from a round opening to its client feedback being applied.",
			obs.DefaultLatencyBuckets),
		instances: reg.Gauge("nbandit_serve_instances",
			"Hosted bandit instances."),
		feedback_: make(map[string]*obs.Counter),
		rounds_:   make(map[string]*obs.Gauge),
	}
}

func (m *serverMetrics) feedback(result string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.feedback_[result]
	if !ok {
		c = m.reg.LabeledCounter("nbandit_serve_feedback_total",
			"Feedback items by outcome.", "result", result)
		m.feedback_[result] = c
	}
	return c
}

func (m *serverMetrics) instanceRounds(id string) *obs.Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.rounds_[id]
	if !ok {
		g = m.reg.LabeledGauge("nbandit_serve_instance_rounds",
			"Closed rounds per instance.", "instance", id)
		m.rounds_[id] = g
	}
	return g
}

// Server hosts bandit instances behind the /v1 JSON API. It implements
// http.Handler; the caller owns the listener. The handler also serves
// the full observability surface (/metrics, /healthz, /debug/pprof/)
// because the /v1 routes are mounted on obs.NewMux.
type Server struct {
	opts Options
	mux  *http.ServeMux
	m    *serverMetrics

	mu        sync.RWMutex
	instances map[string]*Instance
	closed    bool

	queue    chan FeedbackItem
	pumpDone chan struct{}
	start    time.Time
}

// New builds a server over Options.Dir, restoring — and replay-verifying
// — every instance directory found there. A directory whose log or
// snapshot does not re-derive bit-identically fails construction: the
// server refuses to start rather than serve a diverged instance.
func New(opts Options) (*Server, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "instances"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	s := &Server{
		opts:      opts,
		m:         newServerMetrics(opts.Registry),
		instances: make(map[string]*Instance),
		queue:     make(chan FeedbackItem, opts.QueueSize),
		pumpDone:  make(chan struct{}),
		start:     time.Now(),
	}
	s.opts.Registry.GaugeFunc("nbandit_serve_feedback_queue_depth",
		"Feedback items waiting in the async ingest queue.",
		func() float64 { return float64(len(s.queue)) })

	if err := s.restore(); err != nil {
		return nil, err
	}

	s.mux = obs.NewMux(opts.Registry)
	s.mux.HandleFunc("/v1/instances", s.handleInstances)
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("/v1/stats", s.handleStats)

	go s.pump()
	if opts.Recorder != nil {
		opts.Recorder.Emit(obs.Jot(obs.EvServeStart, "", -1, -1,
			"dir=%s instances=%d", opts.Dir, len(s.instances)))
	}
	return s, nil
}

// restore rebuilds every instance found under the data directory,
// replaying up to GOMAXPROCS of them at once. If any instance fails, the
// ones already restored are stopped and the first failure in directory
// order is returned.
func (s *Server) restore() error {
	root := filepath.Join(s.opts.Dir, "instances")
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	restored := make([]*Instance, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer func() {
				<-sem
				wg.Done()
			}()
			restored[i], errs[i] = s.restoreInstance(filepath.Join(root, name), name)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, in := range restored {
				if in != nil {
					_ = in.command(cmdKill) // a kill acknowledges with nil
				}
			}
			return fmt.Errorf("serve: restore %s: %w", names[i], err)
		}
	}
	for _, in := range restored {
		s.instances[in.spec.ID] = in
	}
	s.m.instances.Set(float64(len(s.instances)))
	return nil
}

// restoreInstance rebuilds the instance in dir, whose name must be the
// spec's ID, from its spec and decision log.
func (s *Server) restoreInstance(dir, name string) (*Instance, error) {
	spec, err := loadSpec(dir)
	if err != nil {
		return nil, err
	}
	if spec.ID != name {
		return nil, fmt.Errorf("spec id %q does not match directory", spec.ID)
	}
	return newInstance(spec, dir, s.m, s.opts.Recorder, s.opts.SnapshotEvery, s.opts.MailboxSize)
}

// ServeHTTP exposes the combined /v1 + observability mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// pump drains the async feedback queue into instance mailboxes. The
// per-instance send blocks when a mailbox is full — backpressure lands
// here, in one goroutine, never in an HTTP handler.
func (s *Server) pump() {
	defer close(s.pumpDone)
	for item := range s.queue {
		s.mu.RLock()
		in := s.instances[item.Instance]
		s.mu.RUnlock()
		if in == nil {
			continue
		}
		select {
		case in.mailbox <- icmd{kind: cmdFeedback, fb: item}:
		case <-in.stopped:
		}
	}
}

// CreateInstance normalizes the spec and hosts a new instance for it.
// It is the programmatic face of POST /v1/instances.
func (s *Server) CreateInstance(spec Spec) (*InstanceStats, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: server is shut down")
	}
	if _, ok := s.instances[spec.ID]; ok {
		return nil, fmt.Errorf("serve: instance %q already exists", spec.ID)
	}
	dir := filepath.Join(s.opts.Dir, "instances", spec.ID)
	in, err := newInstance(spec, dir, s.m, s.opts.Recorder, s.opts.SnapshotEvery, s.opts.MailboxSize)
	if err != nil {
		return nil, err
	}
	s.instances[spec.ID] = in
	s.m.instances.Set(float64(len(s.instances)))
	return in.Stats(), nil
}

// Stats returns every instance's latest published stats, ID-sorted.
func (s *Server) Stats() []*InstanceStats {
	s.mu.RLock()
	out := make([]*InstanceStats, 0, len(s.instances))
	for _, in := range s.instances {
		out = append(out, in.Stats())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Decide requests one decision from an instance, blocking until its
// writer goroutine serves it. Contextual instances report the round's
// context hash but not the feature vectors; use DecideContext for those.
func (s *Server) Decide(id string) (*Decision, error) { return s.decide(id, false) }

// DecideContext is Decide with the round's per-arm feature vectors
// included in the response. It fails for instances whose reward model
// has no contexts.
func (s *Server) DecideContext(id string) (*Decision, error) { return s.decide(id, true) }

func (s *Server) decide(id string, withCtx bool) (*Decision, error) {
	s.mu.RLock()
	in := s.instances[id]
	s.mu.RUnlock()
	if in == nil {
		return nil, errUnknownInstance(id)
	}
	if withCtx && !in.spec.Contextual() {
		return nil, errNotContextual(id)
	}
	reply := make(chan decideResp, 1)
	select {
	case in.mailbox <- icmd{kind: cmdDecide, withCtx: withCtx, reply: reply}:
	case <-in.stopped:
		return nil, fmt.Errorf("serve: instance %q is stopped", id)
	}
	resp := <-reply
	if resp.err != nil {
		return nil, resp.err
	}
	return &resp.dec, nil
}

// contextual reports whether the named instance plays the contextual
// game; exists is false for unknown instances.
func (s *Server) contextual(id string) (ctx, exists bool) {
	s.mu.RLock()
	in := s.instances[id]
	s.mu.RUnlock()
	if in == nil {
		return false, false
	}
	return in.spec.Contextual(), true
}

// EnqueueFeedback offers one feedback item to the async ingest queue,
// reporting false when the queue is full or the instance is unknown.
func (s *Server) EnqueueFeedback(item FeedbackItem) bool {
	// The non-blocking send happens under the read lock so it cannot
	// race shutdown's close(s.queue), which runs under the write lock.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed || s.instances[item.Instance] == nil {
		return false
	}
	select {
	case s.queue <- item:
		return true
	default:
		return false
	}
}

// SnapshotAll forces a snapshot of every instance (flushing logs); used
// by tests and the CLI's signal handler.
func (s *Server) SnapshotAll() error {
	s.mu.RLock()
	ins := make([]*Instance, 0, len(s.instances))
	for _, in := range s.instances {
		ins = append(ins, in)
	}
	s.mu.RUnlock()
	for _, in := range ins {
		if err := in.command(cmdSnapshot); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts down gracefully: the feedback queue drains, then every
// instance snapshots, syncs, and closes its log.
func (s *Server) Close() error { return s.shutdown(cmdStop) }

// Kill shuts down abruptly — no draining, no snapshots, no final sync —
// simulating a crash for the recovery tests. On-disk state afterwards is
// whatever the logs had already absorbed.
func (s *Server) Kill() { _ = s.shutdown(cmdKill) }

func (s *Server) shutdown(kind cmdKind) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	ins := make([]*Instance, 0, len(s.instances))
	for _, in := range s.instances {
		ins = append(ins, in)
	}
	s.mu.Unlock()

	if kind == cmdStop {
		<-s.pumpDone // drain accepted feedback before stopping instances
	}
	var first error
	for _, in := range ins {
		if err := in.command(kind); err != nil && first == nil {
			first = err
		}
	}
	if kind == cmdStop && s.opts.Recorder != nil {
		s.opts.Recorder.Emit(obs.Jot(obs.EvServeStop, "", -1, -1,
			"instances=%d uptime=%s", len(ins), time.Since(s.start).Round(time.Millisecond)))
	}
	return first
}

func errUnknownInstance(id string) error {
	return fmt.Errorf("serve: unknown instance %q", id)
}

func errNotContextual(id string) error {
	return fmt.Errorf("serve: instance %q has no round contexts (reward_model %s); drop the context field",
		id, RewardBernoulli)
}
