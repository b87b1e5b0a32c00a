package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"netbandit/internal/bandit"
	"netbandit/internal/obs"
	"netbandit/internal/sim"
)

// Filenames inside an instance directory, alongside LogName.
const (
	SpecName     = "spec.json"
	SnapshotName = "snapshot.json"
)

// InstanceStats is the lock-free read view of one instance, published
// through an atomic pointer after every command the writer goroutine
// processes. GET /v1/stats serves these without touching the writer.
type InstanceStats struct {
	ID          string `json:"id"`
	SpecHash    string `json:"spec_hash"`
	Scenario    string `json:"scenario"`
	Policy      string `json:"policy"`
	Feedback    string `json:"feedback"`
	RewardModel string `json:"reward_model"`
	K           int    `json:"k"`
	D           int    `json:"d,omitempty"`
	Horizon     int    `json:"horizon"`

	// Round is the number of closed rounds; Pending reports whether a
	// decided round is still awaiting feedback (client mode only).
	Round    int  `json:"round"`
	Pending  bool `json:"pending"`
	PendingT int  `json:"pending_t,omitempty"`
	Done     bool `json:"done"`

	Decisions        uint64 `json:"decisions"`
	FeedbackApplied  uint64 `json:"feedback_applied"`
	FeedbackStale    uint64 `json:"feedback_stale"`
	FeedbackMismatch uint64 `json:"feedback_mismatch"`
	FeedbackInvalid  uint64 `json:"feedback_invalid"`
	Snapshots        uint64 `json:"snapshots"`

	CumPseudoRegret   float64 `json:"cum_pseudo_regret"`
	CumRealizedRegret float64 `json:"cum_realized_regret"`
}

// Decision is one answer from POST /v1/decide. Closure lists the arms
// whose rewards the feedback must reveal, in ascending order; Values is
// populated only in env-feedback mode, where the round closes
// immediately with the environment's own samples.
type Decision struct {
	Instance string    `json:"instance"`
	T        int       `json:"t"`
	Action   int       `json:"action"`
	Arms     []int     `json:"arms"`
	Closure  []int     `json:"closure"`
	Values   []float64 `json:"values,omitempty"`
	Open     bool      `json:"open"`

	// ContextHash identifies the round's feature context on contextual
	// (linear-reward) instances; clients may echo it on feedback to prove
	// they acted on the round they think they did. Context carries the
	// per-arm feature vectors themselves, populated only when the decide
	// request asked for them with "context": true.
	ContextHash string      `json:"context_hash,omitempty"`
	Context     [][]float64 `json:"context,omitempty"`
}

// FeedbackItem is one entry of a POST /v1/feedback batch: the revealed
// rewards for round T of an instance, aligned with the Closure order the
// decide response announced.
type FeedbackItem struct {
	Instance string    `json:"instance"`
	T        int       `json:"t"`
	Action   int       `json:"action"`
	Values   []float64 `json:"values"`
	// ContextHash optionally echoes the Decision.ContextHash the caller
	// acted on. On a contextual instance a wrong echo is counted as a
	// mismatch, exactly like a wrong (T, Action) pair; non-contextual
	// instances reject the field outright.
	ContextHash string `json:"context_hash,omitempty"`
}

type cmdKind int

const (
	cmdDecide cmdKind = iota
	cmdFeedback
	cmdSnapshot
	cmdStop // graceful: snapshot, sync, close
	cmdKill // abrupt: close the log mid-flight, no snapshot (crash tests)
)

type decideResp struct {
	dec Decision
	err error
}

type icmd struct {
	kind    cmdKind
	fb      FeedbackItem
	withCtx bool            // decide: include the feature vectors in the response
	reply   chan decideResp // decide rendezvous
	done    chan error      // snapshot/stop/kill acknowledgement
}

// Instance is one hosted bandit: a spec, its realised runner, a
// decision log, and a single writer goroutine that owns all of them.
// Every mutation — decide, feedback, snapshot — is a message through
// the bounded mailbox; nothing else touches the runner, so the
// per-instance round sequence is serial by construction and needs no
// locks.
type Instance struct {
	spec Spec
	hash string
	dir  string

	b   *built
	log *decLog

	mailbox chan icmd
	stopped chan struct{}
	stats   atomic.Pointer[InstanceStats]

	m   *serverMetrics
	rec *obs.Recorder

	snapshotEvery int
	lastSnapshot  int
	snapshots     uint64
	pendingSince  time.Time

	decisions  uint64
	fbApplied  uint64
	fbStale    uint64
	fbMismatch uint64
	fbInvalid  uint64
}

// newInstance creates or restores the instance rooted at dir. When a
// decision log already exists the instance is rebuilt by replaying it —
// verifying every decision re-derives identically and, when a snapshot
// exists, that the replayed state reproduces it bit-for-bit — before a
// single new round is served.
func newInstance(spec Spec, dir string, m *serverMetrics, rec *obs.Recorder, snapshotEvery, mailboxSize int) (*Instance, error) {
	hash := spec.Hash()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: instance dir: %w", err)
	}
	b, err := spec.build()
	if err != nil {
		return nil, err
	}
	in := &Instance{
		spec: spec, hash: hash, dir: dir, b: b,
		mailbox: make(chan icmd, mailboxSize),
		stopped: make(chan struct{}),
		m:       m, rec: rec,
		snapshotEvery: snapshotEvery,
	}

	logPath := filepath.Join(dir, LogName)
	if _, err := os.Stat(logPath); err == nil {
		snap, err := readSnapshot(filepath.Join(dir, SnapshotName), hash)
		if err != nil {
			return nil, err
		}
		sc, err := replayLog(b, &spec, logPath, snap)
		if err != nil {
			in.emit(obs.Jot(obs.EvInstanceRestore, spec.ID, -1, sc.Rounds, "refused: %v", err))
			return nil, err
		}
		in.log, err = reopenLog(logPath, sc)
		if err != nil {
			return nil, err
		}
		in.lastSnapshot = b.run.Round()
		detail := "verified"
		if snap != nil {
			detail = fmt.Sprintf("verified against snapshot at round %d", snap.Rounds)
		}
		in.emit(obs.Jot(obs.EvInstanceRestore, spec.ID, -1, b.run.Round(), "%s", detail))
	} else {
		if err := writeFileAtomic(filepath.Join(dir, SpecName), mustJSON(&spec)); err != nil {
			return nil, err
		}
		in.log, err = createLog(logPath, hash)
		if err != nil {
			return nil, err
		}
		in.emit(obs.Jot(obs.EvInstanceCreate, spec.ID, -1, -1,
			"%s %s k=%d feedback=%s hash=%s", spec.Scenario, spec.Policy, spec.K, spec.Feedback, hash))
	}

	in.publish()
	go in.loop()
	return in, nil
}

// Stats returns the latest published snapshot; never nil.
func (in *Instance) Stats() *InstanceStats { return in.stats.Load() }

// command hands the writer goroutine a snapshot, stop or kill command
// and waits for its acknowledgement; an instance that has already
// stopped returns nil.
func (in *Instance) command(kind cmdKind) error {
	done := make(chan error, 1)
	select {
	case in.mailbox <- icmd{kind: kind, done: done}:
		return <-done
	case <-in.stopped:
		return nil
	}
}

func (in *Instance) emit(e obs.Event) {
	if in.rec != nil {
		in.rec.Emit(e)
	}
}

// publish refreshes the atomic stats snapshot. Writer goroutine only
// (plus newInstance before the loop starts).
func (in *Instance) publish() {
	pt, _, pending := in.b.run.Pending()
	cp, cr := in.b.run.Regret()
	s := &InstanceStats{
		ID: in.spec.ID, SpecHash: in.hash,
		Scenario: in.spec.Scenario, Policy: in.spec.Policy,
		Feedback: in.spec.Feedback, RewardModel: in.spec.RewardModelName(),
		K: in.spec.K, D: in.spec.D, Horizon: in.spec.Horizon,
		Round: in.b.run.Round(), Pending: pending, Done: in.b.run.Done(),
		Decisions:       in.decisions,
		FeedbackApplied: in.fbApplied, FeedbackStale: in.fbStale,
		FeedbackMismatch: in.fbMismatch, FeedbackInvalid: in.fbInvalid,
		Snapshots:       in.snapshots,
		CumPseudoRegret: cp, CumRealizedRegret: cr,
	}
	if pending {
		s.PendingT = pt
	}
	in.stats.Store(s)
	if in.m != nil {
		in.m.instanceRounds(in.spec.ID).Set(float64(s.Round))
	}
}

// loop is the single writer: it owns the runner and the log for the
// instance's whole lifetime.
func (in *Instance) loop() {
	defer close(in.stopped)
	for cmd := range in.mailbox {
		switch cmd.kind {
		case cmdDecide:
			start := time.Now()
			resp := in.decide(cmd.withCtx)
			if in.m != nil {
				in.m.decideLatency.Observe(time.Since(start).Seconds())
			}
			in.publish()
			cmd.reply <- resp
		case cmdFeedback:
			in.feedback(cmd.fb)
			in.publish()
		case cmdSnapshot:
			cmd.done <- in.snapshot()
		case cmdStop:
			err := in.snapshot()
			if cerr := in.log.close(); err == nil {
				err = cerr
			}
			in.publish()
			cmd.done <- err
			return
		case cmdKill:
			// Crash simulation: drop everything on the floor exactly as
			// a SIGKILL would — no snapshot, no final sync.
			_ = in.log.f.Close()
			cmd.done <- nil
			return
		}
	}
}

// decide serves one decision. In client mode the open round is returned
// idempotently until its feedback arrives; in env mode the round is
// closed immediately with environment samples and logged before the
// response is sent, so a served decision is always re-derivable.
func (in *Instance) decide(withCtx bool) decideResp {
	run := in.b.run
	t, action, err := run.Decide()
	if err != nil {
		return decideResp{err: err}
	}
	closure, err := run.PendingClosure()
	if err != nil {
		return decideResp{err: err}
	}
	dec := Decision{
		Instance: in.spec.ID, T: t, Action: action,
		Arms:    append([]int(nil), in.b.arms(action)...),
		Closure: append([]int(nil), closure...),
	}
	if in.spec.Contextual() {
		// The context must be captured before env-mode feedback closes
		// the round; the hash is always reported, the vectors only when
		// asked for.
		rc, err := run.PendingContext()
		if err != nil {
			return decideResp{err: err}
		}
		dec.ContextHash = contextHash(rc)
		if withCtx {
			dec.Context = contextRows(rc)
		}
	}
	if in.spec.Feedback == FeedbackEnv {
		obsv, err := run.AutoFeedback()
		if err != nil {
			return decideResp{err: err}
		}
		values := make([]float64, len(obsv))
		for i, o := range obsv {
			values[i] = o.Value
		}
		if err := in.log.append(t, action, values); err != nil {
			return decideResp{err: err}
		}
		dec.Values = values
		in.afterClose()
	} else {
		dec.Open = true
		if in.pendingSince.IsZero() {
			in.pendingSince = time.Now()
		}
	}
	in.decisions++
	if in.m != nil {
		in.m.decisions.Inc()
	}
	return decideResp{dec: dec}
}

// feedback applies one batched feedback item. Outcomes are counted, not
// errored: "applied" closes the open round, "stale" is a duplicate of an
// already-closed round (harmless — retries are expected), "mismatch"
// names a round or action that was never served, and "invalid" fails
// validation (wrong value count, non-finite values, env-mode instance).
func (in *Instance) feedback(fb FeedbackItem) {
	outcome := in.applyFeedback(fb)
	switch outcome {
	case "applied":
		in.fbApplied++
	case "stale":
		in.fbStale++
	case "mismatch":
		in.fbMismatch++
	default:
		in.fbInvalid++
	}
	if in.m != nil {
		in.m.feedback(outcome).Inc()
	}
}

func (in *Instance) applyFeedback(fb FeedbackItem) string {
	if in.spec.Feedback != FeedbackClient {
		return "invalid"
	}
	run := in.b.run
	pt, pa, open := run.Pending()
	if !open {
		if fb.T <= run.Round() {
			return "stale"
		}
		return "mismatch"
	}
	if fb.T != pt || fb.Action != pa {
		if fb.T < pt {
			return "stale"
		}
		return "mismatch"
	}
	if fb.ContextHash != "" {
		if !in.spec.Contextual() {
			return "invalid"
		}
		rc, err := run.PendingContext()
		if err != nil {
			return "invalid"
		}
		if contextHash(rc) != fb.ContextHash {
			// The caller acted on features that are not this round's:
			// the same class of client error as a wrong (T, Action).
			return "mismatch"
		}
	}
	closure, err := run.PendingClosure()
	if err != nil || len(fb.Values) != len(closure) {
		return "invalid"
	}
	for _, v := range fb.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "invalid"
		}
	}
	if err := run.ApplyFeedback(fb.Values); err != nil {
		return "invalid"
	}
	if err := in.log.append(pt, pa, fb.Values); err != nil {
		// The round is closed in memory but not on disk; surface loudly
		// and stop accepting work rather than diverge from the log.
		in.emit(obs.Jot(obs.EvHealth, in.spec.ID, -1, pt, "log append failed: %v", err))
	}
	if in.m != nil && !in.pendingSince.IsZero() {
		in.m.feedbackLag.Observe(time.Since(in.pendingSince).Seconds())
	}
	in.pendingSince = time.Time{}
	in.afterClose()
	return "applied"
}

// afterClose runs the post-round bookkeeping: cadence snapshots.
func (in *Instance) afterClose() {
	if in.snapshotEvery > 0 && in.b.run.Round()-in.lastSnapshot >= in.snapshotEvery {
		if err := in.snapshot(); err != nil {
			in.emit(obs.Jot(obs.EvHealth, in.spec.ID, -1, in.b.run.Round(), "snapshot failed: %v", err))
		}
	}
}

// Snapshot is the on-disk cross-check written beside the log: the
// instance's aggregate state at a known round, bound to the spec hash.
// It is not needed for restore — the log is the state — but a replay
// that fails to reproduce it bit-for-bit refuses to serve.
type Snapshot struct {
	Spec   string              `json:"spec"`
	Rounds int                 `json:"rounds"`
	State  *sim.AggregateState `json:"state"`
}

// snapshot syncs the log and atomically writes the aggregate-state
// cross-check for the current round.
func (in *Instance) snapshot() error {
	if err := in.log.sync(); err != nil {
		return err
	}
	snap, err := currentSnapshot(in.b, in.hash)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(in.dir, SnapshotName), mustJSON(snap)); err != nil {
		return err
	}
	in.lastSnapshot = snap.Rounds
	in.snapshots++
	in.emit(obs.Jot(obs.EvInstanceSnapshot, in.spec.ID, -1, snap.Rounds, "hash=%s", in.hash))
	return nil
}

// currentSnapshot folds the runner's series into a 1-replication
// aggregate state — the exact JSON round-trip representation replay
// verification compares against.
func currentSnapshot(b *built, hash string) (*Snapshot, error) {
	agg, err := sim.AggregateSeries(b.run.Series())
	if err != nil {
		return nil, err
	}
	return &Snapshot{Spec: hash, Rounds: b.run.Round(), State: agg.State()}, nil
}

// readSnapshot loads and validates the snapshot file; a missing file is
// (nil, nil) — snapshots are a cross-check, not required state.
func readSnapshot(path, specHash string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	if snap.Spec != specHash {
		return nil, fmt.Errorf("serve: snapshot %s: spec hash %s does not match %s", path, snap.Spec, specHash)
	}
	if snap.State == nil || snap.Rounds < 0 {
		return nil, fmt.Errorf("serve: snapshot %s: malformed", path)
	}
	return &snap, nil
}

// contextHash fingerprints one round's feature context: sha256 over
// (T, K, D) and the raw float64 bits of every coordinate, truncated to 16
// hex digits like the spec hash. Contexts are pure functions of the spec
// and the round, so the hash is stable across replays and restarts.
func contextHash(rc *bandit.RoundContext) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range []uint64{uint64(rc.T), uint64(rc.K), uint64(rc.D)} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, x := range rc.X {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// contextRows copies the context into one row per arm for the wire.
func contextRows(rc *bandit.RoundContext) [][]float64 {
	rows := make([][]float64, rc.K)
	for i := range rows {
		rows[i] = append([]float64(nil), rc.Arm(i)...)
	}
	return rows
}

func mustJSON(v any) []byte {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		panic(fmt.Sprintf("serve: marshal: %v", err))
	}
	return append(data, '\n')
}

// writeFileAtomic writes via a temp file and rename so readers never
// observe a partial file — the same discipline the bench trajectory and
// shard records use.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
