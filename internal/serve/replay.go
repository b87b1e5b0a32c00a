package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"netbandit/internal/sim"
)

// replayLog streams the decision log at path through b, a freshly built
// runner, proving the log re-derives the served history: every Decide
// must return exactly the logged (t, action), env-mode feedback must
// resample bit-identical values, and when a snapshot exists the
// aggregate state at its round must reproduce it byte-for-byte. Any
// divergence is an error; the caller must refuse to serve. The returned
// scan locates where appending resumes.
func replayLog(b *built, spec *Spec, path string, snap *Snapshot) (logScan, error) {
	check := func() error {
		if snap == nil || b.run.Round() != snap.Rounds {
			return nil
		}
		cur, err := currentSnapshot(b, snap.Spec)
		if err != nil {
			return err
		}
		if !bytes.Equal(mustJSON(cur.State), mustJSON(snap.State)) {
			return fmt.Errorf("serve: replay diverged from snapshot at round %d: aggregate state differs", snap.Rounds)
		}
		return nil
	}
	if err := check(); err != nil {
		return logScan{}, err
	}
	sc, err := scanLog(path, spec.Hash(), func(r *decRound) error {
		t, action, err := b.run.Decide()
		if err != nil {
			return fmt.Errorf("serve: replay round %d: %w", r.T, err)
		}
		if t != r.T || action != r.A {
			return fmt.Errorf("serve: replay diverged at round %d: re-derived (t=%d, action=%d), log says (t=%d, action=%d)",
				r.T, t, action, r.T, r.A)
		}
		closure, err := b.run.PendingClosure()
		if err != nil {
			return err
		}
		if len(closure) != len(r.V) {
			return fmt.Errorf("serve: replay round %d: closure has %d arms, log has %d values", r.T, len(closure), len(r.V))
		}
		if spec.Feedback == FeedbackEnv {
			obsv, err := b.run.AutoFeedback()
			if err != nil {
				return fmt.Errorf("serve: replay round %d: %w", r.T, err)
			}
			for i, o := range obsv {
				if math.Float64bits(o.Value) != math.Float64bits(r.V[i]) {
					return fmt.Errorf("serve: replay diverged at round %d: arm %d resampled %v, log says %v",
						r.T, closure[i], o.Value, r.V[i])
				}
			}
		} else if err := b.run.ApplyFeedback(r.V); err != nil {
			return fmt.Errorf("serve: replay round %d: %w", r.T, err)
		}
		return check()
	})
	if err != nil {
		return sc, err
	}
	if snap != nil && snap.Rounds > sc.Rounds {
		return sc, fmt.Errorf("serve: snapshot at round %d is ahead of the %d-round log", snap.Rounds, sc.Rounds)
	}
	return sc, nil
}

// loadSpec reads and normalizes an instance directory's spec.
func loadSpec(dir string) (Spec, error) {
	var spec Spec
	raw, err := os.ReadFile(filepath.Join(dir, SpecName))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("spec: %w", err)
	}
	return spec, spec.Normalize()
}

// VerifyResult reports one instance's offline replay audit.
type VerifyResult struct {
	ID              string `json:"id"`
	SpecHash        string `json:"spec_hash"`
	Rounds          int    `json:"rounds"`
	SnapshotChecked bool   `json:"snapshot_checked"`
}

// VerifyInstance replays one instance directory offline — the same
// verification a restarting server performs, exposed as an audit tool
// (`nbandit serve -replay`). It never mutates the directory.
func VerifyInstance(dir string) (*VerifyResult, error) {
	spec, err := loadSpec(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: verify %s: %w", dir, err)
	}
	hash := spec.Hash()
	snap, err := readSnapshot(filepath.Join(dir, SnapshotName), hash)
	if err != nil {
		return nil, err
	}
	b, err := spec.build()
	if err != nil {
		return nil, err
	}
	sc, err := replayLog(b, &spec, filepath.Join(dir, LogName), snap)
	if err != nil {
		return nil, err
	}
	return &VerifyResult{
		ID: spec.ID, SpecHash: hash, Rounds: sc.Rounds,
		SnapshotChecked: snap != nil,
	}, nil
}

// VerifyDir audits every instance under a server data directory,
// returning per-instance results in ID order. The first divergence
// aborts with an error naming the instance.
func VerifyDir(dir string) ([]*VerifyResult, error) {
	root := filepath.Join(dir, "instances")
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: verify %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	results := make([]*VerifyResult, 0, len(names))
	for _, name := range names {
		res, err := VerifyInstance(filepath.Join(root, name))
		if err != nil {
			return results, fmt.Errorf("instance %s: %w", name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// AggregateOf is a convenience for audits and tests: the aggregate
// state a verified instance directory's log replays to.
func AggregateOf(dir string) (*sim.AggregateState, error) {
	spec, err := loadSpec(dir)
	if err != nil {
		return nil, err
	}
	b, err := spec.build()
	if err != nil {
		return nil, err
	}
	if _, err := replayLog(b, &spec, filepath.Join(dir, LogName), nil); err != nil {
		return nil, err
	}
	snap, err := currentSnapshot(b, spec.Hash())
	if err != nil {
		return nil, err
	}
	return snap.State, nil
}
