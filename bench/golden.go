package bench

import (
	_ "embed"
	"encoding/json"
)

// golden.json pins the sha256 of each deterministic workload output (the
// sweep JSON of one pass, the shard merge) for one seed at scale 1. A
// change that alters any of these outputs changes a golden of the
// repository, which its determinism contract forbids; regenerate the pins
// only together with a deliberate, documented change of the outputs.
//
//go:embed golden.json
var goldenRaw []byte

type goldenFile struct {
	Seed   uint64            `json:"seed"`
	SHA256 map[string]string `json:"sha256"`
}

// checkPinned compares an output hash with its pin when the run uses the
// pinned seed at scale 1.
func (w *run) checkPinned(name, got string) {
	var g goldenFile
	if err := json.Unmarshal(goldenRaw, &g); err != nil {
		w.rec.check("pinned-"+name, false, "golden.json: %v", err)
		return
	}
	want, ok := g.SHA256[name]
	switch {
	case w.cfg.Seed != g.Seed || w.cfg.Scale != 1:
		w.rec.check("pinned-"+name, true, "not checked: pins are for seed %d at scale 1", g.Seed)
	case !ok:
		w.rec.check("pinned-"+name, false, "golden.json has no pin for %s", name)
	default:
		w.rec.check("pinned-"+name, got == want, "sha256 %s, pinned %s", short(got), short(want))
	}
}

func short(h string) string {
	if len(h) > 16 {
		return h[:16]
	}
	return h
}
