package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SampleEvery is the sampling rate of per-round and per-request spans: one
// in SampleEvery is kept. Counters and busy totals still cover every call.
const SampleEvery = 1024

// Span is one timed interval the benchmark recorded around a call into a
// layer. Spans of one request (a replication, a shard job, a client round)
// share Req; Parent is the ID of the span that caused this one, 0 for a
// root.
type Span struct {
	Name   string
	ID     int64
	Parent int64
	Req    int64
	Start  time.Time
	End    time.Time
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and pay one branch per call site.
type Tracer struct {
	start time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer anchored at the current time.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// NewID reserves a span ID, for spans whose children finish before they do.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span under a reserved ID (0 reserves a new one)
// and returns its ID.
func (t *Tracer) Add(name string, id, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover
// (children may overlap one another, as parallel replications do).
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(parent.Start) {
			start = parent.Start
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if !end.After(start) {
			continue
		}
		if curEnd.IsZero() || start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = start, end
		} else if end.After(curEnd) {
			curEnd = end
		}
	}
	return total + curEnd.Sub(curStart)
}

// chromeEvent is one event of the Chrome trace-event format, which
// chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the spans to path in Chrome trace-event format, as
// one process named after the workload with one row per request and
// timestamps in microseconds since the tracer started. A nil tracer writes
// nothing.
func (t *Tracer) WriteChrome(path, workload string) error {
	if t == nil {
		return nil
	}
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": workload}}}
	for _, s := range t.Spans() {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Sub(t.start).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Req,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
