package bench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers every request at once except the stallAt-th, which
// it holds for stall.
func stallServer(t *testing.T, stallAt int64, stall time.Duration) Op {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	client := srv.Client()
	return func(ctx context.Context, i int64) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}
}

func countAtLeast(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x >= v {
			n++
		}
	}
	return n
}

// TestOpenLoopChargesStallToQueuedRequests injects one 50ms stall into a
// fake server behind a single connection. An open loop keeps arrivals on
// schedule, so the requests due during the stall wait for it and their
// latency — timed from when they were due — shows it, as does the
// generator's lag. A closed loop issues nothing while it waits, so it
// records the stall once.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	ctx := context.Background()
	open := OpenLoop{Rate: 1000, Duration: 500 * time.Millisecond, Conns: 1, Seed: 1, Grace: time.Second}.
		Run(ctx, stallServer(t, 50, stall))
	if open.Failed != 0 || open.Attempted < 300 {
		t.Fatalf("open loop: %d attempted, %d failed", open.Attempted, open.Failed)
	}
	if got := countAtLeast(open.Latencies(), stall.Seconds()); got < 1 {
		t.Errorf("no request took the %v stall", stall)
	}
	// At 1000/s about 50 arrivals fall due during the stall; at least ten
	// must have waited more than 10ms for it.
	if got := countAtLeast(open.Latencies(), 0.010); got < 10 {
		t.Errorf("%d requests waited ≥10ms behind the stall, want ≥10 (coordinated omission)", got)
	}
	lag := NearestRank(open.Lags(), 99)
	if lag.Value < 0.010 {
		t.Errorf("lag p99 = %.2fms over %d samples, want ≥10ms: the generator's lateness behind the stall is hidden", lag.Value*1e3, lag.N)
	}

	closed := ClosedLoop(ctx, 1, 300*time.Millisecond, stallServer(t, 50, stall))
	if got := countAtLeast(closed.Latencies(), 0.010); got != 1 {
		t.Errorf("closed loop recorded %d slow requests, want exactly the stalled one", got)
	}
}

// TestBestWindows cuts a 1s closed-loop step into four 250ms windows whose
// operations take 3, 1, 2 and 5ms. Window 1 has one failure among its 40;
// window 3, disturbed, completes only 20, plus one after the span.
func TestBestWindows(t *testing.T) {
	s := StepResult{Span: time.Second}
	width := stepWindow.Seconds()
	for w, lat := range []float64{0.003, 0.001, 0.002, 0.005} {
		n := 40
		if w == 3 {
			n = 20
		}
		for k := 0; k < n; k++ {
			s.add(Sample{At: (float64(w) + (float64(k)+0.5)/float64(n)) * width, Latency: lat, Failed: w == 1 && k == 0})
		}
	}
	s.add(Sample{At: 1.1, Latency: 0.005})
	ws := s.windows()
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4", len(ws))
	}
	if got, want := bestRate(ws), 40/width; got != want {
		t.Errorf("bestRate = %g, want %g", got, want)
	}
	if got := ws[3].rate; got != 21/width {
		t.Errorf("window 3 rate = %g, want %g with the late completion", got, 21/width)
	}
	// Window 1 alone gives a median with 20 samples beyond it.
	if got := bestPct(ws, 50); got.Value != 0.001 || got.N != 40 || got.Beyond != 20 {
		t.Errorf("best p50 = %+v, want 1ms over window 1's 40 samples", got)
	}
	// A p90 with ten samples beyond needs windows 1, 2 and 0 together.
	if got := bestPct(ws, 90); got.Value != 0.003 || got.N != 120 || got.Beyond != 12 {
		t.Errorf("best p90 = %+v, want 3ms over 120 samples, 12 beyond", got)
	}
	if got := NearestRank(pooled(ws), 100); got.Value != failLatency.Seconds() || got.N != 141 {
		t.Errorf("pooled p100 = %+v, want the failure over all 141 samples", got)
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct {
		p             float64
		value         float64
		n, beyondWant int
	}{
		{50, 50, 100, 50},
		{99, 99, 100, 1},
		{100, 100, 100, 0},
		{1, 1, 100, 99},
	} {
		got := NearestRank(xs, tc.p)
		if got.Value != tc.value || got.N != tc.n || got.Beyond != tc.beyondWant {
			t.Errorf("p%g = %+v, want value %g n %d beyond %d", tc.p, got, tc.value, tc.n, tc.beyondWant)
		}
	}
	// p99 of 1000 samples rests on exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := NearestRank(big, 99); got.Value != 990 || got.Beyond != 10 {
		t.Errorf("p99 of 1..1000 = %+v, want 990 with 10 beyond", got)
	}
}

// TestPercentilesLeaveInputAlone guards the sample order callers rely on.
func TestPercentilesLeaveInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	NearestRank(xs, 50)
	Median(xs)
	Quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered to %v", xs)
	}
}
