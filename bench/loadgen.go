package bench

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Op is one operation a load generator issues; i numbers it within the
// step. It returns an error when the operation failed or was refused.
type Op func(ctx context.Context, i int64) error

// failLatency is the latency recorded for a failed or dropped operation:
// far beyond any latency limit, so a failure counts as missing it.
const failLatency = 10 * time.Second

// Sample is one operation of a load step; times are in seconds.
type Sample struct {
	// At places the operation in the step: when it was due (open loop) or
	// when it completed (closed loop), counted from the step's start.
	At float64
	// Latency runs from when the operation was due (open loop) or sent
	// (closed loop) until it completed; failLatency when it failed.
	Latency float64
	// Lag runs from when an open-loop operation was due until it was sent:
	// how late the generator ran, including any wait for a free connection.
	Lag    float64
	Failed bool
}

// StepResult is what one load step measured.
type StepResult struct {
	Rate      float64
	Attempted int64
	Failed    int64
	Samples   []Sample
	// Span is the stretch of the step that At falls in: the arrival
	// schedule (open loop) or the sending time (closed loop).
	Span time.Duration
	// Wall is the step's duration from start to the last completion.
	Wall time.Duration
	// CPUFrac is the generator process's CPU time over Wall × NumCPU.
	CPUFrac float64
}

// Completed is the number of operations that succeeded.
func (s StepResult) Completed() int64 { return s.Attempted - s.Failed }

// completedPerS is the step's throughput over its whole wall time.
func (s StepResult) completedPerS() float64 { return float64(s.Completed()) / s.Wall.Seconds() }

// Latencies returns every operation's latency.
func (s StepResult) Latencies() []float64 {
	out := make([]float64, len(s.Samples))
	for i, x := range s.Samples {
		out[i] = x.Latency
	}
	return out
}

// Lags returns every operation's generator lag.
func (s StepResult) Lags() []float64 {
	out := make([]float64, len(s.Samples))
	for i, x := range s.Samples {
		out[i] = x.Lag
	}
	return out
}

// stepWindow is the width of the windows a load step is cut into.
const stepWindow = 250 * time.Millisecond

// windows cuts the step's span into equal windows of about stepWindow (at
// least one). A window holds the latencies of the operations placed in it,
// and its rate is the operations in it that succeeded per second. An
// operation completing after the span counts in the last window.
func (s StepResult) windows() []window {
	n := atLeast(int(s.Span/stepWindow), 1)
	width := s.Span.Seconds() / float64(n)
	ws := make([]window, n)
	for _, x := range s.Samples {
		i := int(x.At / width)
		if i >= n {
			i = n - 1
		}
		ws[i].lat = append(ws[i].lat, x.Latency)
		if !x.Failed {
			ws[i].rate++
		}
	}
	for i := range ws {
		ws[i].rate /= width
	}
	return ws
}

// OpenLoop issues operations on a seeded Poisson arrival schedule,
// independent of how fast they complete — independent users. Each
// operation is timed from its due time, so a stall that delays the
// operations queued behind it shows in their latency (no coordinated
// omission).
type OpenLoop struct {
	// Rate is the mean arrival rate per second.
	Rate float64
	// Duration bounds the arrival schedule: arrivals fall in [0, Duration).
	Duration time.Duration
	// Conns caps operations in flight; an arrival waits for a free one.
	Conns int
	// Seed fixes the arrival schedule.
	Seed uint64
	// Grace is how long after Duration queued arrivals may still start;
	// later ones are dropped and count as failed, which bounds a step that
	// offers more than the system can take.
	Grace time.Duration
}

type arrival struct {
	i   int64
	due time.Time
}

// Run executes the step and returns once every arrival has completed or
// been dropped.
func (o OpenLoop) Run(ctx context.Context, op Op) StepResult {
	conns := atLeast(o.Conns, 1)
	r := rand.New(rand.NewSource(int64(o.Seed)))
	// The queue is sized to the expected number of arrivals, so the
	// dispatcher almost never blocks however far the connections fall
	// behind; when it does, due times still come from the schedule, so no
	// delay goes unmeasured.
	queue := make(chan arrival, int(o.Rate*o.Duration.Seconds())+16)
	cpu0 := selfCPU()
	start := time.Now()
	stopAt := start.Add(o.Duration + o.Grace)
	go func() {
		defer close(queue)
		offset := 0.0
		for i := int64(0); ; i++ {
			offset += r.ExpFloat64() / o.Rate
			if offset >= o.Duration.Seconds() {
				return
			}
			due := start.Add(time.Duration(offset * float64(time.Second)))
			sleepUntil(due)
			if ctx.Err() != nil {
				return
			}
			queue <- arrival{i: i, due: due}
		}
	}()
	res := o.drain(ctx, conns, queue, start, stopAt, op)
	res.Rate = o.Rate
	res.Span = o.Duration
	res.Wall = time.Since(start)
	res.CPUFrac = cpuFrac(selfCPU()-cpu0, res.Wall)
	return res
}

// drain runs the connection workers over the arrival queue.
func (o OpenLoop) drain(ctx context.Context, conns int, queue <-chan arrival, start, stopAt time.Time, op Op) StepResult {
	parts := make([]StepResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(part *StepResult) {
			defer wg.Done()
			for a := range queue {
				send := time.Now()
				x := Sample{At: a.due.Sub(start).Seconds(), Lag: send.Sub(a.due).Seconds()}
				if send.After(stopAt) || ctx.Err() != nil {
					x.Failed = true
				} else {
					x.Failed = op(ctx, a.i) != nil
				}
				x.Latency = time.Since(a.due).Seconds()
				part.add(x)
			}
		}(&parts[w])
	}
	wg.Wait()
	return merge(parts)
}

// ClosedLoop runs conns callers that each send the next operation as soon
// as the previous one completes, for d — callers that wait for a reply.
// Latency is timed from send.
func ClosedLoop(ctx context.Context, conns int, d time.Duration, op Op) StepResult {
	conns = atLeast(conns, 1)
	parts := make([]StepResult, conns)
	var next atomic.Int64
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(part *StepResult) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := next.Add(1) - 1
				t0 := time.Now()
				err := op(ctx, i)
				end := time.Now()
				part.add(Sample{At: end.Sub(start).Seconds(), Latency: end.Sub(t0).Seconds(), Failed: err != nil})
			}
		}(&parts[w])
	}
	wg.Wait()
	res := merge(parts)
	res.Span = d
	res.Wall = time.Since(start)
	res.CPUFrac = cpuFrac(selfCPU()-cpu0, res.Wall)
	return res
}

// add counts one operation; a failed one gets failLatency.
func (s *StepResult) add(x Sample) {
	s.Attempted++
	if x.Failed {
		s.Failed++
		x.Latency = failLatency.Seconds()
	}
	s.Samples = append(s.Samples, x)
}

// sleepUntil blocks the calling thread in nanosleep until t. Go timers
// wake an idle process on the network poller's millisecond tick, which
// would make the generator itself up to a millisecond late; the kernel's
// high-resolution sleep is late by its timer slack (about 50µs) instead.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func merge(parts []StepResult) StepResult {
	var out StepResult
	for _, p := range parts {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		out.Samples = append(out.Samples, p.Samples...)
	}
	return out
}

func cpuFrac(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return cpu.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
}
