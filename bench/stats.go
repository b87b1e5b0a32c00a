package bench

import (
	"math"
	"sort"
)

// Pct is one nearest-rank percentile of a sample, reported with the sample
// size and the number of samples ranked above it, so a reader can tell a
// p99 resting on ten samples beyond it from one resting on none.
type Pct struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// sorted returns a sorted copy of xs, so the statistics below leave their
// inputs alone.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// NearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the sample
// at or below it.
func NearestRank(xs []float64, p float64) Pct {
	xs = sorted(xs)
	n := len(xs)
	if n == 0 {
		return Pct{P: p}
	}
	// The epsilon keeps p·n/100 that is integral in exact arithmetic from
	// rounding up past it in floating point (99·1000/100 → 990.0000001).
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Pct{P: p, Value: xs[rank-1], N: n, Beyond: n - rank}
}

// Median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for no samples.
func Median(xs []float64) float64 {
	xs = sorted(xs)
	n := len(xs)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return xs[n/2]
	default:
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// A window is one slice of a run's measured work: a sweep pass, a shard
// job, or an equal slice of time of a serve load step.
type window struct {
	rate float64   // work done per second in the window
	lat  []float64 // latency samples of the window's operations
}

// The sweep and shard workloads report their timing metrics from their
// best windows. Neighbours on a shared host only ever slow a window down,
// and on the two-vCPU guest the benchmark was built on they did so for
// stretches from a second to minutes, by up to 2×. A run's mean or median
// then depends on how much of its 20 s fell in such a stretch. Its best
// window depends only on whether any window ran undisturbed, which nearly
// every run has. The serve workloads report the whole run instead, so a
// recurring stall of the service (a snapshot, an fsync, a backlog) shows
// in their contract metrics.

// bestRate returns the highest rate any window reached.
func bestRate(ws []window) float64 {
	best := math.NaN()
	for i, w := range ws {
		if i == 0 || w.rate > best {
			best = w.rate
		}
	}
	return best
}

// minBeyond is the fewest samples a reported percentile rests on beyond it.
const minBeyond = 10

// bestPct returns the p-th percentile of the best windows: those with the
// lowest p-th percentile of their own, as few as together hold minBeyond
// samples beyond their joint p-th percentile (or all of them).
func bestPct(ws []window, p float64) Pct {
	type ranked struct {
		v   float64
		lat []float64
	}
	var rs []ranked
	for _, w := range ws {
		if len(w.lat) > 0 {
			rs = append(rs, ranked{NearestRank(w.lat, p).Value, w.lat})
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].v < rs[j].v })
	var pool []float64
	best := Pct{P: p, Value: math.NaN()}
	for _, r := range rs {
		pool = append(pool, r.lat...)
		if best = NearestRank(pool, p); best.Beyond >= minBeyond {
			break
		}
	}
	return best
}

// pooled returns every window's latency samples in one slice.
func pooled(ws []window) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.lat...)
	}
	return out
}

// Quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so spreads computed here agree with any
// external check that uses Python. xs must hold at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = sorted(xs)
	ld := len(xs)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
