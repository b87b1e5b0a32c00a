package bench

import (
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := Quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// runsOf builds n untraced results of one workload whose metric m takes
// the values f(i).
func runsOf(n int, m string, f func(i int) float64) map[string][]*Result {
	var out []*Result
	for i := 0; i < n; i++ {
		out = append(out, &Result{Workload: "w", Metrics: []Metric{{Name: m, Value: f(i)}}})
	}
	return map[string][]*Result{"w": out}
}

func TestCompareVerdicts(t *testing.T) {
	bounds := []Bound{{Name: "rate", Better: "higher", Bound: 0.1}}
	jitter := func(i int) float64 { return float64(i%3) - 1 } // -1, 0, 1
	parent := runsOf(10, "rate", func(i int) float64 { return 100 + jitter(i) })
	for _, tc := range []struct {
		name   string
		change func(i int) float64
		want   string
	}{
		{"gain", func(i int) float64 { return 110 + jitter(i) }, "gain"},
		{"same", func(i int) float64 { return 100 + jitter(i+1) }, "no regression"},
		{"small loss within bound", func(i int) float64 { return 95 + jitter(i) }, "no regression"},
		{"regression", func(i int) float64 { return 80 + jitter(i) }, "regression"},
		{"too noisy", func(i int) float64 { return 100 + 30*jitter(i) }, "unresolved"},
		{"noisy but always better", func(i int) float64 { return 130 + 10*jitter(i) }, "gain"},
	} {
		vs, err := Compare(parent, runsOf(10, "rate", tc.change), bounds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(vs) != 1 || vs[0].Verdict != tc.want {
			t.Errorf("%s: verdicts %+v, want %q", tc.name, vs, tc.want)
		}
	}
	if _, err := Compare(parent, runsOf(9, "rate", func(int) float64 { return 100 }), bounds); err == nil {
		t.Error("nine pairs accepted, want an error below MinPairs")
	}
	lower := []Bound{{Name: "lat", Better: "lower", Bound: 0.1}}
	vs, err := Compare(runsOf(10, "lat", func(int) float64 { return 2 }), runsOf(10, "lat", func(int) float64 { return 2.4 }), lower)
	if err != nil || vs[0].Verdict != "regression" {
		t.Errorf("latency up 20%% against a 10%% bound: %+v, %v", vs, err)
	}
}

func TestCompareSetupFloor(t *testing.T) {
	bounds := []Bound{{Name: "setup_s", Better: "lower", Bound: 0.25}}
	// A millisecond set-up that doubles, with jitter as wide as itself, is
	// within the 50 ms floor: neither a regression nor unresolved.
	parent := runsOf(10, "setup_s", func(i int) float64 { return 0.001 * float64(1+i%2) })
	vs, err := Compare(parent, runsOf(10, "setup_s", func(i int) float64 { return 0.002 * float64(1+i%2) }), bounds)
	if err != nil || vs[0].Verdict != "no regression" {
		t.Errorf("1 ms set-up doubled: %+v, %v; want no regression", vs, err)
	}
	// Beyond the floor, the relative bound applies.
	vs, err = Compare(runsOf(10, "setup_s", func(int) float64 { return 1 }), runsOf(10, "setup_s", func(int) float64 { return 1.3 }), bounds)
	if err != nil || vs[0].Verdict != "regression" {
		t.Errorf("1 s set-up up 30%%: %+v, %v; want regression", vs, err)
	}
}

func TestSelfTimesSubtractCoveredInterval(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	spans := []Span{
		{Name: "pass", ID: 1, Start: at(0), End: at(100)},
		// Two overlapping children cover [10, 70); one spills past the end.
		{Name: "rep", ID: 2, Parent: 1, Start: at(10), End: at(50)},
		{Name: "rep", ID: 3, Parent: 1, Start: at(30), End: at(70)},
		{Name: "rep", ID: 4, Parent: 1, Start: at(90), End: at(120)},
	}
	self := SelfTimes(spans)
	if got := self["pass"]; got != 30*time.Millisecond {
		t.Errorf("pass self = %v, want 30ms (100 − [10,70) − [90,100))", got)
	}
	if got := self["rep"]; got != 110*time.Millisecond {
		t.Errorf("rep self = %v, want 110ms (childless: their full durations)", got)
	}
}
