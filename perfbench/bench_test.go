package main

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed: summarize must sort
		}
		return v
	}
	for _, c := range []struct {
		n     int
		tailP int
		tail  float64
	}{
		{19, 0, 0},      // not even the median has 10 beyond
		{20, 500, 10},   // p50: 10 beyond
		{99, 500, 50},   // p90 would leave 9 beyond
		{100, 900, 90},  // p90: exactly 10 beyond
		{999, 900, 900}, // p99 would leave 9 beyond
		{1000, 990, 990},
		{10000, 999, 9990},
	} {
		d := summarize(seq(c.n))
		if d.N != c.n || d.TailP != c.tailP || d.Tail != c.tail {
			t.Errorf("n=%d: got N=%d tail p%d=%v, want p%d=%v", c.n, d.N, d.TailP, d.Tail, c.tailP, c.tail)
		}
	}
	if d := summarize(seq(100)); d.P50 != 50 || d.P90 != 90 || d.P99 != 99 {
		t.Errorf("nearest rank on 1..100: p50=%v p90=%v p99=%v", d.P50, d.P90, d.P99)
	}
	if got := beyond(100, 900); got != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	children := []span{
		{Start: at(10), End: at(40)},
		{Start: at(30), End: at(50)},  // overlaps the first: 10..50 covered once
		{Start: at(90), End: at(120)}, // clipped to the parent: 90..100
		{Start: at(60), End: at(60)},  // empty
	}
	if got, want := selfTime(parent, children), 50*time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self time without children = %v", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := smallSchedule(7, 5*time.Second), smallSchedule(7, 5*time.Second); !reflect.DeepEqual(a, b) || len(a) == 0 {
		t.Fatalf("small-openloop schedules differ for one seed (%d vs %d arrivals)", len(a), len(b))
	}
	if a, b := smallSchedule(7, 5*time.Second), smallSchedule(8, 5*time.Second); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if a, b := modesSchedule(7, 5*time.Second), modesSchedule(7, 5*time.Second); !reflect.DeepEqual(a, b) {
		t.Fatal("small-modes schedules differ for one seed")
	}
	for c := 0; c < 2; c++ {
		x, y := catalogOrder(3, c), catalogOrder(3, c)
		for i := 0; i < 40; i++ {
			if a, b := x(), y(); a != b {
				t.Fatalf("catalog client %d step %d: %v vs %v", c, i, a, b)
			}
		}
	}
	for k := 0; k < churnSpecs; k++ {
		if a, b := churnSpec(5, k), churnSpec(5, k); string(a) != string(b) {
			t.Fatalf("churn spec %d differs for one seed", k)
		}
	}
}

// fakeClock advances only when the generator sleeps; each sleep
// overshoots by the next stall, as a descheduled generator would.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	stalls []time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	if len(c.stalls) > 0 {
		c.now = c.now.Add(c.stalls[0])
		c.stalls = c.stalls[1:]
	}
	return nil
}

func TestOpenLoopLatenessAgainstFakeClock(t *testing.T) {
	msec := time.Millisecond
	clk := &fakeClock{now: time.Unix(100, 0), stalls: []time.Duration{0, 15 * msec, 0, 0}}
	arr := []arrival{{At: 0}, {At: 10 * msec}, {At: 20 * msec}, {At: 30 * msec}}
	out := make(chan ticket, len(arr))
	start := clk.Now()
	late := dispatch(context.Background(), clk, start, arr, out)
	// The 15ms stall on the second release also makes the third late:
	// it was due at 20ms and the generator only got to it at 25ms.
	want := []time.Duration{0, 15 * msec, 5 * msec, 0}
	if !reflect.DeepEqual(late, want) {
		t.Fatalf("lateness = %v, want %v", late, want)
	}
	var tickets []ticket
	for tk := range out {
		tickets = append(tickets, tk)
	}
	if len(tickets) != 4 || !tickets[2].Due.Equal(start.Add(20*msec)) || tickets[2].lateness() != 5*msec {
		t.Fatalf("tickets = %+v", tickets)
	}
	// A request sent at release and answered 8ms later is charged from
	// its due time: 5ms of generator lateness plus 8ms of service.
	if got := tickets[2].Released.Add(8 * msec).Sub(tickets[2].Due); got != 13*msec {
		t.Fatalf("latency from due = %v, want 13ms", got)
	}
}

func TestOpenLoopDropsStaleArrivals(t *testing.T) {
	msec := time.Millisecond
	// Every release overshoots by 2s; with maxWait 1s each queued
	// arrival is stale by the time a worker looks at it.
	clk := &fakeClock{now: time.Unix(0, 0), stalls: []time.Duration{2000 * msec, 2000 * msec, 2000 * msec}}
	arr := []arrival{{At: 0}, {At: msec}, {At: 2 * msec}}
	sent := 0
	res := runOpenLoop(context.Background(), clk, arr, 1, time.Second, nil, func(ticket) { sent++ })
	if res.Dropped+sent != len(arr) || len(res.Late) != len(arr) {
		t.Fatalf("dropped %d + sent %d != %d arrivals", res.Dropped, sent, len(arr))
	}
	if res.Dropped == 0 {
		t.Fatal("stale arrivals were sent, not dropped")
	}
}

// loadPhase makes one outcome every 10ms over n windows of windowLen
// from t0, with latency lat(window, k) ms; window i has steal[i]%.
func loadPhase(t0 time.Time, steal []float64, lat func(w, k int) float64) ([]outcome, []window) {
	var outs []outcome
	var wins []window
	per := int(windowLen / (10 * time.Millisecond))
	for w := range steal {
		start := t0.Add(time.Duration(w) * windowLen)
		wins = append(wins, window{Start: start, End: start.Add(windowLen), StealPct: steal[w]})
		for k := 0; k < per; k++ {
			outs = append(outs, outcome{At: start.Add(time.Duration(k) * 10 * time.Millisecond), OK: true, LatMs: lat(w, k)})
		}
	}
	return outs, wins
}

// rowValue is the value of the report row name, NaN if there is none.
func rowValue(b *bench, name string) float64 {
	for _, r := range b.rows {
		if r.Name == name {
			return r.Value
		}
	}
	return math.NaN()
}

func TestLatencyP50IsMedianOfWindowMedians(t *testing.T) {
	// The second window ran under heavy steal and read 100x slow. The
	// median of the window medians leaves it out; the pooled tail
	// percentiles do not.
	outs, wins := loadPhase(time.Unix(0, 0), []float64{0.5, 20, 0.1, 1.0, 0.3}, func(w, k int) float64 {
		v := float64(k%100) / 10
		if w == 1 {
			v *= 100
		}
		return v
	})
	b := newBench("test", 1, 25, false, t.TempDir())
	b.latencyMetrics(outs, len(outs), wins, "test")
	if got := b.metrics["latency_p50_ms"].Value; got != 4.9 {
		t.Errorf("latency_p50_ms = %v, want 4.9", got)
	}
	if got := rowValue(b, "latency_p90_ms"); got <= 9.9 {
		t.Errorf("latency_p90_ms = %v, want it from the slow window", got)
	}
	want := float64(5*int(windowLen/(10*time.Millisecond))) / (5 * windowLen.Seconds())
	if got := rowValue(b, "throughput_rps"); got != want {
		t.Errorf("throughput_rps = %v, want %v", got, want)
	}
	if len(b.problems) != 0 {
		t.Errorf("steal made the run incorrect: %v", b.problems)
	}
}

func TestFailedOperationMissesEveryLimit(t *testing.T) {
	// A quarter of the operations fail: they count as the client
	// timeout, so p90 reads it, and the run is invalid.
	outs, wins := loadPhase(time.Unix(0, 0), []float64{0, 0, 0}, func(w, k int) float64 { return 5 })
	for i := range outs {
		if i%4 == 0 {
			outs[i].OK, outs[i].Why = false, "status 503"
		}
	}
	b := newBench("test", 1, 32, false, t.TempDir())
	b.latencyMetrics(outs, len(outs), wins, "test")
	if got := rowValue(b, "latency_p90_ms"); got != failedLatMs {
		t.Errorf("latency_p90_ms = %v, want the client timeout %v", got, failedLatMs)
	}
	if got := b.metrics["latency_p50_ms"].Value; got != 5 {
		t.Errorf("latency_p50_ms = %v, want 5", got)
	}
	if len(b.problems) == 0 || b.failed != int64(len(outs)/4) {
		t.Errorf("problems %v, failed %d, want invalid with %d failed", b.problems, b.failed, len(outs)/4)
	}
}

func TestWindowsOfDropsShortTail(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := []stealSample{
		{At: t0, Steal: 0, Total: 0},
		{At: t0.Add(windowLen), Steal: 5, Total: 1000},
		{At: t0.Add(windowLen + windowLen/4), Steal: 5, Total: 1200},
	}
	w := windowsOf(s, windowLen)
	if len(w) != 1 || w[0].StealPct != 0.5 {
		t.Fatalf("windows = %+v, want one window at 0.5%%", w)
	}
}

func TestMissingSpanMakesRunIncorrect(t *testing.T) {
	t0 := time.Unix(0, 0)
	client := span{Layer: "client", Op: "invoke", Trace: "x", Start: t0, End: t0.Add(10 * time.Millisecond)}
	daemon := span{Layer: "daemon", Op: "invoke", Trace: "x", Start: t0.Add(time.Millisecond), End: t0.Add(8 * time.Millisecond)}
	ref := func(tuple) (float64, bool) { return 0, false }
	b := newBench("test", 1, 1, true, t.TempDir())
	b.requestLayers([]span{daemon}, map[string]span{"x": client}, &tier{}, ref, nil)
	if len(b.problems) != 0 {
		t.Fatalf("joined spans flagged: %v", b.problems)
	}
	// The trace id did not reach the daemon: the served request has no
	// daemon span.
	b.requestLayers(nil, map[string]span{"x": client}, &tier{}, ref, nil)
	if len(b.problems) == 0 {
		t.Error("a served request without a daemon span passed")
	}
}
