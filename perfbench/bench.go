package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"faasnap/internal/daemon"
)

// A run sets its fleet up from scratch setupRounds times; setup_s is
// the median of the rounds, and the last round's tier serves the load.
const setupRounds = 5

// fleetFn is one function of a workload's fleet: a catalog function
// (Spec nil) or a custom spec body.
type fleetFn struct {
	Name string
	Spec json.RawMessage
}

// tuple is what one invocation served: function, mode and input.
type tuple struct {
	Fn    string
	Mode  string
	Input string
}

// outcome is one client operation and what came back.
type outcome struct {
	Tuple tuple
	Trace string
	At    time.Time // due time (open loop) or send (closed loop)
	LatMs float64   // from At
	Sent  time.Time
	Done  time.Time
	OK    bool
	Why   string // why it failed, when !OK
	Reply daemon.InvokeResponse
}

// row is one line of the human-readable report.
type row struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

// bench holds one run's state.
type bench struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	conns    int
	dir      string
	client   *http.Client
	rec      *recorder

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string // output-check failures; any makes the run incorrect

	rows     []row
	metrics  map[string]metric
	layerSet map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(workload string, seed int64, seconds int, traced bool, dir string) *bench {
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, traced: traced, dir: dir,
		conns:    runtime.NumCPU(),
		metrics:  map[string]metric{},
		layerSet: map[string]metric{},
	}
	b.client = newClient(b.conns)
	if traced {
		b.rec = &recorder{}
	}
	return b
}

// problem records an output-check failure.
func (b *bench) problem(format string, args ...interface{}) {
	b.invalidate(format, args...)
	b.mu.Lock()
	b.failed++
	b.mu.Unlock()
}

// invalidate records why the run is invalid without counting a failed
// operation: the operations behind it are counted already, or none
// failed.
func (b *bench) invalidate(format string, args ...interface{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// e2e sets an end-to-end metric (and its report row).
func (b *bench) e2e(name string, v float64, unit string, n int, note string) {
	v = zeroNaN(v) // no successful operation at all
	b.metrics[name] = metric{v, unit}
	b.rows = append(b.rows, row{name, v, unit, n, note})
}

// info adds a report-only row: a figure the report prints with its
// sample count but the JSON result does not carry.
func (b *bench) info(name string, v float64, unit string, n int, note string) {
	b.rows = append(b.rows, row{name, v, unit, n, note})
}

// layer sets a per-layer metric.
func (b *bench) layer(name string, v float64, unit string) {
	b.layerSet[name] = metric{v, unit}
}

// tierDir is a fresh directory for one tier's state.
func (b *bench) tierDir(round int) string {
	return filepath.Join(b.dir, fmt.Sprintf("tier-%d", round))
}

// setupFleet registers, records (input A) and warms (warmMode, input B)
// fns at base on b.conns workers. It returns each record call's
// latency in ms.
func (b *bench) setupFleet(ctx context.Context, base string, fns []fleetFn, warmMode string) ([]float64, error) {
	var (
		mu   sync.Mutex
		recs []float64
		wg   sync.WaitGroup
	)
	idx := make(chan fleetFn, len(fns))
	for _, f := range fns {
		idx <- f
	}
	close(idx)
	errs := make(chan error, b.conns)
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range idx {
				var body interface{}
				if f.Spec != nil {
					body = f.Spec
				}
				if _, err := mustOK(ctx, b.client, http.MethodPut, base+"/functions/"+f.Name, body); err != nil {
					errs <- err
					return
				}
				rc, err := mustOK(ctx, b.client, http.MethodPost, base+"/functions/"+f.Name+"/record", map[string]string{"input": "A"})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				recs = append(recs, ms(rc.Done.Sub(rc.Sent)))
				mu.Unlock()
				if _, err := mustOK(ctx, b.client, http.MethodPost, base+"/functions/"+f.Name+"/invoke",
					map[string]string{"mode": warmMode, "input": "B"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return recs, nil
}

// setUp builds the tier and fleet from an empty state directory
// setupRounds times and returns the last tier. setup_s is the median of
// the rounds; record latencies of every round are returned.
func (b *bench) setUp(ctx context.Context, sh shape, fleet func(t *tier) ([]float64, error)) (*tier, []float64, error) {
	var took, steal, recs []float64
	var t *tier
	for round := 0; round < setupRounds; round++ {
		if t != nil {
			t.close()
		}
		var err error
		if t, err = startTier(b.tierDir(round), sh, b.rec); err != nil {
			return nil, nil, err
		}
		// A traced run also captures the first round's record spans.
		first := round == 0 && b.rec != nil
		if first {
			b.rec.on.Store(true)
		}
		s0 := readSteal()
		r, err := fleet(t)
		s1 := readSteal()
		if first {
			b.rec.on.Store(false)
		}
		if err != nil {
			t.close()
			return nil, nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
		took = append(took, s1.At.Sub(s0.At).Seconds())
		steal = append(steal, stealPct(s0, s1))
		recs = append(recs, r...)
	}
	per := "per round, s / steal %:"
	for i := range took {
		per += fmt.Sprintf(" %.2f/%.1f", took[i], steal[i])
	}
	b.e2e("setup_s", median(took), "s", len(took), "median of set-up rounds from empty state; "+per)
	return t, recs, nil
}

// invoke sends one invoke and classifies the reply.
func (b *bench) invoke(ctx context.Context, base string, tp tuple, trace string) outcome {
	o := outcome{Tuple: tp, Trace: trace}
	res, err := do(ctx, b.client, http.MethodPost, base+"/functions/"+tp.Fn+"/invoke",
		map[string]string{"mode": tp.Mode, "input": tp.Input}, trace)
	o.Sent, o.Done = res.Sent, res.Done
	switch {
	case err != nil:
		o.Why = err.Error()
		o.Done = time.Now()
	case res.Status != http.StatusOK:
		o.Why = "status " + strconv.Itoa(res.Status)
	default:
		if err := json.Unmarshal(res.Body, &o.Reply); err != nil {
			o.Why = "undecodable reply: " + err.Error()
		} else if o.Reply.Degraded {
			o.Why = "degraded: " + o.Reply.DegradedReason + o.Reply.AgentError
		} else {
			o.OK = true
		}
	}
	return o
}

// clientTracePrefix marks the trace ids this client mints; the
// gateway mints "gw…" ids for requests that arrive without one.
const clientTracePrefix = "be"

// traceID mints the traceparent trace id of the i'th traced request.
// A traced run traces every other request of each client, so traced
// and untraced requests are served side by side; the difference
// between them is the tracing overhead.
func traceID(i int) string { return fmt.Sprintf("%s%030x", clientTracePrefix, i+1) }

// rssPeakMB is the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// latencyMetrics reports the served operations' latency and error
// figures. latency_p50_ms is the median over the load windows of each
// window's median, so one window spoilt by host steal does not move
// it; the tail percentiles and the throughput are over every window.
// A failed or refused operation makes the run incorrect.
func (b *bench) latencyMetrics(outs []outcome, attempted int, wins []window, from string) {
	// The virtual figure counts each served tuple once: its value is
	// exact per tuple, and weighting by request would let a seed's mix
	// flip the median between two far-apart tuples.
	virtOf := map[tuple]float64{}
	for _, o := range outs {
		if o.OK {
			virtOf[o.Tuple] = o.Reply.TotalMs
		}
	}
	var virt []float64
	for _, v := range virtOf {
		virt = append(virt, v)
	}
	all := perWindow(outs, wins)
	var lat, winP50, steal []float64
	var ok int
	var span time.Duration
	per := "per window, steal % / other % / p50 ms:"
	for _, w := range all {
		lat = append(lat, w.Lat...)
		ok += w.OK
		span += w.End.Sub(w.Start)
		if len(w.Lat) > 0 {
			winP50 = append(winP50, median(w.Lat))
		}
		steal = append(steal, w.StealPct)
		per += fmt.Sprintf(" %.1f/%.1f/%.1f", w.StealPct, w.OtherPct, median(w.Lat))
	}
	d := summarize(lat)
	b.e2e("latency_p50_ms", median(winP50), "ms", d.N, fmt.Sprintf("median of %d window medians; from %s", len(winP50), from))
	b.info("latency_pooled_p50_ms", d.P50, "ms", d.N, "over every window's operations pooled")
	b.info("latency_p90_ms", d.P90, "ms", d.N, tailNote(d, 900))
	b.info("latency_p99_ms", d.P99, "ms", d.N, tailNote(d, 990))
	b.info("throughput_rps", float64(ok)/span.Seconds(), "ops/s", ok, "successful operations per second")
	b.info("virtual_p50_ms", median(virt), "ms", len(virt), "median virtual total_ms over the distinct served tuples")
	b.info("host_steal_pct", median(steal), "%", len(all), "median over the load windows; "+per)
	failed := b.tally(outs, attempted)
	note := "failed or refused over attempted"
	for _, o := range outs {
		if !o.OK {
			note += "; first failure: " + o.Why
			break
		}
	}
	b.info("error_ratio", float64(failed)/float64(max(attempted, 1)), "ratio", attempted, note)
	if failed > 0 {
		b.invalidate("%d of %d operations failed or were refused", failed, attempted)
	}
}

// open reports whether c is still open.
func open(c <-chan struct{}) bool {
	select {
	case <-c:
		return false
	default:
		return true
	}
}

// tally counts attempted operations and those that did not succeed.
func (b *bench) tally(outs []outcome, attempted int) int {
	ok := 0
	for _, o := range outs {
		if o.OK {
			ok++
		}
	}
	b.mu.Lock()
	b.attempted += int64(attempted)
	b.failed += int64(attempted - ok)
	b.mu.Unlock()
	return attempted - ok
}

func tailNote(d dist, pm int) string {
	if beyond(d.N, pm) >= minBeyond {
		return ""
	}
	return fmt.Sprintf("fewer than %d samples beyond p%g; highest reportable is p%g", minBeyond, float64(pm)/10, float64(d.TailP)/10)
}
