package main

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime/metrics"
	"time"

	"faasnap/internal/obs"
)

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports as the "runtime" layer.
type runtimeSample struct {
	gcCPU, totalCPU, mutexWait float64
	sched                      *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	out := runtimeSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.mutexWait = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[3].Value.Float64Histogram()
	}
	return out
}

// runtimeLayers reports the runtime deltas between two samples taken
// around the load phase.
func (b *bench) runtimeLayers(before, after runtimeSample) {
	frac := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	b.layer("runtime.gc_cpu_fraction", frac, "ratio")
	b.layer("runtime.mutex_wait_ms", (after.mutexWait-before.mutexWait)*1000, "ms")
	b.layer("runtime.sched_latency_p99_ms", schedP99(before.sched, after.sched)*1000, "ms")
}

// schedP99 is the 99th percentile of the scheduler-latency histogram
// delta, taken at the upper edge of its bucket.
func schedP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var run uint64
	for i, c := range delta {
		run += c
		if run >= want {
			return after.Buckets[i+1]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// requestLayers derives the client, gateway and daemon layers from the
// spans of the traced phase. traced maps each client-minted trace id
// to its client span. Nesting is checked per request: client span ≥
// gateway span ≥ every daemon span.
func (b *bench) requestLayers(spans []span, traced map[string]span, t *tier, ref func(tuple) (float64, bool), tuples map[string]tuple) {
	gw := byTrace(spans, "gateway", "invoke")
	dm := byTrace(spans, "daemon", "invoke")
	var self, dInv, over []float64
	retries := 0
	for id, cs := range traced {
		ds := dm[id]
		gs := gw[id]
		// Every traced request here was served, so a missing span means
		// the trace id was not carried from one layer to the next.
		if (t.gw != nil && len(gs) != 1) || len(ds) == 0 {
			b.problem("trace %s: served, but %d gateway and %d daemon spans carry its trace id", id, len(gs), len(ds))
			continue
		}
		outer := cs
		if t.gw != nil {
			g := gs[0]
			if g.dur() > cs.dur() {
				b.problem("trace %s: gateway span %v exceeds client span %v", id, g.dur(), cs.dur())
			}
			self = append(self, ms(selfTime(g, ds)))
			retries += len(ds) - 1
			outer = g
		}
		for _, d := range ds {
			if d.dur() > outer.dur() {
				b.problem("trace %s: daemon span %v exceeds its parent span %v", id, d.dur(), outer.dur())
			}
		}
		last := ds[len(ds)-1]
		dInv = append(dInv, ms(last.dur()))
		if c, ok := ref(tuples[id]); ok {
			over = append(over, ms(last.dur())-c)
		}
	}
	sd := summarize(self)
	b.layer("gateway.self_p50_ms", zeroNaN(sd.P50), "ms")
	b.layer("gateway.self_p99_ms", zeroNaN(sd.P99), "ms")
	b.layer("gateway.retries", float64(retries), "count")
	dd := summarize(dInv)
	b.layer("daemon.invoke_p50_ms", zeroNaN(dd.P50), "ms")
	b.layer("daemon.invoke_p99_ms", zeroNaN(dd.P99), "ms")
	b.layer("daemon.overhead_p50_ms", zeroNaN(median(over)), "ms")

	var rec, syn []float64
	for _, s := range spans {
		if s.Layer != "daemon" {
			continue
		}
		switch s.Op {
		case "record":
			rec = append(rec, ms(s.dur()))
		case "sync":
			syn = append(syn, ms(s.dur()))
		}
	}
	b.layer("daemon.record_p50_ms", zeroNaN(median(rec)), "ms")
	b.layer("daemon.sync_p50_ms", zeroNaN(median(syn)), "ms")
	var shed int64
	for _, tp := range t.taps {
		if tp != nil {
			shed += tp.shed.Load()
		}
	}
	b.layer("daemon.shed", float64(shed), "count")
}

// sweepLayers reports the gateway's health-sweep cost over the traced
// phase: requests and response bytes the daemon taps served on the
// scrape routes, per sweep, and the sweep's mean wall time.
func (b *bench) sweepLayers(t *tier, sweeps0 int64, sum0 time.Duration) {
	if t.gw == nil {
		b.layer("gateway.sweep_requests", 0, "count")
		b.layer("gateway.sweep_kb", 0, "KiB")
		b.layer("gateway.sweep_mean_ms", 0, "ms")
		return
	}
	sweeps, sum := t.sweepTotals()
	n := sweeps - sweeps0
	var reqs, bytes int64
	for _, tp := range t.taps {
		reqs += tp.healthReqs.Load()
		bytes += tp.healthBytes.Load()
	}
	per := func(v float64) float64 {
		if n <= 0 {
			return 0
		}
		return v / float64(n)
	}
	b.layer("gateway.sweep_requests", per(float64(reqs)), "count")
	b.layer("gateway.sweep_kb", per(float64(bytes)/1024), "KiB")
	b.layer("gateway.sweep_mean_ms", per(ms(sum-sum0)), "ms")
}

// admissionLayer reads admission_ms from each daemon's flight recorder
// and reports its p99.
func (b *bench) admissionLayer(ctx context.Context, t *tier) {
	var adm []float64
	for _, a := range t.addrs {
		res, err := mustOK(ctx, b.client, http.MethodGet, "http://"+a+"/profiles?limit=100000", nil)
		if err != nil {
			continue
		}
		var body struct {
			Profiles []obs.Profile `json:"profiles"`
		}
		if json.Unmarshal(res.Body, &body) != nil {
			continue
		}
		for _, p := range body.Profiles {
			if p.Route == "invoke" {
				adm = append(adm, p.AdmissionMs)
			}
		}
	}
	b.layer("daemon.admission_wait_p99_ms", zeroNaN(summarize(adm).P99), "ms")
}
