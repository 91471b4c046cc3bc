package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"faasnap/internal/daemon"
	"faasnap/internal/loadgen"
	"faasnap/internal/workload"
)

// Workload shapes. Why each workload exists, and how these numbers were
// sized, is in NOTES.md.
const (
	smallFunctions = 24
	smallTenants   = 8
	smallRPS       = 50
	smallSkew      = 1.2
	// lateLimit is the generator's own release lateness (p99) beyond
	// which the report flags that the schedule was not offered on time.
	lateLimit = 50 * time.Millisecond
	// maxWait drops an arrival still queued this long after it was due.
	maxWait = 5 * time.Second

	churnSpecs     = 8 // distinct churn functions, reused in rotation
	churnDrainWait = 30 * time.Second
)

var catalogFns = []string{"hello-world", "image", "json", "pyaes", "chameleon", "compression"}

var catalogModes = []string{"faasnap", "reap", "firecracker"}

// smallFleet is the 24 loadgen synthetic functions.
func smallFleet() ([]fleetFn, map[string]*workload.Spec, error) {
	var fleet []fleetFn
	specs := map[string]*workload.Spec{}
	for i := 0; i < smallFunctions; i++ {
		raw := loadgen.SynthSpec(i)
		s, err := workload.ParseSpec(raw)
		if err != nil {
			return nil, nil, err
		}
		fleet = append(fleet, fleetFn{Name: s.Name, Spec: raw})
		specs[s.Name] = s
	}
	return fleet, specs, nil
}

// modesSchedule is small-modes': small-openloop's arrivals, each in a
// seeded choice of faasnap, reap or firecracker mode.
func modesSchedule(seed int64, d time.Duration) []arrival {
	arr := smallSchedule(seed, d)
	rng := rand.New(rand.NewSource(seed))
	for i := range arr {
		arr[i].Mode = catalogModes[rng.Intn(len(catalogModes))]
	}
	return arr
}

// smallSchedule is small-openloop's seeded Poisson/Zipf arrivals.
func smallSchedule(seed int64, d time.Duration) []arrival {
	tr := loadgen.Synthesize(loadgen.TraceConfig{
		Seed: seed, Duration: d, RPS: smallRPS, Tenants: smallTenants,
		Functions: smallFunctions, Skew: smallSkew, Mode: "faasnap", Input: "B",
	})
	out := make([]arrival, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		out[i] = arrival{Seq: i, At: time.Duration(a.AtUs) * time.Microsecond, Fn: a.Function, Mode: "faasnap", Tenant: a.Tenant}
	}
	return out
}

func catalogFleet() ([]fleetFn, map[string]*workload.Spec, error) {
	var fleet []fleetFn
	specs := map[string]*workload.Spec{}
	for _, n := range catalogFns {
		s, err := workload.ByName(n)
		if err != nil {
			return nil, nil, err
		}
		fleet = append(fleet, fleetFn{Name: n})
		specs[n] = s
	}
	return fleet, specs, nil
}

// catalogOrder is client c's seeded stream of tuples: shuffled rounds
// of every function × mode, so each run serves a near-even mix
// whatever the seed.
func catalogOrder(seed int64, c int) func() tuple {
	rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
	var all []tuple
	for _, f := range catalogFns {
		for _, m := range catalogModes {
			all = append(all, tuple{Fn: f, Mode: m, Input: "B"})
		}
	}
	var round []tuple
	return func() tuple {
		if len(round) == 0 {
			round = append([]tuple(nil), all...)
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		}
		t := round[0]
		round = round[1:]
		return t
	}
}

// phase is one measured load phase.
type phase struct {
	outs      []outcome
	attempted int
	late      []time.Duration
	dropped   int
}

// driver runs a load phase at base until stop closes, for at most d.
type driver func(ctx context.Context, base string, stop <-chan struct{}, d time.Duration, traced bool) phase

// openLoop is the driver that offers schedule's arrivals at base until
// stop closes, for at most d.
func (b *bench) openLoop(schedule func(seed int64, d time.Duration) []arrival) driver {
	return func(ctx context.Context, base string, stop <-chan struct{}, d time.Duration, traced bool) phase {
		arr := schedule(b.seed, d)
		var mu sync.Mutex
		outs := make([]outcome, 0, len(arr))
		res := runOpenLoop(ctx, wallClock{}, arr, b.conns, maxWait, stop, func(t ticket) {
			trace := ""
			if traced && t.Seq%2 == 0 {
				trace = traceID(t.Seq)
			}
			o := b.invoke(ctx, base, tuple{Fn: t.Fn, Mode: t.Mode, Input: "B"}, trace)
			o.At, o.LatMs = t.Due, ms(o.Done.Sub(t.Due))
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		})
		return phase{outs: outs, attempted: len(res.Late), late: res.Late, dropped: res.Dropped}
	}
}

// closedLoop runs b.conns catalog clients back to back until stop
// closes.
func (b *bench) closedLoop(ctx context.Context, base string, stop <-chan struct{}, _ time.Duration, traced bool) phase {
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
		n    int
	)
	for c := 0; c < b.conns; c++ {
		next := catalogOrder(b.seed, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; open(stop) && ctx.Err() == nil; k++ {
				mu.Lock()
				i := n
				n++
				mu.Unlock()
				trace := ""
				if traced && k%2 == 0 {
					trace = traceID(i)
				}
				at := time.Now()
				o := b.invoke(ctx, base, next(), trace)
				o.At, o.LatMs = at, ms(o.Done.Sub(at))
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return phase{outs: outs, attempted: len(outs)}
}

// runServing is every workload but restore-churn: set up a 3-daemon
// tier behind the gateway, drive it, check every reply against the
// simulator, and report.
func (b *bench) runServing(ctx context.Context, stateful bool, fleet []fleetFn, specs map[string]*workload.Spec,
	drive driver, from string) error {
	t, recs, err := b.setUp(ctx, shape{daemons: 3, gateway: true, stateful: stateful}, func(t *tier) ([]float64, error) {
		return b.setupFleet(ctx, t.base(), fleet, "faasnap")
	})
	if err != nil {
		return err
	}
	defer t.close()
	b.info("record_p50_ms", median(recs), "ms", len(recs), "set-up records through the gateway (owner + standby)")
	rp := newReplayer(specs, b.dir)
	var p phase
	wins := b.underTrace(t, func(stop <-chan struct{}, d time.Duration) { p = drive(ctx, t.base(), stop, d, b.traced) })
	b.latencyMetrics(p.outs, p.attempted, wins, from)
	b.openLoopValidity(p)
	b.check(rp, p.outs)
	if !b.traced {
		return nil
	}
	b.overheadLayers(p.outs)
	b.clientLayers(p)
	b.tracedRequests(p.outs, t, rp)
	b.admissionLayer(ctx, t)
	if stateful {
		b.rec.on.Store(true)
		err := b.restoreProbe(ctx, t, rp, servedTuples(p.outs))
		b.rec.on.Store(false)
		if err != nil {
			return err
		}
	}
	return b.commonLayers(ctx, t, rp, servedTuples(p.outs))
}

// underTrace runs load for --seconds and returns its windows, each
// with the host's CPU steal over it. load must stop once stop closes;
// d is the load's length. In a traced run the taps record while the
// load runs, and the runtime and gateway-sweep layers are reported
// over it.
func (b *bench) underTrace(t *tier, load func(stop <-chan struct{}, d time.Duration)) []window {
	n, wl := loadWindows(b.seconds)
	m := startStealMeter(wl, n)
	run := func() { load(m.enough, time.Duration(n)*wl) }
	if !b.traced {
		run()
		return m.finish()
	}
	rt0 := readRuntime()
	sweeps0, sum0 := t.sweepTotals()
	for _, tp := range t.taps {
		tp.healthReqs.Store(0)
		tp.healthBytes.Store(0)
	}
	b.rec.on.Store(true)
	run()
	wins := m.finish()
	b.rec.on.Store(false)
	b.runtimeLayers(rt0, readRuntime())
	b.sweepLayers(t, sweeps0, sum0)
	return wins
}

// overheadLayers compares the traced and untraced requests of a traced
// run, which were served side by side: the tracing overhead is the
// median, over tuples served both ways, of the difference of their
// median latencies, so a mix that differs between the halves does not
// count as overhead.
func (b *bench) overheadLayers(outs []outcome) {
	on, off := map[tuple][]float64{}, map[tuple][]float64{}
	var traced []float64
	for _, o := range outs {
		switch {
		case !o.OK:
		case o.Trace != "":
			on[o.Tuple] = append(on[o.Tuple], o.LatMs)
			traced = append(traced, o.LatMs)
		default:
			off[o.Tuple] = append(off[o.Tuple], o.LatMs)
		}
	}
	var diff []float64
	for tp, v := range on {
		if w, ok := off[tp]; ok {
			diff = append(diff, median(v)-median(w))
		}
	}
	b.layer("client.latency_p50_ms", zeroNaN(median(traced)), "ms")
	b.layer("trace.overhead_p50_ms", zeroNaN(median(diff)), "ms")
}

// lateness is the generator's release lateness over an open-loop
// phase, in ms; it has no samples on a closed loop.
func lateness(p phase) dist {
	late := make([]float64, len(p.late))
	for i, l := range p.late {
		late[i] = ms(l)
	}
	return summarize(late)
}

// openLoopValidity reports how far the generator fell behind its own
// schedule. Latency is timed from the due time, so a late release
// already counts in every latency figure; the report flags a run whose
// generator fell behind. A dropped arrival was never served and counts
// as failed.
func (b *bench) openLoopValidity(p phase) {
	if p.late == nil {
		return
	}
	d := lateness(p)
	note := "generator release lateness"
	if d.P99 > ms(lateLimit) {
		note += fmt.Sprintf("; over %v at p99: the generator fell behind, host overloaded", lateLimit)
	}
	b.info("client.late_p99_ms", d.P99, "ms", d.N, note)
	if p.dropped > 0 {
		b.invalidate("open loop: %d arrivals dropped, still queued %v after they were due", p.dropped, maxWait)
	}
}

func (b *bench) clientLayers(p phase) {
	b.layer("client.late_p99_ms", zeroNaN(lateness(p).P99), "ms")
	b.layer("client.dropped", float64(p.dropped), "count")
}

// tracedRequests joins the traced phase's client spans with the tap
// spans and reports the request-path layers.
func (b *bench) tracedRequests(outs []outcome, t *tier, rp *replayer) {
	traced := map[string]span{}
	tuples := map[string]tuple{}
	for _, o := range outs {
		if o.Trace != "" && o.OK {
			traced[o.Trace] = span{Layer: "client", Op: "invoke", Trace: o.Trace, Start: o.Sent, End: o.Done}
			tuples[o.Trace] = o.Tuple
		}
	}
	for _, s := range traced {
		b.rec.add(s)
	}
	spans := b.rec.all()
	ref := func(tp tuple) (float64, bool) {
		s, err := rp.ref(tp)
		if err != nil {
			return 0, false
		}
		return ms(s.Wall), true
	}
	b.requestLayers(spans, traced, t, ref, tuples)
}

// commonLayers are the replayed-layer figures every workload reports.
func (b *bench) commonLayers(ctx context.Context, t *tier, rp *replayer, tuples []tuple) error {
	b.coreLayers(rp, tuples)
	if inv := b.layerSet["daemon.invoke_p50_ms"].Value; inv > 0 {
		var walls []float64
		for _, tp := range tuples {
			if s, err := rp.ref(tp); err == nil {
				walls = append(walls, ms(s.Wall))
			}
		}
		b.layer("core.share_of_daemon_invoke", median(walls)/inv, "ratio")
	} else {
		b.layer("core.share_of_daemon_invoke", 0, "ratio")
	}
	if err := b.serialOverhead(ctx, t, rp, tuples); err != nil {
		return err
	}
	var fns []string
	seen := map[string]bool{}
	for _, tp := range tuples {
		if !seen[tp.Fn] {
			seen[tp.Fn] = true
			fns = append(fns, tp.Fn)
		}
	}
	if len(fns) == 0 {
		return fmt.Errorf("no tuple was served")
	}
	if err := b.storeLayers(rp, fns); err != nil {
		return fmt.Errorf("store layers: %w", err)
	}
	if err := b.pipeLayers(rp, fns[0]); err != nil {
		return err
	}
	var dedup []float64
	for _, a := range t.addrs {
		res, err := do(ctx, b.client, http.MethodGet, "http://"+a+"/cas", nil, "")
		if err != nil {
			return err
		}
		if res.Status == http.StatusNotFound {
			continue // a stateless daemon keeps no chunk store
		}
		var c daemon.CASResponse
		if err := json.Unmarshal(res.Body, &c); err != nil {
			return err
		}
		dedup = append(dedup, c.DedupRatio)
	}
	b.layer("casstore.dedup_ratio", mean(dedup), "ratio")
	if _, ok := b.layerSet["sync.eager_chunks"]; !ok {
		b.syncLayers(nil) // nothing was restored: the sync plane reads 0
	}
	return b.rec.save(b.spanPath())
}

// serialOverhead invokes each served tuple serially on an otherwise
// idle tier, straight to a daemon holding it, and reports the median
// of that wall time minus the replay's core wall time. Against
// daemon.overhead_p50_ms, taken under load, it separates the daemon's
// own per-request work from contention for the host's CPUs.
// core.share_of_serial_invoke is the simulator's share of that serial
// invoke. restore-churn deletes its functions every step, so both read
// 0 there.
func (b *bench) serialOverhead(ctx context.Context, t *tier, rp *replayer, tuples []tuple) error {
	var over, share []float64
	for _, tp := range tuples {
		best := -1.0
		for _, a := range t.addrs {
			for i := 0; i < 3; i++ {
				o := b.invoke(ctx, "http://"+a, tp, "")
				if !o.OK {
					break
				}
				if w := ms(o.Done.Sub(o.Sent)); best < 0 || w < best {
					best = w
				}
			}
			if best >= 0 {
				break
			}
		}
		if best < 0 {
			continue
		}
		s, err := rp.ref(tp)
		if err != nil {
			return err
		}
		over = append(over, best-ms(s.Wall))
		share = append(share, ms(s.Wall)/best)
	}
	b.layer("daemon.serial_overhead_p50_ms", zeroNaN(median(over)), "ms")
	b.layer("core.share_of_serial_invoke", zeroNaN(median(share)), "ratio")
	return nil
}

// churnSpec is the i'th restore-churn function: a custom spec whose
// boot image is one of three sizes the replica's resident functions
// share, so part of every sync dedups. Every seed deals the same
// multiset of shapes out to the churnSpecs names, so seeds change which
// function has which shape, not how heavy the rotation is.
func churnSpec(seed int64, i int) json.RawMessage {
	rng := rand.New(rand.NewSource(seed))
	stable, chunk, base, initMs := rng.Perm(churnSpecs), rng.Perm(churnSpecs), rng.Perm(churnSpecs), rng.Perm(churnSpecs)
	spec := map[string]interface{}{
		"name":         fmt.Sprintf("churn-%d", i),
		"description":  "restore-churn function",
		"boot_mb":      churnBoots[i%len(churnBoots)],
		"stable_pages": 64 + 32*(stable[i]%6),
		"chunk_mean":   2 + chunk[i]%4,
		"retain_frac":  0.5,
		"base_ms":      1 + base[i]%3,
		"per_kb_us":    2,
		"init_ms":      5 + 5*(initMs[i]%3),
		"input_a":      map[string]int64{"bytes": 4096, "data_pages": 8},
		"input_b":      map[string]int64{"bytes": 16384, "data_pages": 24},
	}
	raw, _ := json.Marshal(spec) // static shape; cannot fail
	return raw
}

var churnBoots = []int{4, 6, 8}

// residentSpec shares boot image b with the churn functions.
func residentSpec(b int) json.RawMessage {
	raw, _ := json.Marshal(map[string]interface{}{
		"name": fmt.Sprintf("resident-%d", b), "description": "resident on the replica",
		"boot_mb": b, "stable_pages": 96, "chunk_mean": 3, "retain_frac": 0.5,
		"base_ms": 1, "per_kb_us": 2, "init_ms": 5,
		"input_a": map[string]int64{"bytes": 4096, "data_pages": 8},
		"input_b": map[string]int64{"bytes": 16384, "data_pages": 24},
	})
	return raw
}

// churnResult is one restore-churn step.
type churnResult struct {
	replica outcome // LatMs: sync sent → first 200 invoke on the replica
	source  outcome
	recMs   float64
	sync    daemon.SyncResponse
	syncMs  float64
	drainS  float64
	gcMs    float64
	err     error
}

func (b *bench) churnStep(ctx context.Context, t *tier, name string, spec json.RawMessage, trace string) churnResult {
	var r churnResult
	src, rep := "http://"+t.addrs[0], "http://"+t.addrs[1]
	tp := tuple{Fn: name, Mode: "faasnap", Input: "B"}
	fail := func(err error) churnResult {
		r.err = err
		// Leave the name free for the next rotation, whatever failed.
		do(ctx, b.client, http.MethodDelete, rep+"/functions/"+name, nil, "")
		do(ctx, b.client, http.MethodDelete, src+"/functions/"+name, nil, "")
		return r
	}
	put, err := mustOK(ctx, b.client, http.MethodPut, src+"/functions/"+name, spec)
	if err != nil {
		return fail(err)
	}
	rec, err := mustOK(ctx, b.client, http.MethodPost, src+"/functions/"+name+"/record", map[string]string{"input": "A"})
	if err != nil {
		return fail(err)
	}
	r.recMs = ms(rec.Done.Sub(put.Sent))
	if r.source = b.invoke(ctx, src, tp, ""); !r.source.OK {
		return fail(fmt.Errorf("source invoke: %s", r.source.Why))
	}
	if err := b.restore(ctx, t.addrs[0], t.addrs[1], tp, trace, &r); err != nil {
		return fail(err)
	}
	// The source forgets the function too, so every record writes its
	// chunks afresh instead of deduplicating against the last rotation.
	if _, err := mustOK(ctx, b.client, http.MethodDelete, src+"/functions/"+name, nil); err != nil {
		return fail(err)
	}
	if _, err := mustOK(ctx, b.client, http.MethodPost, src+"/gc", map[string]bool{"demote": false}); err != nil {
		return fail(err)
	}
	return r
}

// restore is one cold restore of tp.Fn onto the replica rep from the
// daemon src (both host:port) over the chunk plane: sync, invoke at
// once while the lazy tail is in flight, wait for the lazy backlog to
// drain, then delete the function on the replica and collect garbage.
func (b *bench) restore(ctx context.Context, src, rep string, tp tuple, trace string, r *churnResult) error {
	base := "http://" + rep
	sc, err := do(ctx, b.client, http.MethodPost, base+"/functions/"+tp.Fn+"/sync", map[string]string{"source": src}, trace)
	if err == nil && sc.Status != http.StatusOK {
		err = fmt.Errorf("sync: %d %s", sc.Status, sc.Body)
	}
	if err == nil {
		err = json.Unmarshal(sc.Body, &r.sync)
	}
	if err != nil {
		return err
	}
	r.syncMs = ms(sc.Done.Sub(sc.Sent))
	r.replica = b.invoke(ctx, base, tp, trace)
	r.replica.At, r.replica.LatMs = sc.Sent, ms(r.replica.Done.Sub(sc.Sent))
	if !r.replica.OK {
		return fmt.Errorf("replica invoke: %s", r.replica.Why)
	}
	deadline := time.Now().Add(churnDrainWait)
	for {
		res, err := mustOK(ctx, b.client, http.MethodGet, base+"/cas", nil)
		if err != nil {
			return err
		}
		var c daemon.CASResponse
		if err := json.Unmarshal(res.Body, &c); err != nil {
			return err
		}
		if c.LazyPendingChunks == 0 {
			r.drainS = time.Since(sc.Done).Seconds()
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lazy backlog not drained after %v", churnDrainWait)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := mustOK(ctx, b.client, http.MethodDelete, base+"/functions/"+tp.Fn, nil); err != nil {
		return err
	}
	gc, err := mustOK(ctx, b.client, http.MethodPost, base+"/gc", map[string]bool{"demote": false})
	if err != nil {
		return err
	}
	var g daemon.GCResponse
	if err := json.Unmarshal(gc.Body, &g); err != nil {
		return err
	}
	r.gcMs = g.WallMs
	return nil
}

// restoreProbe restores up to probeFns of the served functions onto
// the daemon that does not hold them, from one that does, exactly as
// a restore-churn step does. It is how the traced run of a gateway
// workload measures the sync plane; every restored reply is checked
// against the simulator.
func (b *bench) restoreProbe(ctx context.Context, t *tier, rp *replayer, tuples []tuple) error {
	const probeFns = 6
	var steps []churnResult
	var outs []outcome
	for _, tp := range tuples {
		if len(steps) == probeFns {
			break
		}
		var holder, target string
		for _, a := range t.addrs {
			res, err := do(ctx, b.client, http.MethodGet, "http://"+a+"/functions/"+tp.Fn, nil, "")
			if err != nil {
				return err
			}
			switch {
			case res.Status == http.StatusOK && holder == "":
				holder = a
			case res.Status == http.StatusNotFound && target == "":
				target = a
			}
		}
		if holder == "" || target == "" {
			continue
		}
		var r churnResult
		if r.err = b.restore(ctx, holder, target, tp, "", &r); r.err != nil {
			b.problem("restore probe of %s: %v", tp.Fn, r.err)
			continue
		}
		steps = append(steps, r)
		outs = append(outs, r.replica)
	}
	if len(steps) == 0 {
		return fmt.Errorf("restore probe: no served function had a daemon without it")
	}
	b.check(rp, outs)
	b.syncLayers(steps)
	return nil
}

// churnLoop runs restore-churn steps back to back until stop closes,
// taking the churnSpecs functions in rotation.
func (b *bench) churnLoop(ctx context.Context, t *tier, stop <-chan struct{}, traced bool) []churnResult {
	var out []churnResult
	for i := 0; open(stop) && ctx.Err() == nil; i++ {
		k := i % churnSpecs
		// Whole rotations alternate, so every function is served both
		// traced and untraced.
		trace := ""
		if traced && (i/churnSpecs)%2 == 0 {
			trace = traceID(i)
		}
		name := fmt.Sprintf("churn-%d", k)
		r := b.churnStep(ctx, t, name, churnSpec(b.seed, k), trace)
		r.replica.Tuple = tuple{Fn: name, Mode: "faasnap", Input: "B"}
		out = append(out, r)
	}
	return out
}

// runChurn is restore-churn: a source and a replica daemon, no
// gateway.
func (b *bench) runChurn(ctx context.Context) error {
	specs := map[string]*workload.Spec{}
	for k := 0; k < churnSpecs; k++ {
		s, err := workload.ParseSpec(churnSpec(b.seed, k))
		if err != nil {
			return err
		}
		specs[s.Name] = s
	}
	var residents []fleetFn
	for _, boot := range churnBoots {
		raw := residentSpec(boot)
		s, err := workload.ParseSpec(raw)
		if err != nil {
			return err
		}
		residents = append(residents, fleetFn{Name: s.Name, Spec: raw})
	}
	t, _, err := b.setUp(ctx, shape{daemons: 2, stateful: true}, func(t *tier) ([]float64, error) {
		return b.setupFleet(ctx, "http://"+t.addrs[1], residents, "faasnap")
	})
	if err != nil {
		return err
	}
	defer t.close()
	rp := newReplayer(specs, b.dir)
	var steps []churnResult
	wins := b.underTrace(t, func(stop <-chan struct{}, _ time.Duration) { steps = b.churnLoop(ctx, t, stop, b.traced) })
	outs := b.churnMetrics(rp, steps, wins)
	if !b.traced {
		return nil
	}
	b.overheadLayers(outs)
	b.clientLayers(phase{}) // a closed loop: no schedule to fall behind
	b.syncLayers(steps)
	b.tracedRequests(outs, t, rp)
	b.admissionLayer(ctx, t)
	return b.commonLayers(ctx, t, rp, servedTuples(outs))
}

// syncLayers reports the chunk-sync plane over the successful steps.
func (b *bench) syncLayers(steps []churnResult) {
	var eager, present, total, chunksPerS, drain, gcs []float64
	var eagerMB float64
	for _, s := range steps {
		if s.err != nil {
			continue
		}
		eager = append(eager, float64(s.sync.ChunksFetched))
		eagerMB += float64(s.sync.BytesFetched) / (1 << 20)
		present = append(present, float64(s.sync.ChunksPresent))
		total = append(total, float64(s.sync.ChunksTotal))
		if s.syncMs > 0 {
			chunksPerS = append(chunksPerS, float64(s.sync.ChunksFetched)/(s.syncMs/1000))
		}
		drain = append(drain, s.drainS)
		gcs = append(gcs, s.gcMs)
	}
	b.layer("sync.eager_chunks", zeroNaN(median(eager)), "count")
	b.layer("sync.eager_mb", eagerMB/float64(max(len(eager), 1)), "MB")
	b.layer("sync.present_ratio", sumOf(present)/max(sumOf(total), 1), "ratio")
	b.layer("sync.chunks_per_s", zeroNaN(median(chunksPerS)), "chunks/s")
	b.layer("sync.lazy_drain_s", zeroNaN(median(drain)), "s")
	b.layer("daemon.gc_p50_ms", zeroNaN(median(gcs)), "ms")
}

// churnMetrics reports restore-churn's end-to-end figures and checks
// its outputs: the operation is one restore, timed from the sync
// request to the replica's first 200 invoke.
// It returns the replica's successful first invokes.
func (b *bench) churnMetrics(rp *replayer, steps []churnResult, wins []window) []outcome {
	var outs []outcome
	var recs []float64
	var errs []string
	for _, s := range steps {
		if s.err == nil {
			outs = append(outs, s.replica)
			recs = append(recs, s.recMs)
		} else {
			errs = append(errs, s.err.Error())
		}
	}
	if len(errs) > 0 {
		b.info("failed_steps", float64(len(errs)), "count", len(steps), "first: "+errs[0])
	}
	b.info("record_p50_ms", median(recs), "ms", len(recs), "PUT+record on the source")
	b.latencyMetrics(outs, len(steps), wins, "sync request to first 200 invoke on the replica")
	b.info("restore_p50_ms", b.metrics["latency_p50_ms"].Value, "ms", len(outs), "= latency_p50_ms on this workload")
	b.info("restore_p90_ms", b.metrics["latency_p90_ms"].Value, "ms", len(outs), "= latency_p90_ms on this workload")
	b.churnCheck(rp, steps)
	return outs
}

// churnCheck: the replica must serve exactly what the source serves,
// and both what the simulator says.
func (b *bench) churnCheck(rp *replayer, steps []churnResult) {
	var outs []outcome
	for _, s := range steps {
		if s.err != nil {
			continue
		}
		if s.replica.Reply.TotalMs != s.source.Reply.TotalMs || s.replica.Reply.Faults != s.source.Reply.Faults ||
			s.replica.Reply.MajorFaults != s.source.Reply.MajorFaults {
			b.problem("%s: replica served total_ms=%v faults=%d, source %v/%d", s.replica.Tuple.Fn,
				s.replica.Reply.TotalMs, s.replica.Reply.Faults, s.source.Reply.TotalMs, s.source.Reply.Faults)
		}
		outs = append(outs, s.replica)
	}
	b.check(rp, outs)
}

func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
