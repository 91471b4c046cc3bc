package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"faasnap/internal/casstore"
	"faasnap/internal/core"
	"faasnap/internal/guestagent"
	"faasnap/internal/snapfile"
	"faasnap/internal/statedir"
	"faasnap/internal/vmm"
	"faasnap/internal/workload"
)

// simRef is the simulator's answer for one tuple, from a direct call
// of core.RunSingleTraced, with the call's cost.
type simRef struct {
	Res    *core.InvokeResult
	Wall   time.Duration
	Bytes  uint64
	Allocs uint64
}

// replayer re-runs, serially and after the load, the exact tuples a
// workload served by calling each layer's public functions directly.
// It is the reference the served replies are checked against, and the
// source of the per-layer wall times.
type replayer struct {
	host    core.HostConfig
	specs   map[string]*workload.Spec
	arts    map[string]*core.Artifacts
	recs    map[string]time.Duration
	refs    map[tuple]simRef
	scratch string
}

func newReplayer(specs map[string]*workload.Spec, scratch string) *replayer {
	return &replayer{
		host: core.DefaultHostConfig(), specs: specs, scratch: scratch,
		arts: map[string]*core.Artifacts{}, recs: map[string]time.Duration{}, refs: map[tuple]simRef{},
	}
}

// artifacts records fn with input A, as the daemons did.
func (r *replayer) artifacts(fn string) (*core.Artifacts, error) {
	if a, ok := r.arts[fn]; ok {
		return a, nil
	}
	spec, ok := r.specs[fn]
	if !ok {
		return nil, fmt.Errorf("no spec for %s", fn)
	}
	start := time.Now()
	a, _ := core.Record(r.host, spec, spec.A)
	r.recs[fn] = time.Since(start)
	r.arts[fn] = a
	return a, nil
}

func input(spec *workload.Spec, name string) workload.Input {
	if name == "A" {
		return spec.A
	}
	return spec.B
}

// ref runs tp once through the simulator facade, measuring wall time
// and allocation.
func (r *replayer) ref(tp tuple) (simRef, error) {
	if s, ok := r.refs[tp]; ok {
		return s, nil
	}
	arts, err := r.artifacts(tp.Fn)
	if err != nil {
		return simRef{}, err
	}
	mode, err := core.ParseMode(tp.Mode)
	if err != nil {
		return simRef{}, err
	}
	in := input(r.specs[tp.Fn], tp.Input)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := core.RunSingleTraced(r.host, arts, mode, in)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	s := simRef{Res: res, Wall: wall, Bytes: after.TotalAlloc - before.TotalAlloc, Allocs: after.Mallocs - before.Mallocs}
	r.refs[tp] = s
	return s, nil
}

// check compares every served reply's virtual result with the
// simulator's answer for the same tuple; each mismatch is a problem.
func (b *bench) check(r *replayer, outs []outcome) {
	for _, o := range outs {
		if !o.OK {
			continue
		}
		s, err := r.ref(o.Tuple)
		if err != nil {
			b.problem("replay %v: %v", o.Tuple, err)
			continue
		}
		want := s.Res
		if o.Reply.TotalMs != ms(want.Total) || o.Reply.Faults != want.Faults.Total() ||
			o.Reply.MajorFaults != want.Faults.Majors() || o.Reply.MmapCalls != want.MmapCalls {
			b.problem("%v: served total_ms=%v faults=%d majors=%d mmaps=%d, simulator says %v/%d/%d/%d",
				o.Tuple, o.Reply.TotalMs, o.Reply.Faults, o.Reply.MajorFaults, o.Reply.MmapCalls,
				ms(want.Total), want.Faults.Total(), want.Faults.Majors(), want.MmapCalls)
		}
	}
}

// servedTuples is the sorted set of tuples among the OK outcomes.
func servedTuples(outs []outcome) []tuple {
	seen := map[tuple]bool{}
	var ts []tuple
	for _, o := range outs {
		if o.OK && !seen[o.Tuple] {
			seen[o.Tuple] = true
			ts = append(ts, o.Tuple)
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		a, c := ts[i], ts[j]
		if a.Fn != c.Fn {
			return a.Fn < c.Fn
		}
		return a.Mode < c.Mode
	})
	return ts
}

// coreLayers reports the simulator-facade and virtual-count layers
// over the served tuples. sim.* are exact virtual counts: summed over
// the distinct tuples, so they depend only on which tuples the seed
// makes the workload serve.
func (b *bench) coreLayers(r *replayer, tuples []tuple) {
	byMode := map[string][]float64{}
	var kb, allocs, mmaps, recWall, precision, recall []float64
	var majors int64
	var fetchMB float64
	fns := map[string]bool{}
	for _, tp := range tuples {
		s, err := r.ref(tp)
		if err != nil {
			b.problem("replay %v: %v", tp, err)
			continue
		}
		byMode[tp.Mode] = append(byMode[tp.Mode], ms(s.Wall))
		kb = append(kb, float64(s.Bytes)/1024)
		allocs = append(allocs, float64(s.Allocs))
		if tp.Mode == "faasnap" {
			mmaps = append(mmaps, float64(s.Res.MmapCalls))
		}
		majors += s.Res.Faults.Majors()
		fetchMB += float64(s.Res.FetchBytes) / (1 << 20)
		if p := s.Res.Prefetch; p != nil {
			precision = append(precision, p.Precision)
			recall = append(recall, p.Recall)
		}
		if !fns[tp.Fn] {
			fns[tp.Fn] = true
			recWall = append(recWall, ms(r.recs[tp.Fn]))
		}
	}
	for _, m := range []string{"faasnap", "reap", "firecracker"} {
		b.layer("core.invoke_wall_ms."+m, zeroNaN(median(byMode[m])), "ms")
	}
	b.layer("core.invoke_alloc_kb", zeroNaN(median(kb)), "KiB")
	b.layer("core.invoke_allocs", zeroNaN(median(allocs)), "count")
	b.layer("core.record_wall_ms", zeroNaN(median(recWall)), "ms")
	b.layer("core.mmap_calls", zeroNaN(median(mmaps)), "count")
	b.layer("sim.major_faults", float64(majors), "count")
	b.layer("sim.fetch_mb", fetchMB, "MB")
	b.layer("sim.prefetch_precision", zeroNaN(mean(precision)), "ratio")
	b.layer("sim.prefetch_recall", zeroNaN(mean(recall)), "ratio")
}

// storeLayers times the snapshot-store layers on the recorded
// artifacts of up to maxFns served functions, in a scratch directory:
// chunking, chunk writes (with fsync), the snapfile write and its
// CRC-checked read, and one manifest journal append.
func (b *bench) storeLayers(r *replayer, fns []string) error {
	const maxFns = 3
	if len(fns) > maxFns {
		fns = fns[:maxFns]
	}
	dir := filepath.Join(r.scratch, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := casstore.Open(dir, nil)
	if err != nil {
		return err
	}
	man, _, err := statedir.Open(dir)
	if err != nil {
		return err
	}
	defer man.Close()
	var build, put, save, load, appendMs []float64
	for _, fn := range fns {
		arts, err := r.artifacts(fn)
		if err != nil {
			return err
		}
		t0 := time.Now()
		cm, payloads := casstore.BuildChunks(arts, 0)
		t1 := time.Now()
		for _, c := range payloads {
			if _, err := store.PutDigest(casstore.Digest(c.Ref.Digest), c.Data); err != nil {
				return err
			}
		}
		t2 := time.Now()
		path := filepath.Join(dir, fn+".snap")
		if err := snapfile.SaveChunked(path, arts, cm); err != nil {
			return err
		}
		t3 := time.Now()
		if _, _, err := snapfile.LoadChunked(path); err != nil {
			return err
		}
		t4 := time.Now()
		if _, err := man.Record(fn, "A"); err != nil {
			return err
		}
		t5 := time.Now()
		build = append(build, ms(t1.Sub(t0)))
		put = append(put, ms(t2.Sub(t1)))
		save = append(save, ms(t3.Sub(t2)))
		load = append(load, ms(t4.Sub(t3)))
		appendMs = append(appendMs, ms(t5.Sub(t4)))
	}
	b.layer("casstore.build_ms", zeroNaN(median(build)), "ms")
	b.layer("casstore.put_ms", zeroNaN(median(put)), "ms")
	b.layer("snapfile.save_ms", zeroNaN(median(save)), "ms")
	b.layer("snapfile.load_ms", zeroNaN(median(load)), "ms")
	b.layer("statedir.append_ms", zeroNaN(median(appendMs)), "ms")
	return nil
}

// pipeLayers times the VMM API and guest-agent round trips over the
// in-memory pipe network, on a machine and agent this benchmark
// launches, with the mapping plan of one served function.
func (b *bench) pipeLayers(r *replayer, fn string) error {
	arts, err := r.artifacts(fn)
	if err != nil {
		return err
	}
	var plan []vmm.RegionMap
	for _, m := range arts.MappingPlan(true) {
		rm := vmm.RegionMap{StartPage: m.Start, Pages: m.Pages, Offset: m.FileOff}
		switch m.Backing {
		case core.MapAnon:
			rm.Backing, rm.Offset = "anonymous", 0
		case core.MapMemoryFile:
			rm.Backing, rm.Path = "memory_file", "/snapshots/"+fn+".mem"
		case core.MapLoadingSet:
			rm.Backing, rm.Path = "loading_set", "/snapshots/"+fn+".ls"
		}
		plan = append(plan, rm)
	}
	const rounds = 20
	var load, agent []float64
	for i := 0; i < rounds; i++ {
		m := vmm.Launch(fn + "-bench")
		start := time.Now()
		err := m.Client().LoadSnapshot(vmm.SnapshotLoadRequest{
			SnapshotPath: "/snapshots/" + fn + ".state",
			MemBackend:   vmm.MemBackend{BackendType: "File", BackendPath: "/snapshots/" + fn + ".mem"},
			ResumeVM:     true,
			RegionMaps:   plan,
		})
		load = append(load, ms(time.Since(start)))
		m.Close()
		if err != nil {
			return fmt.Errorf("vmm load snapshot: %w", err)
		}
	}
	a := guestagent.Start(fn+"-bench", func(guestagent.InvokeRequest) (guestagent.InvokeReply, error) {
		return guestagent.InvokeReply{}, nil
	})
	defer a.Close()
	c := a.Client()
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := c.Invoke(guestagent.InvokeRequest{Input: "B"}); err != nil {
			return fmt.Errorf("guest agent invoke: %w", err)
		}
		agent = append(agent, ms(time.Since(start)))
	}
	b.layer("vmm.load_snapshot_ms", median(load), "ms")
	b.layer("agent.invoke_ms", median(agent), "ms")
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// zeroNaN maps the median of no samples to 0: the layer did no work.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
