package gateway

// Anti-entropy re-sync: the health sweep learns each backend's durable
// manifest (digest + per-function generations) from its /readyz
// routing digest, and after every sweep the gateway compares manifests
// across each function's replica set. A backend that rejoined with
// lost or stale state — wiped disk, quarantined snapshot, missed
// delete — is marked stale, demoted in placement, and repaired by
// replaying the missing registrations and recordings through its
// normal API from the owner/standby copy. When a sweep finds no
// deficits the backend returns to full ring weight. See GATEWAY.md.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/routing"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
)

// resyncCounter counts one repair action issued to a backend.
func (p *Pool) resyncCounter(b *Backend, action string) *telemetry.Counter {
	return p.reg.Counter("faasnap_gw_resync_total",
		"Anti-entropy repair operations issued to stale backends, by backend and action.",
		telemetry.L("backend", b.Addr, "action", action))
}

// chunkBytesCounter counts chunk payload bytes moved into a backend by
// anti-entropy chunk-sync repairs.
func (p *Pool) chunkBytesCounter(b *Backend) *telemetry.Counter {
	return p.reg.Counter("faasnap_gw_resync_chunk_bytes_total",
		"Chunk payload bytes transferred by anti-entropy chunk-sync repairs, by backend.",
		telemetry.L("backend", b.Addr))
}

// resyncOp replays one mutation against a backend's normal API; true on
// a 2xx answer. Repairs ride the same endpoints clients use, so every
// daemon-side invariant (journaling, verification, quarantine) applies
// to replicated state too.
func (p *Pool) resyncOp(b *Backend, method, path string, body []byte) bool {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+b.Addr+path, rd)
	if err != nil {
		return false
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode/100 == 2
}

// syncResult mirrors the subset of the daemon's POST /functions/{name}/sync
// response the gateway accounts for.
type syncResult struct {
	ChunksTotal   int   `json:"chunks_total"`
	ChunksFetched int   `json:"chunks_fetched"`
	BytesTotal    int64 `json:"bytes_total"`
	BytesFetched  int64 `json:"bytes_fetched"`
	SnapfileBytes int64 `json:"snapfile_bytes"`
	// TraceID identifies the restore-waterfall trace the target daemon
	// minted for this sync; the gateway's repair event carries it so the
	// transfer can be rendered with `faasnapctl waterfall`.
	TraceID string `json:"trace_id,omitempty"`
}

// resyncChunkSync asks backend b to pull fn's snapshot from source via
// the chunk-level sync endpoint, so only chunks b doesn't already hold
// move over the wire. Returns the daemon's transfer accounting, whose
// fetched bytes it also counts; ok is false when the backend predates
// the endpoint or the pull failed, in which case the caller falls back
// to replaying the recording.
// eager asks the target to fetch every missing chunk before replying
// instead of deferring non-loading-set chunks to its background
// fetcher — used when the repair itself is about missing lazy chunks.
func (p *Pool) resyncChunkSync(b *Backend, fn, source string, eager bool) (syncResult, bool) {
	body, _ := json.Marshal(map[string]interface{}{"source": source, "eager": eager})
	req, err := http.NewRequest(http.MethodPost, "http://"+b.Addr+"/functions/"+fn+"/sync", bytes.NewReader(body))
	if err != nil {
		return syncResult{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return syncResult{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return syncResult{}, false
	}
	var sr syncResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&sr); err != nil {
		return syncResult{}, false
	}
	p.chunkBytesCounter(b).Add(float64(sr.BytesFetched))
	return sr, true
}

// noteRepair publishes a repair event and remembers its seq as the
// backend's most recent repair, so the converged event a later clean
// pass emits can cite it as cause_seq.
func (p *Pool) noteRepair(addr string, e events.Event) {
	if p.events == nil {
		return
	}
	ev := p.events.Append(e)
	p.repairMu.Lock()
	p.lastRepairSeq[addr] = ev.Seq
	p.repairMu.Unlock()
}

// ResyncNow runs one anti-entropy pass over the manifests collected by
// the last health sweep and returns the number of repair actions
// issued. The sweep loop calls it after every CheckNow; tests call it
// directly for a deterministic pass.
//
// Staleness is judged within each function's replica set (the ring
// owner plus the configured standbys — the backends that are supposed
// to hold it):
//
//   - the highest-generation entry wins: generations count acknowledged
//     mutations per function, so replicas that processed the same
//     fan-out history agree, and a backend that missed operations sits
//     strictly below;
//   - winner live: backends missing the registration (or holding a
//     stale tombstone) get the registration replayed — spec body
//     included for custom functions — and backends missing the snapshot
//     get the recording replayed with the winner's record input;
//   - winner tombstoned: live lower-generation copies are deleted, so
//     an acknowledged delete can never resurrect through a backend that
//     was down when it happened.
//
// Backends without a manifest (stateless, recovering, or unreachable
// this sweep) are neither sources nor targets.
func (p *Pool) ResyncNow() int {
	t0 := time.Now()
	type repairRec struct {
		fn, backend, action, traceID string
		start, dur                   time.Duration
	}
	var repairs []repairRec
	actions := 0
	// repair runs one repair op against b. On success it counts the op
	// under counter, times it as action, and publishes ev — completed
	// with the type, function, backend and action — as the repair event.
	repair := func(b *Backend, fn, counter, action string, op func() (ev events.Event, ok bool)) bool {
		start := time.Since(t0)
		ev, ok := op()
		if !ok {
			return false
		}
		p.resyncCounter(b, counter).Inc()
		actions++
		repairs = append(repairs, repairRec{
			fn: fn, backend: b.Addr, action: action, traceID: ev.TraceID,
			start: start, dur: time.Since(t0) - start,
		})
		ev.Type, ev.Function = events.Repair, fn
		if ev.Fields == nil {
			ev.Fields = map[string]string{}
		}
		ev.Fields["backend"], ev.Fields["action"] = b.Addr, action
		p.noteRepair(b.Addr, ev)
		return true
	}
	replay := func(b *Backend, method, path string, body []byte) func() (events.Event, bool) {
		return func() (events.Event, bool) { return events.Event{}, p.resyncOp(b, method, path, body) }
	}
	chunkSync := func(b *Backend, fn, source string, eager bool) func() (events.Event, bool) {
		return func() (events.Event, bool) {
			sr, ok := p.resyncChunkSync(b, fn, source, eager)
			if !ok {
				return events.Event{}, false
			}
			return events.Event{TraceID: sr.TraceID, Fields: map[string]string{
				"source":         source,
				"chunks_fetched": strconv.Itoa(sr.ChunksFetched),
				"bytes_fetched":  strconv.FormatInt(sr.BytesFetched, 10),
			}}, true
		}
	}

	backends := p.snapshot()
	manifests := make(map[string]*routing.Manifest, len(backends))
	fns := make(map[string]bool)
	for _, b := range backends {
		mi := b.manifestInfo()
		if mi == nil || mi.Recovering || !b.Ready() {
			continue
		}
		manifests[b.Addr] = mi
		for _, e := range mi.Functions {
			fns[e.Name] = true
		}
	}
	// Deterministic repair order keeps logs and tests stable.
	names := make([]string, 0, len(fns))
	for fn := range fns {
		names = append(names, fn)
	}
	sort.Strings(names)

	stale := make(map[string]bool)
	for _, fn := range names {
		prefs := p.preference(fn, 1+p.replicas)
		var winner *routing.ManifestFunction
		var winnerAddr string
		for _, b := range prefs {
			mi := manifests[b.Addr]
			if mi == nil {
				continue
			}
			if e, ok := mi.Entry(fn); ok {
				// Highest generation wins; among equals prefer a copy with
				// the snapshot, then the one with the smallest chunk-store
				// deficit — a repair source must be able to serve every
				// chunk it advertises.
				better := winner == nil || e.Generation > winner.Generation
				if winner != nil && e.Generation == winner.Generation {
					if e.HasSnapshot != winner.HasSnapshot {
						better = e.HasSnapshot
					} else {
						better = e.ChunksMissing < winner.ChunksMissing
					}
				}
				if better {
					we := e
					winner = &we
					winnerAddr = b.Addr
				}
			}
		}
		if winner == nil {
			continue
		}
		for _, b := range prefs {
			mi := manifests[b.Addr]
			if mi == nil {
				continue
			}
			e, ok := mi.Entry(fn)
			if winner.Deleted {
				if ok && !e.Deleted && e.Generation < winner.Generation {
					stale[b.Addr] = true
					repair(b, fn, "delete", "delete", replay(b, http.MethodDelete, "/functions/"+fn, nil))
				}
				continue
			}
			if !ok || e.Deleted {
				stale[b.Addr] = true
				if !repair(b, fn, "register", "register", replay(b, http.MethodPut, "/functions/"+fn, []byte(winner.Spec))) {
					continue // no point recording onto a failed register
				}
				e = routing.ManifestFunction{}
			}
			if winner.HasSnapshot && !e.HasSnapshot {
				stale[b.Addr] = true
				// Prefer chunk-level sync: the backend pulls the winner's
				// chunk map and fetches only the chunks it is missing, so a
				// standby that shares most content (same base image, or a
				// stale-but-overlapping copy) repairs with a fraction of the
				// snapfile's bytes. Re-recording is the fallback for sources
				// or targets that predate the chunk store.
				synced := winnerAddr != "" && winnerAddr != b.Addr &&
					repair(b, fn, "chunks", "chunks", chunkSync(b, fn, winnerAddr, false))
				if !synced {
					body, _ := json.Marshal(map[string]string{"input": winner.RecordInput})
					repair(b, fn, "record", "record", replay(b, http.MethodPost, "/functions/"+fn+"/record", body))
				}
			} else if winner.HasSnapshot && e.HasSnapshot && e.ChunksMissing > 0 &&
				winner.ChunksMissing == 0 && b.Addr != winnerAddr {
				// The backend has the snapshot but lost part of its chunk
				// content — a lazy tail its background fetcher abandoned, or
				// out-of-band loss. It serves fine from its loading set but
				// answers 404 to peers for the missing digests, so repair by
				// pulling the deficit eagerly from a complete copy. Chunks
				// still queued for its lazy fetcher (chunks_pending) are in
				// flight, not lost, and call for no repair.
				stale[b.Addr] = true
				eagerSync := chunkSync(b, fn, winnerAddr, true)
				repair(b, fn, "chunks", "chunks_eager", func() (events.Event, bool) {
					ev, ok := eagerSync()
					// The repair event cites the backend's own
					// manifest_deficit event as its cause: cause_seq plus
					// cause_origin (the backend's address) resolve against
					// that daemon's /events ledger, and trace_id resolves to
					// the restore waterfall the sync minted.
					ev.CauseSeq, ev.CauseOrigin = e.DeficitSeq, b.Addr
					return ev, ok
				})
			}
		}
	}
	for _, b := range backends {
		prev := b.Stale()
		now := stale[b.Addr]
		b.setStale(now)
		v := 0.0
		if now {
			v = 1
		}
		p.reg.Gauge("faasnap_gw_backend_stale",
			"Backends found stale by the last anti-entropy pass (1 = repairs in flight, demoted in placement).",
			telemetry.L("backend", b.Addr)).Set(v)
		if p.events == nil || now == prev {
			continue
		}
		if now {
			p.events.Append(events.Event{
				Type:   events.BackendStale,
				Fields: map[string]string{"backend": b.Addr},
			})
			continue
		}
		p.events.Append(events.Event{
			Type:   events.BackendClean,
			Fields: map[string]string{"backend": b.Addr},
		})
		// Converged closes the causality chain: it cites the backend's
		// last repair event (a gateway-ledger seq) as cause_seq.
		p.repairMu.Lock()
		cause := p.lastRepairSeq[b.Addr]
		p.repairMu.Unlock()
		ev := events.Event{
			Type:   events.Converged,
			Fields: map[string]string{"backend": b.Addr},
		}
		if cause > 0 {
			ev.CauseSeq = cause
			ev.CauseOrigin = "gateway"
		}
		p.events.Append(ev)
	}

	// A sweep that issued repairs leaves a trace in the gateway-local
	// store: one root span for the pass, one child per repair action,
	// chunk syncs cross-linked to the daemon-minted restore waterfall
	// via the sync_trace tag.
	if actions > 0 && p.traces != nil {
		wall := time.Since(t0)
		tid := p.traces.NextID()
		tb := trace.NewBuilder(tid, "anti-entropy-sweep")
		root := tb.Span("anti-entropy-sweep", "", 0, wall,
			map[string]string{"actions": strconv.Itoa(actions)})
		for _, r := range repairs {
			tags := map[string]string{"backend": r.backend, "action": r.action}
			if r.traceID != "" {
				tags["sync_trace"] = r.traceID
			}
			tb.Span("repair "+r.fn, root, r.start, r.dur, tags)
		}
		p.traces.Put(tb.Finish())
	}
	return actions
}
