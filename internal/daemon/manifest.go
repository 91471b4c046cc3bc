package daemon

// Crash-consistent durable state: the daemon journals every
// acknowledged registration, snapshot recording, and delete to the
// state directory's manifest (internal/statedir) and recovers from it
// on start. Recovery replays the manifest, re-deploys verified
// snapfiles, quarantines anything inconsistent (corrupt snapfiles,
// orphans from a crash between snapfile commit and journal append),
// and holds /readyz in a `recovering` state until the registry matches
// the manifest. See RESILIENCE.md, "Crash consistency & recovery".

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/routing"
	"faasnap/internal/snapfile"
	"faasnap/internal/statedir"
	"faasnap/internal/trace"
	"faasnap/internal/workload"
)

// errOrphanSnapfile marks a .snap present on disk with no manifest
// record of a completed recording — the leftover of a crash between
// the snapfile commit and the journal append. It was never
// acknowledged, so it is quarantined, not served.
type orphanError struct{ name string }

func (e orphanError) Error() string {
	return "snapfile " + e.name + " has no manifest record (crash between snapshot commit and journal append)"
}

// Recovering reports whether the daemon is still replaying its
// manifest; /readyz answers 503 with Retry-After until this clears.
func (d *Daemon) Recovering() bool { return d.recovering.Load() }

// WaitRecovered blocks until recovery completes (immediately for a
// daemon without a state dir, or one built with synchronous recovery).
func (d *Daemon) WaitRecovered() { <-d.recovered }

// gateRecovering rejects a request while recovery is in flight, with
// the same Retry-After contract as admission shed: the state the
// request would read or mutate is not yet authoritative.
func (d *Daemon) gateRecovering(w http.ResponseWriter) bool {
	if !d.recovering.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "daemon recovering: manifest replay in progress; retry shortly")
	return true
}

// recover rebuilds the registry from the manifest. It runs exactly
// once per daemon (synchronously inside New, or in the background with
// Config.AsyncRecovery) and flips recovering off when the registry is
// authoritative.
func (d *Daemon) recoverState(rec *statedir.Recovery) {
	start := time.Now()
	defer func() {
		d.recovering.Store(false)
		close(d.recovered)
	}()
	if rec.TornBytes > 0 {
		d.telemetry.Counter("faasnap_manifest_torn_total",
			"Manifest journals found with a torn or corrupt tail at recovery.", nil).Inc()
		d.log.Printf("manifest recovery: truncated %d torn tail bytes (evidence: %s)", rec.TornBytes, rec.Evidence)
	}
	if rec.Created {
		// Legacy state dir (snapfiles from before the manifest existed):
		// adopt whatever verifies, so upgrading a host loses nothing.
		d.adoptLegacySnapfiles()
	}
	for _, e := range d.manifest.Live() {
		spec, err := d.resolveManifestSpec(e)
		if err != nil {
			d.log.Printf("recovery: cannot resolve spec for %s: %v", e.Name, err)
			continue
		}
		fs := &fnState{spec: spec}
		if e.HasSnapshot {
			arts, cm, err := d.loadSnapfile(e.Name)
			if err == nil && cm != nil {
				// A chunked snapfile is only servable if its eager tier is
				// intact: every loading-set chunk must be present in the
				// store. Missing lazy chunks are tolerated — they refetch on
				// demand or via anti-entropy.
				err = d.verifyChunks(e.Name, cm)
			}
			if err != nil {
				// The acknowledged registration survives; the snapshot is
				// unusable and must never be served. Quarantine it and
				// journal the loss so GET /manifest tells replicas this
				// host needs the snapshot re-replicated.
				d.quarantine(filepath.Join(d.cfg.StateDir, e.Name+".snap"), err)
				if _, ierr := d.manifest.Invalidate(e.Name); ierr != nil {
					d.log.Printf("recovery: journal invalidate %s: %v", e.Name, ierr)
				}
			} else {
				fs.arts = arts
				fs.chunks = cm
				d.log.Printf("reloaded snapshot for %s (%d WS pages, generation %d)", e.Name, arts.WS.Pages(), e.Generation)
			}
		}
		d.reg.set(e.Name, fs)
	}
	replayDone := time.Since(start)
	d.sweepStateDir()
	sweepDone := time.Since(start)
	d.casRecoverySweep()
	wall := time.Since(start)
	d.telemetry.Histogram("faasnap_recovery_replay_seconds",
		"Wall time of manifest replay and state re-deployment at daemon start.", nil).Observe(wall)

	// The replay leaves a waterfall trace: manifest replay, state-dir
	// sweep, chunk-store sweep — the startup counterpart of the restore
	// waterfall.
	tid := d.traces.NextID()
	b := trace.NewBuilder(tid, "recovery-replay")
	root := b.Span("recovery-replay", "", 0, wall, map[string]string{
		"functions": strconv.Itoa(d.reg.size()),
	})
	b.Span("manifest-replay", root, 0, replayDone, nil)
	b.Span("statedir-sweep", root, replayDone, sweepDone-replayDone, nil)
	b.Span("cas-sweep", root, sweepDone, wall-sweepDone, nil)
	d.traces.Put(b.Finish())

	d.publishEvent(events.Event{
		Type:    events.RecoveryReplay,
		TraceID: string(tid),
		Fields: map[string]string{
			"functions": strconv.Itoa(d.reg.size()),
			"wall_ms":   strconv.FormatInt(wall.Milliseconds(), 10),
		},
	})
	d.log.Printf("recovery complete: %d functions, manifest digest %s", d.reg.size(), d.manifest.Digest())
}

// resolveManifestSpec turns a manifest entry back into a workload
// spec: catalog functions resolve by name, custom functions from their
// journaled SpecConfig JSON.
func (d *Daemon) resolveManifestSpec(e statedir.Entry) (*workload.Spec, error) {
	if e.Spec != "" {
		return workload.ParseSpec([]byte(e.Spec))
	}
	return workload.ByName(e.Name)
}

// loadSnapfile reads and verifies one function's snapfile in a single
// streaming pass (chunk map included for v2 files), applying any armed
// chaos storage fault (the injected-corruption path the resilience
// tests drive).
func (d *Daemon) loadSnapfile(name string) (*core.Artifacts, *snapfile.ChunkMap, error) {
	path := filepath.Join(d.cfg.StateDir, name+".snap")
	fault := snapfile.FaultNone
	switch dec := d.chaos.Eval(chaos.PointSnapfile, name+".snap"); {
	case dec.Is(chaos.KindCorrupt):
		fault = snapfile.FaultCorrupt
	case dec.Is(chaos.KindTruncate):
		fault = snapfile.FaultTruncate
	}
	return snapfile.LoadChunkedWithFault(path, fault)
}

// adoptLegacySnapfiles migrates a pre-manifest state dir: every
// snapfile that verifies is journaled as a registration plus a
// recording, so the next restart recovers through the manifest alone.
func (d *Daemon) adoptLegacySnapfiles() {
	entries, err := os.ReadDir(d.cfg.StateDir)
	if err != nil {
		d.log.Printf("adopt legacy snapfiles: %v", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".snap")
		arts, _, err := d.loadSnapfile(name)
		if err != nil {
			d.quarantine(filepath.Join(d.cfg.StateDir, e.Name()), err)
			continue
		}
		specJSON := ""
		if arts.Fn.Origin != nil {
			if raw, merr := json.Marshal(arts.Fn.Origin); merr == nil {
				specJSON = string(raw)
			}
		}
		if _, err := d.manifest.Register(arts.Fn.Name, specJSON); err != nil {
			d.log.Printf("adopt %s: %v", name, err)
			continue
		}
		if _, err := d.manifest.Record(arts.Fn.Name, arts.RecordInput.Name); err != nil {
			d.log.Printf("adopt %s: %v", name, err)
		}
	}
}

// sweepStateDir removes leftover temp files and quarantines orphan
// snapfiles — a .snap with no manifest record was committed by a
// writer that died before journaling, i.e. an unacknowledged write.
func (d *Daemon) sweepStateDir() {
	entries, err := os.ReadDir(d.cfg.StateDir)
	if err != nil {
		d.log.Printf("state dir sweep: %v", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Temp files are mid-write by definition: never acknowledged,
			// safe to drop.
			_ = os.Remove(filepath.Join(d.cfg.StateDir, name))
			continue
		}
		if !strings.HasSuffix(name, ".snap") {
			continue
		}
		fn := strings.TrimSuffix(name, ".snap")
		if me, ok := d.manifest.Get(fn); !ok || me.Deleted || !me.HasSnapshot {
			d.quarantine(filepath.Join(d.cfg.StateDir, name), orphanError{name: fn})
		}
	}
}

// ManifestResponse is GET /manifest (routing.Manifest, the wire
// format the gateway decodes too).
type ManifestResponse = routing.Manifest

// handleManifest reports the manifest digest and per-function
// generations (tombstones included). It intentionally serves during
// recovery — the journal is fully replayed before any handler runs;
// only snapfile re-deployment is still in flight — so an operator can
// see what a recovering backend will hold.
func (d *Daemon) handleManifest(w http.ResponseWriter, r *http.Request) {
	if mr := d.manifestSummary(); mr != nil {
		writeJSON(w, http.StatusOK, mr)
		return
	}
	writeErr(w, http.StatusNotFound, "no state directory; this daemon keeps no durable manifest")
}

// manifestSummary builds the manifest part of GET /manifest and of the
// routing digest; nil for a daemon without a state directory.
func (d *Daemon) manifestSummary() *routing.Manifest {
	if d.manifest == nil {
		return nil
	}
	entries := d.manifest.Entries()
	fns := make([]routing.ManifestFunction, 0, len(entries))
	for _, e := range entries {
		mf := routing.ManifestFunction{Entry: e}
		if !e.Deleted && e.HasSnapshot {
			mf.ChunksMissing, mf.ChunksPending = d.absentChunks(e.Name)
			mf.DeficitSeq = d.noteDeficit(e.Name, mf.ChunksMissing)
		}
		fns = append(fns, mf)
	}
	return &routing.Manifest{
		Digest:     d.manifest.Digest(),
		Recovering: d.recovering.Load(),
		Functions:  fns,
	}
}
