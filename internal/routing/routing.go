// Package routing defines the wire format of a daemon's routing digest:
// the GET /readyz 200 body, which carries everything the gateway's
// health sweep routes and repairs on, so one request per backend per
// sweep is enough. The daemon builds it and the gateway decodes it;
// GET /manifest serves the manifest part on its own.
package routing

import (
	"faasnap/internal/obs"
	"faasnap/internal/slo"
	"faasnap/internal/statedir"
)

// Digest is a ready daemon's GET /readyz body. A daemon that is not
// ready answers 503 with a reasons body instead.
type Digest struct {
	Ready bool `json:"ready"`
	// HTTPInFlight counts the daemon's instrumented requests in flight,
	// the probe that asked for this digest excluded.
	HTTPInFlight int64 `json:"http_inflight"`
	// AdmissionInFlight/AdmissionCapacity are the invocation limiter's
	// admitted weight and its window.
	AdmissionInFlight int64 `json:"admission_inflight"`
	AdmissionCapacity int64 `json:"admission_capacity"`
	// SLO is the burn-rate engine's report (GET /slo).
	SLO *slo.Report `json:"slo,omitempty"`
	// Profiles is the flight recorder's per-function aggregation
	// (GET /profiles?summary=1).
	Profiles *obs.Summary `json:"profiles,omitempty"`
	// Manifest is the durable-state summary (GET /manifest); nil for a
	// daemon without a state directory.
	Manifest *Manifest `json:"manifest,omitempty"`
}

// Manifest is GET /manifest: the durable-state summary the gateway's
// anti-entropy pass compares across replicas.
type Manifest struct {
	Digest     string             `json:"digest"`
	Recovering bool               `json:"recovering"`
	Functions  []ManifestFunction `json:"functions"`
}

// Entry returns fn's entry, if the manifest has one.
func (m *Manifest) Entry(fn string) (ManifestFunction, bool) {
	for _, e := range m.Functions {
		if e.Name == fn {
			return e, true
		}
	}
	return ManifestFunction{}, false
}

// ManifestFunction is one function's durable journal state plus the
// local chunk store's standing against its chunk map.
type ManifestFunction struct {
	statedir.Entry
	// ChunksMissing counts chunk-map refs absent from the local store
	// and not queued for the background lazy fetcher: lost chunks, such
	// as a lazy tail the fetcher abandoned. Non-zero tells anti-entropy
	// this replica needs an eager chunk re-sync from a complete copy.
	ChunksMissing int `json:"chunks_missing,omitempty"`
	// ChunksPending counts absent refs still queued for the lazy
	// fetcher: in flight, not lost, so not a reason to repair.
	ChunksPending int `json:"chunks_pending,omitempty"`
	// DeficitSeq is the ledger seq of the manifest_deficit event that
	// announced the deficit; the gateway links its repair event back to
	// it as cause_seq, making the causality chain resolvable across
	// daemons.
	DeficitSeq uint64 `json:"deficit_seq,omitempty"`
}
