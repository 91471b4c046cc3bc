package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// casSpec is a custom function spec; every spec from this helper shares
// the same base image (boot_mb), so their boot chunks dedup.
func casSpec(name string) map[string]interface{} {
	return map[string]interface{}{
		"name": name, "boot_mb": 16, "stable_pages": 128,
		"chunk_mean": 4, "retain_frac": 0.5, "base_ms": 1, "per_kb_us": 2,
		"init_ms": 5,
		"input_a": map[string]interface{}{"bytes": 4096, "data_pages": 8},
		"input_b": map[string]interface{}{"bytes": 16384, "data_pages": 24},
	}
}

func casProvision(t *testing.T, srv *httptest.Server, name string) {
	t.Helper()
	if resp := doJSON(t, "PUT", srv.URL+"/functions/"+name, casSpec(name), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s = %d", name, resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv.URL+"/functions/"+name+"/record",
		map[string]string{"input": "A"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("record %s = %d", name, resp.StatusCode)
	}
}

func casInvoke(t *testing.T, srv *httptest.Server, name string) {
	t.Helper()
	resp := doJSON(t, "POST", srv.URL+"/functions/"+name+"/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke %s = %d", name, resp.StatusCode)
	}
}

// hostport strips the scheme from an httptest server URL, yielding the
// address form the sync API takes.
func hostport(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

// waitLazyDrained polls GET /cas until the background lazy fetcher owes
// nothing.
func waitLazyDrained(t *testing.T, srv *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var cs CASResponse
		doJSON(t, "GET", srv.URL+"/cas", nil, &cs)
		if cs.LazyPendingChunks == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("lazy chunk fetch never drained")
}

func TestCASDedupAcrossFunctions(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")

	var solo CASResponse
	doJSON(t, "GET", srv.URL+"/cas", nil, &solo)
	if solo.LogicalBytes <= 0 || solo.Stats.LocalChunks == 0 {
		t.Fatalf("after one record: %+v", solo)
	}

	casProvision(t, srv, "cas-beta")
	var both CASResponse
	doJSON(t, "GET", srv.URL+"/cas", nil, &both)
	if both.LogicalBytes <= solo.LogicalBytes {
		t.Fatalf("logical bytes did not grow: %d -> %d", solo.LogicalBytes, both.LogicalBytes)
	}
	// Two functions from the same base image must share the majority of
	// their content: the store stays well below 2x a single snapshot.
	if phys := both.Stats.PhysicalBytes(); phys >= solo.LogicalBytes*17/10 {
		t.Fatalf("store holds %d bytes for two snapshots of %d each — dedup not real", phys, solo.LogicalBytes)
	}
	if both.DedupRatio <= 0.25 {
		t.Fatalf("dedup ratio = %v, want > 0.25 for shared-base functions", both.DedupRatio)
	}

	var info FunctionInfo
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha", nil, &info)
	if info.Chunks == 0 || info.ChunkBytes == 0 {
		t.Fatalf("function info carries no chunk map: %+v", info)
	}
}

func TestCASChunkEndpoints(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")

	var sum ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap?summary=1", nil, &sum)
	if sum.ChunkCount == 0 || sum.Chunks != nil || sum.Snapfile != nil {
		t.Fatalf("summary chunkmap = %+v", sum)
	}
	var full ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap", nil, &full)
	if len(full.Chunks) != full.ChunkCount || len(full.Snapfile) == 0 {
		t.Fatalf("full chunkmap: %d refs of %d, %d snapfile bytes",
			len(full.Chunks), full.ChunkCount, len(full.Snapfile))
	}

	// A chunk round-trips and hashes to its digest.
	ref := full.Chunks[0]
	resp, err := http.Get(srv.URL + "/chunks/" + ref.Digest)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk get = %d", resp.StatusCode)
	}
	if got := hex.EncodeToString(func() []byte { s := sha256.Sum256(data); return s[:] }()); got != ref.Digest {
		t.Fatalf("chunk bytes hash to %s, addressed as %s", got, ref.Digest)
	}
	if tier := resp.Header.Get("X-Faasnap-Chunk-Tier"); tier != "local" {
		t.Fatalf("chunk tier = %q, want local", tier)
	}

	if resp := doJSON(t, "GET", srv.URL+"/chunks/not-a-digest", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad digest = %d, want 400", resp.StatusCode)
	}
	missing := strings.Repeat("00", 32)
	if resp := doJSON(t, "GET", srv.URL+"/chunks/"+missing, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing digest = %d, want 404", resp.StatusCode)
	}
}

func TestCASCorruptChunkQuarantined(t *testing.T) {
	state := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: state})
	casProvision(t, srv, "cas-alpha")

	var full ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap", nil, &full)
	hexd := full.Chunks[0].Digest
	path := filepath.Join(state, "cas", "chunks", hexd[:2], hexd)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// First read detects the damage and quarantines; the chunk is never
	// served corrupt and later reads answer 404.
	if resp := doJSON(t, "GET", srv.URL+"/chunks/"+hexd, nil, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt chunk = %d, want 500", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", srv.URL+"/chunks/"+hexd, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("quarantined chunk = %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(state, "quarantine", "chunk-"+hexd)); err != nil {
		t.Fatalf("corrupt chunk not quarantined: %v", err)
	}
}

// TestCASSyncThreeDaemons is the cross-host restore e2e: A records, B
// restores from A without ever recording, C restores from B — and a
// second function from the same base image syncs at a fraction of its
// bytes because the shared chunks are already present.
func TestCASSyncThreeDaemons(t *testing.T) {
	_, srvA := newTestDaemon(t, Config{StateDir: t.TempDir()})
	_, srvB := newTestDaemon(t, Config{StateDir: t.TempDir()})
	_, srvC := newTestDaemon(t, Config{StateDir: t.TempDir()})

	casProvision(t, srvA, "cas-alpha")

	// B pulls alpha from A. Only the loading set moves eagerly; the
	// lazy tail must leave the reply's transfer strictly smaller than
	// the full snapshot.
	var sync SyncResponse
	if resp := doJSON(t, "POST", srvB.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(srvA)}, &sync); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync B<-A = %d", resp.StatusCode)
	}
	if sync.ChunksFetched == 0 || sync.ChunksLazy == 0 {
		t.Fatalf("sync fetched %d eagerly, deferred %d; want both > 0: %+v",
			sync.ChunksFetched, sync.ChunksLazy, sync)
	}
	if sync.BytesFetched >= sync.BytesTotal {
		t.Fatalf("lazy restore transferred %d of %d bytes — nothing deferred", sync.BytesFetched, sync.BytesTotal)
	}
	// The function serves immediately from its loading set.
	casInvoke(t, srvB, "cas-alpha")
	var info FunctionInfo
	doJSON(t, "GET", srvB.URL+"/functions/cas-alpha", nil, &info)
	if !info.HasSnapshot || info.Chunks == 0 {
		t.Fatalf("synced function info = %+v", info)
	}
	waitLazyDrained(t, srvB)

	var casB CASResponse
	doJSON(t, "GET", srvB.URL+"/cas", nil, &casB)
	if casB.RestoreBytesSaved <= 0 {
		t.Fatalf("restore saved %d bytes, want > 0", casB.RestoreBytesSaved)
	}

	// C restores from B — a host that never recorded the function.
	var syncC SyncResponse
	if resp := doJSON(t, "POST", srvC.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(srvB)}, &syncC); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync C<-B = %d", resp.StatusCode)
	}
	casInvoke(t, srvC, "cas-alpha")
	waitLazyDrained(t, srvC)

	// A sibling from the same base image: most of its chunks are
	// already on B, so the transfer is a fraction of the snapshot.
	casProvision(t, srvA, "cas-beta")
	var syncBeta SyncResponse
	if resp := doJSON(t, "POST", srvB.URL+"/functions/cas-beta/sync",
		map[string]interface{}{"source": hostport(srvA), "eager": true}, &syncBeta); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync beta B<-A = %d", resp.StatusCode)
	}
	if syncBeta.ChunksPresent == 0 {
		t.Fatalf("no dedup on sibling sync: %+v", syncBeta)
	}
	if syncBeta.BytesFetched*2 >= syncBeta.BytesTotal {
		t.Fatalf("sibling sync moved %d of %d bytes; want < half via shared chunks", syncBeta.BytesFetched, syncBeta.BytesTotal)
	}
	casInvoke(t, srvB, "cas-beta")
}

func TestCASSyncRejectsBadSource(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	if resp := doJSON(t, "POST", srv.URL+"/functions/x/sync",
		map[string]interface{}{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sync without source = %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv.URL+"/functions/x/sync",
		map[string]interface{}{"source": "127.0.0.1:1"}, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("sync from dead source = %d, want 502", resp.StatusCode)
	}
	// Stateless daemons have no chunk plane at all.
	_, stateless := newTestDaemon(t, Config{})
	if resp := doJSON(t, "POST", stateless.URL+"/functions/x/sync",
		map[string]interface{}{"source": "127.0.0.1:1"}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stateless sync = %d, want 409", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", stateless.URL+"/cas", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stateless /cas = %d, want 404", resp.StatusCode)
	}
}

// TestCASGCHonorsTombstones: deleting a function frees its private
// chunks on the next sweep, keeps chunks shared with live functions,
// and an empty registry empties the store.
func TestCASGCHonorsTombstones(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")
	casProvision(t, srv, "cas-beta")

	if resp := doJSON(t, "DELETE", srv.URL+"/functions/cas-beta", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	var gc GCResponse
	if resp := doJSON(t, "POST", srv.URL+"/gc", map[string]interface{}{}, &gc); resp.StatusCode != http.StatusOK {
		t.Fatalf("gc = %d", resp.StatusCode)
	}
	if gc.Removed == 0 {
		t.Fatal("delete freed no chunks")
	}
	if gc.Kept == 0 {
		t.Fatal("gc removed the survivor's chunks")
	}
	// The survivor still serves.
	casInvoke(t, srv, "cas-alpha")

	if resp := doJSON(t, "DELETE", srv.URL+"/functions/cas-alpha", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	doJSON(t, "POST", srv.URL+"/gc", map[string]interface{}{}, &gc)
	if gc.Stats.LocalChunks != 0 || gc.Stats.ColdChunks != 0 {
		t.Fatalf("empty registry left chunks behind: %+v", gc.Stats)
	}
}

// TestCASGCDemote: live chunks outside every loading set move to the
// compressed cold tier and still serve (with the cold tier's modeled
// latency) through the chunk API.
func TestCASGCDemote(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")

	var full ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap", nil, &full)
	var coldDigest string
	for _, ref := range full.Chunks {
		if !ref.LoadingSet {
			coldDigest = ref.Digest
			break
		}
	}
	if coldDigest == "" {
		t.Fatal("every chunk is in the loading set; spec too small to test demotion")
	}

	var gc GCResponse
	if resp := doJSON(t, "POST", srv.URL+"/gc", map[string]interface{}{"demote": true}, &gc); resp.StatusCode != http.StatusOK {
		t.Fatalf("gc demote = %d", resp.StatusCode)
	}
	if gc.Demoted == 0 || gc.Stats.ColdChunks == 0 {
		t.Fatalf("nothing demoted: %+v", gc)
	}
	resp, err := http.Get(srv.URL + "/chunks/" + coldDigest)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Faasnap-Chunk-Tier") != "cold" {
		t.Fatalf("demoted chunk get = %d tier=%q, want 200 from cold", resp.StatusCode, resp.Header.Get("X-Faasnap-Chunk-Tier"))
	}
}

// TestCASRecoveryKeepsChunks: a restart over the same state dir
// reloads chunk maps and keeps every referenced chunk through the
// recovery sweep.
func TestCASRecoveryKeepsChunks(t *testing.T) {
	state := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: state})
	casProvision(t, srv, "cas-alpha")
	var before CASResponse
	doJSON(t, "GET", srv.URL+"/cas", nil, &before)
	srv.Close()

	_, srv2 := newTestDaemon(t, Config{StateDir: state})
	var info FunctionInfo
	doJSON(t, "GET", srv2.URL+"/functions/cas-alpha", nil, &info)
	if !info.HasSnapshot || info.Chunks == 0 {
		t.Fatalf("recovered function lost its chunk map: %+v", info)
	}
	var after CASResponse
	doJSON(t, "GET", srv2.URL+"/cas", nil, &after)
	if after.Stats.LocalChunks != before.Stats.LocalChunks {
		t.Fatalf("recovery changed chunk count: %d -> %d", before.Stats.LocalChunks, after.Stats.LocalChunks)
	}
	casInvoke(t, srv2, "cas-alpha")
}

// Records and GC sweeps running concurrently must not deadlock. Both
// take casOps and the function's fs.mu; the sweep takes casOps first,
// so a record that took fs.mu first and then waited on casOps behind a
// pending sweep would hang both requests. Handlers are driven directly
// so a hang fails the test at its deadline instead of wedging a server
// shutdown.
func TestRecordAndGCDoNotDeadlock(t *testing.T) {
	d, err := New(Config{StateDir: t.TempDir(), Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	serve := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	raw, _ := json.Marshal(casSpec("cas-lockorder"))
	if code := serve("PUT", "/functions/cas-lockorder", string(raw)); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}

	const rounds = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if code := serve("POST", "/functions/cas-lockorder/record", `{"input":"A"}`); code != http.StatusOK {
					t.Errorf("record = %d", code)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if code := serve("POST", "/gc", ""); code != http.StatusOK {
					t.Errorf("gc = %d", code)
					return
				}
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
		d.Close()
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent record and GC deadlocked")
	}
}
