package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/daemon"
	"faasnap/internal/gateway"
	"faasnap/internal/telemetry"
)

// sweepHistogram is the gateway's health-sweep wall-time histogram; its
// count is the number of sweeps run.
const sweepHistogram = "faasnap_gw_sweep_seconds"

// tier is a serving tier started in this process: daemons on real TCP
// listeners, optionally behind a gateway. With a recorder, each
// daemon and the gateway handler are wrapped in a tap that records
// spans at the handler boundary; the program itself is unchanged.
type tier struct {
	dir     string
	addrs   []string // daemon host:port
	taps    []*tap   // daemon taps, parallel to addrs (nil when untraced)
	gw      *gateway.Gateway
	gwURL   string
	gwReg   *telemetry.Registry
	closers []func()
}

// shape is a tier's layout.
type shape struct {
	daemons int
	gateway bool
	// stateful daemons keep a state directory: chunk store, snapfiles
	// and manifest journal. Stateless ones keep snapshots in memory.
	stateful bool
}

// startTier starts the daemons of sh under dir, behind a gateway when
// sh asks for one. rec may be nil (no taps at all).
func startTier(dir string, sh shape, rec *recorder) (*tier, error) {
	t := &tier{dir: dir}
	quiet := log.New(io.Discard, "", 0)
	for i := 0; i < sh.daemons; i++ {
		state := ""
		if sh.stateful {
			state = filepath.Join(dir, fmt.Sprintf("daemon-%d", i))
			if err := os.MkdirAll(state, 0o755); err != nil {
				t.close()
				return nil, err
			}
		}
		d, err := daemon.New(daemon.Config{
			Host:      core.DefaultHostConfig(),
			Logger:    quiet,
			QuietHTTP: true,
			StateDir:  state,
		})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		t.closers = append(t.closers, d.Close)
		var h http.Handler = d.Handler()
		var tp *tap
		if rec != nil {
			tp = &tap{layer: "daemon", rec: rec, next: h}
			h = tp
		}
		addr, err := t.serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		t.addrs = append(t.addrs, addr)
		t.taps = append(t.taps, tp)
	}
	if !sh.gateway {
		return t, nil
	}
	// The same gateway shape as `make bench-smoke`: a router whose
	// per-backend cap is out of the way, sweeping every 500ms.
	t.gwReg = telemetry.NewRegistry()
	gw, err := gateway.New(gateway.Config{
		Backends:       t.addrs,
		Logger:         quiet,
		Registry:       t.gwReg,
		HealthInterval: 500 * time.Millisecond,
		MaxPerBackend:  1 << 20,
		QuietHTTP:      true,
	})
	if err != nil {
		t.close()
		return nil, fmt.Errorf("start gateway: %w", err)
	}
	t.closers = append(t.closers, gw.Close)
	var h http.Handler = gw.Handler()
	if rec != nil {
		h = &tap{layer: "gateway", rec: rec, next: h}
	}
	addr, err := t.serve(h)
	if err != nil {
		t.close()
		return nil, err
	}
	t.gw = gw
	t.gwURL = "http://" + addr
	gw.Pool().CheckNow()
	return t, nil
}

func (t *tier) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	t.closers = append(t.closers, func() { srv.Close(); <-done })
	return ln.Addr().String(), nil
}

// close stops every server, the gateway and the daemons (in reverse
// start order, each waiting for its goroutines), then removes dir.
func (t *tier) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
	os.RemoveAll(t.dir)
}

// base is where the workload's client traffic goes.
func (t *tier) base() string {
	if t.gw != nil {
		return t.gwURL
	}
	return "http://" + t.addrs[0]
}

// sweepTotals is how many health sweeps the gateway has run and their
// summed wall time; zero without a gateway.
func (t *tier) sweepTotals() (int64, time.Duration) {
	if t.gwReg == nil {
		return 0, 0
	}
	h := t.gwReg.Histogram(sweepHistogram, "", nil)
	return h.Count(), h.Sum()
}

// tap records a span per request at one handler boundary, and counts
// the health-path traffic (the gateway's sweep scrapes) and sheds the
// daemon served.
type tap struct {
	layer string
	rec   *recorder
	next  http.Handler

	healthReqs  atomic.Int64
	healthBytes atomic.Int64
	shed        atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// healthPaths are the routes the gateway's sweep scrapes on each
// backend.
var healthPaths = []string{"/readyz", "/metrics", "/slo", "/profiles", "/manifest", "/healthz"}

func routeOf(r *http.Request) string {
	p := r.URL.Path
	if r.Method == http.MethodGet {
		for _, h := range healthPaths {
			if p == h {
				return "health"
			}
		}
	}
	switch {
	case strings.HasSuffix(p, "/invoke"):
		return "invoke"
	case strings.HasSuffix(p, "/record"):
		return "record"
	case strings.HasSuffix(p, "/sync"):
		return "sync"
	case p == "/gc":
		return "gc"
	}
	return "other"
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	end := time.Now()
	route := routeOf(r)
	if cw.status == http.StatusTooManyRequests {
		t.shed.Add(1)
	}
	sc, _ := telemetry.Extract(r.Header)
	switch {
	case route == "health":
		t.healthReqs.Add(1)
		t.healthBytes.Add(cw.n)
	case route == "invoke" && strings.HasPrefix(sc.TraceID, clientTracePrefix),
		route == "record", route == "sync", route == "gc":
		t.rec.add(span{Layer: t.layer, Op: route, Trace: sc.TraceID, Start: start, End: end, Status: cw.status})
	}
}

// call is one HTTP request from the benchmark's client.
type call struct {
	Status int
	Body   []byte
	Sent   time.Time
	Done   time.Time
}

// clientTimeout bounds one client call. A failed or refused operation
// counts as taking this long (failedLatMs), so it misses every latency
// limit.
const (
	clientTimeout = 60 * time.Second
	failedLatMs   = float64(clientTimeout / time.Millisecond)
)

// newClient returns a client holding at most conns connections per
// host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// do sends one request; body may be nil, and trace, when non-empty,
// becomes the request's traceparent.
func do(ctx context.Context, c *http.Client, method, url string, body interface{}, trace string) (call, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return call{}, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return call{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		telemetry.Inject(req.Header, telemetry.SpanContext{TraceID: trace, SpanID: trace[:16]})
	}
	out := call{Sent: time.Now()}
	resp, err := c.Do(req)
	if err != nil {
		return out, err
	}
	out.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.Done = time.Now()
	out.Status = resp.StatusCode
	return out, err
}

// mustOK is do for set-up and bookkeeping calls, where anything but a
// 2xx is an error.
func mustOK(ctx context.Context, c *http.Client, method, url string, body interface{}) (call, error) {
	res, err := do(ctx, c, method, url, body, "")
	if err != nil {
		return res, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if res.Status/100 != 2 {
		return res, fmt.Errorf("%s %s: %d %s", method, url, res.Status, bytes.TrimSpace(res.Body))
	}
	return res, nil
}
