package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Layer is "client",
// "gateway" or "daemon"; Trace is the traceparent trace id the client
// minted, which the gateway forwards to the daemon, so the spans of
// one request share it.
type span struct {
	Layer  string    `json:"layer"`
	Op     string    `json:"op"`
	Trace  string    `json:"trace,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Status int       `json:"status"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory while on; they are written out when
// the run ends. The taps check on before doing any work, so a tier
// built with a recorder costs one atomic load per request while off.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// save writes the spans as one JSON object per line.
func (r *recorder) save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTime is parent's duration minus the part of it that children
// cover. Overlapping children (a retry racing a slow first attempt)
// are merged so no instant is subtracted twice, and children are
// clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			if i > 0 {
				covered += cur.b.Sub(cur.a)
			}
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// byTrace groups spans of one layer and op by trace id.
func byTrace(spans []span, layer, op string) map[string][]span {
	out := make(map[string][]span)
	for _, s := range spans {
		if s.Layer == layer && s.Op == op && s.Trace != "" {
			out[s.Trace] = append(out[s.Trace], s)
		}
	}
	return out
}
