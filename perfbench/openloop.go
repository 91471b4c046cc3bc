package main

import (
	"context"
	"sync"
	"time"
)

// The open-loop driver. loadgen.Run, the repo's harness behind
// `make bench-smoke`, times each request from its actual send and
// allows 4096 connections, so a stall never shows up in its latencies
// and a 2-core host drowns in sockets. This driver times every request
// from the moment it was due, caps connections at nproc (arrivals wait
// in a client-side queue, and the wait counts), and reports how late
// the generator itself released arrivals.

// clock is the driver's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(ctx context.Context, t time.Time) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// arrival is one scheduled request, At after the run starts.
type arrival struct {
	Seq    int // position in the schedule
	At     time.Duration
	Fn     string
	Mode   string
	Tenant int
}

// ticket is an arrival released by the generator.
type ticket struct {
	arrival
	Due      time.Time
	Released time.Time
}

// lateness is how far behind schedule the generator released t.
func (t ticket) lateness() time.Duration { return t.Released.Sub(t.Due) }

// dispatch releases each arrival onto out at its due time, until ctx
// ends, and returns the release lateness of each released arrival. out
// must have room for every arrival, so a slow consumer never delays the
// generator.
func dispatch(ctx context.Context, clk clock, start time.Time, arrivals []arrival, out chan<- ticket) []time.Duration {
	late := make([]time.Duration, 0, len(arrivals))
	for _, a := range arrivals {
		due := start.Add(a.At)
		if err := clk.SleepUntil(ctx, due); err != nil {
			break
		}
		t := ticket{arrival: a, Due: due, Released: clk.Now()}
		late = append(late, t.lateness())
		out <- t
	}
	close(out)
	return late
}

// openLoopResult is what one open-loop phase produced.
type openLoopResult struct {
	Late    []time.Duration // generator release lateness per arrival
	Dropped int             // released arrivals never sent
}

// runOpenLoop fires arrivals from start on conns workers until stop
// closes (nil: never); arrivals due after that are not offered. A
// ticket still queued maxWait after it was due is dropped, not sent:
// the phase must end even if the tier has stalled. send is called once
// per ticket that is sent, on one of the workers.
func runOpenLoop(ctx context.Context, clk clock, arrivals []arrival, conns int, maxWait time.Duration, stop <-chan struct{}, send func(ticket)) openLoopResult {
	start := clk.Now()
	gen, cancel := context.WithCancel(ctx)
	defer cancel()
	if stop != nil {
		go func() {
			select {
			case <-stop:
				cancel()
			case <-gen.Done():
			}
		}()
	}
	q := make(chan ticket, len(arrivals))
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		dropped int
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range q {
				if clk.Now().Sub(t.Due) > maxWait || ctx.Err() != nil {
					mu.Lock()
					dropped++
					mu.Unlock()
					continue
				}
				send(t)
			}
		}()
	}
	late := dispatch(gen, clk, start, arrivals, q)
	wg.Wait()
	return openLoopResult{Late: late, Dropped: dropped}
}
