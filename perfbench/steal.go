package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Host CPU steal. On a shared host the hypervisor can take a fifth or
// more of this guest's CPU time for minutes at a time, and every
// wall-clock figure then reads slow (NOTES.md, "Host steal"). Nothing
// inside the guest can correct for that. The benchmark cuts the load
// phase into windows, reads the steal over each and prints it, and
// reports latency_p50_ms as the median of the windows' own medians, so
// a burst of steal that spoils one window does not move the figure.
// windowLen is the longest stretch of a load phase taken as one
// window: short enough that a burst of steal spoils few of them, long
// enough for a steady median of its ~250 operations.
const windowLen = 5 * time.Second

// loadWindows splits seconds of load into n windows of length wl, n
// the fewest that keeps each within windowLen.
func loadWindows(seconds int) (n int, wl time.Duration) {
	d := time.Duration(seconds) * time.Second
	n = int((d + windowLen - 1) / windowLen)
	return n, d / time.Duration(n)
}

// window is one stretch of a load phase and the host's CPU steal over
// it. OtherPct is the CPU time that processes other than this one took
// in the guest, in percent of all CPU time; it includes kernel work
// done for this process outside its own accounting.
type window struct {
	Start, End time.Time
	StealPct   float64
	OtherPct   float64
}

// stealSample is a reading of the CPU counters, in clock ticks: the
// guest's steal, busy and total time, and this process's own.
type stealSample struct {
	At                      time.Time
	Steal, Busy, Total, Own uint64
}

func readSteal() stealSample {
	s, b, t := cpuSteal()
	return stealSample{At: time.Now(), Steal: s, Busy: b, Total: t, Own: ownCPU()}
}

// otherPct is the share of CPU time that other processes took between
// a and b, in percent.
func otherPct(a, b stealSample) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return 100 * (float64(b.Busy-a.Busy) - float64(b.Own-a.Own)) / float64(b.Total-a.Total)
}

// ownCPU is this process's user and system time in clock ticks, from
// /proc/self/stat; 0 where it cannot be read.
func ownCPU() uint64 {
	raw, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; the fields after it do not.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0
	}
	// f[0] is the state, field 3; utime and stime are fields 14 and 15.
	u, _ := strconv.ParseUint(f[11], 10, 64)
	s, _ := strconv.ParseUint(f[12], 10, 64)
	return u + s
}

// stealPct is the share of CPU time stolen between a and b, in
// percent; 0 where the counters cannot be read.
func stealPct(a, b stealSample) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return 100 * float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// cpuSteal reads the steal, busy and total jiffies of all CPUs from
// /proc/stat; all are 0 where it cannot be read. Busy is user, nice,
// system, irq and softirq time.
func cpuSteal() (steal, busy, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		switch i {
		case 0, 1, 2, 5, 6:
			busy += n
		case 7:
			steal = n
		}
	}
	return steal, busy, total
}

// stealMeter reads the steal counters at each window boundary of a
// load phase. It closes enough after n windows; the load stops there.
type stealMeter struct {
	wl      time.Duration
	samples []stealSample // owned by the meter's goroutine until done
	enough  chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

func startStealMeter(wl time.Duration, n int) *stealMeter {
	m := &stealMeter{wl: wl, samples: []stealSample{readSteal()},
		enough: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(wl)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.samples = append(m.samples, readSteal())
				if len(m.samples)-1 == n {
					close(m.enough)
					return
				}
			}
		}
	}()
	return m
}

// finish stops the meter and returns the phase's windows.
func (m *stealMeter) finish() []window {
	close(m.stop)
	<-m.done
	return windowsOf(append(m.samples, readSteal()), m.wl)
}

// windowsOf turns consecutive readings into windows of about wl. A
// stretch shorter than half a window, the tail after the last tick, is
// left out, and so are the operations in it.
func windowsOf(s []stealSample, wl time.Duration) []window {
	var out []window
	for i := 1; i < len(s); i++ {
		if s[i].At.Sub(s[i-1].At) >= wl/2 {
			out = append(out, window{Start: s[i-1].At, End: s[i].At, StealPct: stealPct(s[i-1], s[i]), OtherPct: otherPct(s[i-1], s[i])})
		}
	}
	return out
}

// windowStats is one window's share of a load phase.
type windowStats struct {
	window
	Lat []float64 // latency of every operation that started in it
	OK  int
}

// perWindow assigns each operation to the window its At falls in. A
// failed operation counts as failedLatMs, so it misses every latency
// limit.
func perWindow(outs []outcome, wins []window) []windowStats {
	ws := make([]windowStats, len(wins))
	for i, w := range wins {
		ws[i].window = w
	}
	for _, o := range outs {
		for i := range ws {
			if o.At.Before(ws[i].Start) || !o.At.Before(ws[i].End) {
				continue
			}
			if o.OK {
				ws[i].Lat = append(ws[i].Lat, o.LatMs)
				ws[i].OK++
			} else {
				ws[i].Lat = append(ws[i].Lat, failedLatMs)
			}
			break
		}
	}
	return ws
}
