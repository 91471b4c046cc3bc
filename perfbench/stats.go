package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: p90 needs 100 samples, p99 needs 1000.
const minBeyond = 10

// beyond counts the samples strictly above the nearest-rank p-th
// percentile (p in per-mille, so 900 is p90) of n samples. Integer
// arithmetic keeps the n=100/p90 boundary exact.
func beyond(n, perMille int) int {
	return n - (n*perMille+999)/1000
}

// quantile is the nearest-rank percentile (per-mille) of sorted values.
func quantile(sorted []float64, perMille int) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := (n*perMille+999)/1000 - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// dist is one timing distribution: its median and the highest
// percentile that has at least minBeyond samples beyond it.
type dist struct {
	sorted []float64
	N      int
	P50    float64
	P90    float64
	P99    float64
	TailP  int // per-mille of the reported tail percentile, 0 if none
	Tail   float64
}

// summarize digests samples (not modified). P90 and P99 are filled
// whatever the count; TailP says which of them the percentile rule
// allows.
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{sorted: s, N: len(s), P50: quantile(s, 500), P90: quantile(s, 900), P99: quantile(s, 990)}
	for _, pm := range []int{999, 990, 900, 500} {
		if len(s) > 0 && beyond(len(s), pm) >= minBeyond {
			d.TailP, d.Tail = pm, quantile(s, pm)
			break
		}
	}
	return d
}

func median(v []float64) float64 { return summarize(v).P50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank percentile (per-mille) of d's samples.
func (d dist) quantile(perMille int) float64 { return quantile(d.sorted, perMille) }
