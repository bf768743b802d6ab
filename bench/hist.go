package main

import (
	"math"
	"sort"
	"time"
)

// Hist is a log-bucket latency histogram: bucket i covers
// [histMin·g^i, histMin·g^(i+1)) nanoseconds with g = 1.01, so a reported
// quantile is within 1 % of the true sample. One Hist belongs to one
// goroutine; Merge combines them after the clients have stopped.
type Hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histGrowth  = 1.01
	histMin     = 50.0 // ns; anything faster lands in bucket 0
	histBuckets = 2400 // 50 ns · 1.01^2400 ≈ 20 min
)

var histLogGrowth = math.Log(histGrowth)

// Add records one duration.
func (h *Hist) Add(d time.Duration) {
	i := 0
	if ns := float64(d); ns > histMin {
		i = int(math.Log(ns/histMin) / histLogGrowth)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// N is the sample count.
func (h *Hist) N() int64 { return h.n }

// Quantile returns the q-quantile (0 < q < 1) in nanoseconds, interpolated
// linearly inside its bucket so that two runs do not snap to the same
// bucket edge. Zero when the histogram is empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := histMin * math.Pow(histGrowth, float64(i))
			return lo + lo*(histGrowth-1)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histMin * math.Pow(histGrowth, histBuckets)
}

// percentileLadder lists the percentiles a metric may be reported at.
var percentileLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// SupportedPercentile applies the rule "the highest percentile with at
// least ten samples beyond it": it returns the highest ladder step ≤ want
// that n samples support, and the median when none does. 190 samples
// support p90 (19 beyond) but not p95 (9.5 beyond).
func SupportedPercentile(n int64, want float64) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// 1e-9 absorbs the rounding of 1-p: 100·(1-0.9) is 9.999…98.
		if p <= want && float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// Tail returns the value at the highest supported percentile ≤ want, and
// that percentile.
func (h *Hist) Tail(want float64) (ns, p float64) {
	p = SupportedPercentile(h.n, want)
	return h.Quantile(p), p
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the driver's spread rule).
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
