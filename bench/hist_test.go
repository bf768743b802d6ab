package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h Hist
	xs := make([]float64, 50_000)
	for i := range xs {
		// Log-uniform from 100 ns to 10 s: every decade the harness sees.
		xs[i] = 100 * math.Pow(10, 8*r.Float64())
		h.Add(time.Duration(xs[i]))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		exact := xs[int(q*float64(len(xs)))]
		got := h.Quantile(q)
		if e := math.Abs(got-exact) / exact; e > 0.01 {
			t.Errorf("q%g = %.0f ns, exact %.0f ns: off by %.2f %%", q*100, got, exact, 100*e)
		}
	}
}

func TestHistMergeEqualsOneHistogram(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var all, a, b Hist
	for i := 0; i < 10_000; i++ {
		d := time.Duration(1000 + r.Intn(1_000_000))
		all.Add(d)
		if i%3 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged count %d, want %d", a.N(), all.N())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q%g: merged %.1f, single %.1f", q*100, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistEmptyAndExtremes(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Error("an empty histogram should read 0")
	}
	h.Add(0)
	h.Add(24 * time.Hour) // past the last bucket: clamped, not lost
	if h.N() != 2 {
		t.Errorf("count %d, want 2", h.N())
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
		got  float64
	}{
		{190, 0.95, 0.90}, // 9.5 samples beyond p95, 19 beyond p90
		{200, 0.95, 0.95},
		{100, 0.90, 0.90}, // exactly ten beyond
		{99, 0.90, 0.75},
		{19, 0.90, 0.50}, // nothing supports a tail: the median
		{1_000_000, 0.90, 0.90},
		{1_000_000, 0.999, 0.999},
	} {
		if got := SupportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("SupportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the driver uses for its spread rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10}, // two values extrapolate, as Python does
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
