package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	mvpp "github.com/warehousekit/mvpp"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	// window is the measured time. A traced run spends the first fifth of
	// it with spans off, as the baseline for the tracing overhead and for
	// mvpp.design_unattributed_ms.
	window time.Duration
	traced bool
	// quick is the smoke mode of `go test`: one set-up instead of five, two
	// restarts instead of five, and no warehouse above scale 0.02. It runs
	// every correctness check; no run of any kind asserts a timing.
	quick bool
	// outDir receives span files and holds the journal and snapshot
	// directories of mixed_fresh while it runs.
	outDir string
}

func (c runConfig) setupReps() int {
	if c.quick {
		return 1
	}
	return 5
}

func (c runConfig) scale(full float64) float64 {
	if c.quick && full > 0.02 {
		return 0.02
	}
	return full
}

// clients is min(2, nproc): the reference box has two cores, and a third
// client would only measure the scheduler.
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// run executes one workload and returns its result. An error means the
// harness could not run; a wrong answer from the program is a failed check
// inside the result.
func run(cfg runConfig) (*Result, error) {
	res := newResult(cfg)
	var err error
	switch cfg.workload {
	case "design_star32":
		err = runDesign(cfg, res)
	case "read_hot":
		err = runRead(cfg, res, 0) // 0 → the default cache of 256 entries
	case "read_cold":
		err = runRead(cfg, res, coldCacheCapacity)
	case "mixed_fresh":
		err = runMixed(cfg, res)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.set("bench.fail_frac", float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Attempted)
	return res, nil
}

// heapLiveMB is HeapAlloc after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nsToMs and nsToUs convert histogram readings.
func nsToMs(ns float64) float64 { return ns / 1e6 }
func nsToUs(ns float64) float64 { return ns / 1e3 }

// setOpMetrics fills the three op metrics from the op histogram and the
// completed, correct ops per second.
func setOpMetrics(res *Result, h *Hist, opsPerSec float64) {
	res.set("op_ms_p50", nsToMs(h.Quantile(0.5)), h.N())
	// Always p90, not the supported-percentile ladder the per-layer tails
	// use: mixed_fresh has exactly 100 batches in 25 s, and one dropped
	// tick would otherwise switch the metric from p90 to p75 and move it by
	// half. The note says when fewer than ten samples lie beyond it.
	note := ""
	if beyond := 0.1 * float64(h.N()); beyond < 10-1e-9 {
		note = fmt.Sprintf("only %.1f samples beyond", beyond)
	}
	res.setNote("op_ms_p90", nsToMs(h.Quantile(0.9)), h.N(), note)
	res.set("ops_per_s", opsPerSec, h.N())
	res.set("bench.samples", float64(h.N()), 0)
}

// layerHists keeps one histogram per span name.
type layerHists map[string]*Hist

func (l layerHists) hist(name string) *Hist {
	h := l[name]
	if h == nil {
		h = &Hist{}
		l[name] = h
	}
	return h
}

// timed runs f inside a span and records its duration under name.
func (l layerHists) timed(tr *Tracer, name string, parent int, op int64, f func()) {
	id := tr.Begin(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.End(id)
	l.hist(name).Add(d)
}

// digest is an order-insensitive fingerprint of a result's rows: the sum of
// an FNV-1a hash of each row, mixed with the row count.
func digest(r *mvpp.QueryResult) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var sum uint64
	rows := r.Values()
	for _, row := range rows {
		h := uint64(offset)
		mix := func(b byte) { h = (h ^ uint64(b)) * prime }
		mix64 := func(v uint64) {
			for s := 0; s < 64; s += 8 {
				mix(byte(v >> s))
			}
		}
		for _, v := range row {
			switch x := v.(type) {
			case int64:
				mix64(uint64(x))
			case float64:
				mix64(math.Float64bits(x))
			case string:
				for i := 0; i < len(x); i++ {
					mix(x[i])
				}
			}
			mix(0xff)
		}
		sum += h
	}
	return sum ^ uint64(len(rows))<<48
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// scratchDir makes a fresh directory under the output directory for one
// run's journal and snapshots.
func scratchDir(cfg runConfig) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.outDir, "tmp-"+cfg.workload+"-")
}

// absOut resolves the output directory once, so that span files land in the
// same place whatever the run later does.
func absOut(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}
