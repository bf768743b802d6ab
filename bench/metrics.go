package main

import (
	"fmt"
	"sync"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse. Per-layer metrics have none.
	Bound float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"design_star32", "closed loop, 1 client: NewCatalog + 32 AddQuery + Design(); the paper's Fig. 4 + Fig. 9 pipeline, bypasses engine and serve"},
	{"read_hot", "closed loop, 2 clients, Zipf(1.1) over 32 queries, cache 256: working set fits, isolates router + result cache; engine bypassed"},
	{"read_cold", "same clients, cache 12 of 32 queries: hit rate ~0.7, misses are >90% of busy time, so engine kernels and view rewrite do the work"},
	{"mixed_fresh", "open loop: a delta batch every 250 ms (stream, flush, probe) beside 2000 reads/s on a journaled, checkpointing server; the maintenance term"},
}

// The end-to-end metrics are the same five on every workload; what an "op"
// is depends on the workload (see README.md): one Design() on
// design_star32, one named query on read_hot and read_cold, and one delta
// batch from its due time to the first read that sees it on mixed_fresh.
//
// The timing bounds are the widest the pipeline allows, because that is
// what the reference box can resolve: within ten 25 s runs of one commit
// the spread (interquartile range over median) reaches 13 %, and between
// sets of ten taken an hour apart the medians of the allocation-heavy
// loops move by 15–30 % (read_cold 37.8k, 42.8k, 49.9k op/s). The pipeline
// refuses a benchmark whose own spread or drift exceeds its bound. An ALU
// loop timed between the ops stays within 1.5 % over the same runs, so the
// noise is not clock speed and cannot be calibrated away. README.md has
// the table.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// The per-layer metrics are prefixed with the module that does the work.
// A traced run prints all of them; one that does not apply to the workload
// reads 0.
var perLayer = []metricDef{
	// design_star32: the design pipeline, layer by layer.
	{Name: "sqlparse.bind_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.select_ms", Unit: "ms", Better: "lower"},
	{Name: "core.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "core.vertices", Unit: "count", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.views_selected", Unit: "count", Better: "lower"},
	{Name: "core.cost_vs_virtual", Unit: "ratio", Better: "lower"},
	{Name: "mvpp.design_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mvpp.design_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "mvpp.design_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "mvpp.design_kb_per_op", Unit: "KB", Better: "lower"},
	// Every server workload.
	{Name: "mvpp.newserver_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.read_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "serve.hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.hit_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.miss_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.miss_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.backpressured_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.degraded_queries", Unit: "count", Better: "lower"},
	{Name: "engine.miss_blocks_per_query", Unit: "blocks", Better: "lower"},
	{Name: "engine.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.query_blocks_direct", Unit: "blocks", Better: "lower"},
	{Name: "engine.query_blocks_rewritten", Unit: "blocks", Better: "lower"},
	{Name: "engine.refresh_blocks_recompute", Unit: "blocks", Better: "lower"},
	{Name: "engine.refresh_blocks_incremental", Unit: "blocks", Better: "lower"},
	// read_hot: the telemetry plane, scraped once per second.
	{Name: "telemetry.scrape_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "telemetry.scrape_samples", Unit: "count", Better: "higher"},
	// mixed_fresh: ingest, refresh, checkpoint, recovery.
	{Name: "serve.cdc_ack_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.cdc_ack_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.cdc_groups_per_batch", Unit: "count", Better: "lower"},
	{Name: "serve.cdc_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.cdc_blocked", Unit: "count", Better: "lower"},
	{Name: "serve.cdc_shed", Unit: "count", Better: "lower"},
	{Name: "engine.journal_append_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.flush_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.flush_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.first_read_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.fresh_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.epochs", Unit: "count", Better: "higher"},
	{Name: "serve.incremental_refreshes", Unit: "count", Better: "higher"},
	{Name: "serve.recomputes", Unit: "count", Better: "lower"},
	{Name: "serve.retries", Unit: "count", Better: "lower"},
	{Name: "serve.refresh_failures", Unit: "count", Better: "lower"},
	{Name: "engine.refresh_blocks_per_epoch", Unit: "blocks", Better: "lower"},
	{Name: "snapshot.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snapshot.checkpoints", Unit: "count", Better: "higher"},
	{Name: "snapshot.skipped", Unit: "count", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "bytes", Better: "lower"},
	{Name: "snapshot.restart_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snapshot.recover_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snapshot.views_restored", Unit: "count", Better: "higher"},
	{Name: "snapshot.views_recomputed", Unit: "count", Better: "lower"},
	{Name: "snapshot.replayed_rows", Unit: "count", Better: "lower"},
	// The harness itself.
	{Name: "bench.gen_late_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.missed_batches", Unit: "count", Better: "lower"},
	{Name: "bench.missed_reads", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises (0 for a
	// count or a single reading).
	Samples int64 `json:"samples,omitempty"`
	// Note says which percentile a tail metric could support.
	Note string `json:"note,omitempty"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	SpanFile  string            `json:"span_file,omitempty"`

	mu sync.Mutex
}

func newResult(cfg runConfig) *Result {
	return &Result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Seconds: cfg.window.Seconds(), Metrics: make(map[string]Metric),
	}
}

// set records a metric; the name must be one of the defined ones.
func (r *Result) set(name string, value float64, samples int64) {
	r.setNote(name, value, samples, "")
}

func (r *Result) setNote(name string, value float64, samples int64, note string) {
	def, ok := findMetric(name)
	if !ok {
		panic("bench: undefined metric " + name)
	}
	r.Metrics[name] = Metric{Value: value, Unit: def.Unit, Samples: samples, Note: note}
}

// attempt counts n attempted operations or checks.
func (r *Result) attempt(n int64) {
	r.mu.Lock()
	r.Attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation or check and keeps the first few
// reasons. Safe for concurrent use; failures are rare, so the lock is not
// on any hot path.
func (r *Result) fail(format string, args ...any) {
	r.mu.Lock()
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts one correctness check and fails it unless ok.
func (r *Result) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(format, args...)
	}
}

// tailNote renders "p90 of 104" for a tail metric.
func tailNote(p float64, n int64) string {
	return fmt.Sprintf("p%g of %d", p*100, n)
}
