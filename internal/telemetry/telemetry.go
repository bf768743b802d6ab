// Package telemetry is the serving layer's live operational plane: a small
// HTTP admin server that makes a running warehouse observable while it
// serves traffic, instead of only post-mortem through trace files.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition (format 0.0.4): every registry
//	               counter and gauge, windowed rates (QPS, hit rate, refresh
//	               failures/s), per-view staleness gauges, and the serve
//	               latency histograms (all-time and rolling-window) as
//	               cumulative _bucket/_sum/_count families.
//	/healthz       liveness JSON: "ok" / "degraded" while serving, "closed"
//	               (HTTP 503) once shutdown has begun.
//	/views         per-view JSON: maintenance strategy, refresh epoch,
//	               staleness (pending and lag rows), breaker state, last
//	               error.
//	/costmodel     the cost-accountability ledger as JSON: per query class
//	               and per view (recompute and incremental separately) the
//	               §4.1 predicted block cost, last/mean measured actuals,
//	               EWMA calibration ratio, sample count, and drift flag.
//	/traces        the recent trace entries: query entries are one query's
//	               correlated lifecycle (admit → cache/execute → reply)
//	               under a single query ID; write-path entries (ingest,
//	               epoch, checkpoint) carry full causal span trees under a
//	               single trace ID.
//	/lineage       per-view refresh lineage JSON: which epochs, journal LSN
//	               ranges, and delta batches produced each view's current
//	               contents, plus the live contents' fingerprint.
//	/flight        the flight recorder's retained forensic dumps (one per
//	               latched episode: SLO breach, breaker open, checkpoint
//	               error, recovery corruption).
//	/debug/pprof/  the standard runtime profiles.
//
// The plane is strictly pull-based and opt-in: nothing here runs unless a
// listen address is configured, and a scrape only reads atomics and
// snapshots — it never blocks the serving hot path.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/warehousekit/mvpp/internal/costaudit"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/serve"
)

// Source is what the telemetry plane reads from the serving layer;
// *serve.Server implements it. Every method must be cheap and safe to call
// from scrape handlers while the server runs (or closes) concurrently.
type Source interface {
	Stats() serve.Stats
	Staleness() map[string]serve.Staleness
	Epoch() uint64
	LatencySnapshot() obs.HistSnapshot
	WindowLatencySnapshot() obs.HistSnapshot
	RecentTraces() []serve.QueryTrace
	CostReport() costaudit.Report
	IsClosed() bool
}

// SnapshotSource is the optional extension a Source implements when the
// serving layer has a durable snapshot store; *serve.Server implements it.
// The telemetry plane type-asserts for it, so sources without snapshots
// (tests, fakes, snapshotless servers) need not change.
type SnapshotSource interface {
	SnapshotStats() serve.SnapshotStats
}

// LineageSource is the optional extension for /lineage and the lineage
// block on /views; *serve.Server implements it.
type LineageSource interface {
	Lineage() map[string]serve.ViewLineage
}

// FlightSource is the optional extension for /flight; *serve.Server
// implements it.
type FlightSource interface {
	FlightDumps() []obs.FlightDump
}

// ExemplarSource is the optional extension that attaches OpenMetrics
// exemplars — concrete sampled trace IDs — to the latency histogram's
// bucket lines; *serve.Server implements it.
type ExemplarSource interface {
	LatencyExemplars() []serve.LatencyExemplar
}

// Config assembles a telemetry server.
type Config struct {
	// Addr is the listen address (":9090", "127.0.0.1:0", ...).
	Addr string
	// Registry supplies the counters and gauges for /metrics (nil: only the
	// Source-derived families are exposed).
	Registry *obs.Registry
	// Source supplies serving stats, view staleness and traces (nil: those
	// families and endpoints report empty).
	Source Source
}

// Server is a running telemetry plane. Create with Serve, stop with Close.
type Server struct {
	ln        net.Listener
	srv       *http.Server
	reg       *obs.Registry
	src       Source
	closeOnce sync.Once
	closeErr  error
}

// Serve binds the address and starts answering scrapes in a background
// goroutine. It returns once the listener is bound, so Addr is immediately
// scrapable (":0" picks a free port).
func Serve(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		return nil, errors.New("telemetry: no listen address")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{ln: ln, reg: cfg.Registry, src: cfg.Source}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/views", s.handleViews)
	mux.HandleFunc("/costmodel", s.handleCostModel)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/lineage", s.handleLineage)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		// ErrServerClosed is the normal shutdown path; anything else would
		// have surfaced at Listen time.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (with the real port when the
// config asked for ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight scrape handlers. Idempotent and
// safe to call concurrently; subsequent calls return the first error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.srv.Close()
	})
	return s.closeErr
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.reg, s.src)
}

// healthReply is the /healthz body.
type healthReply struct {
	Status        string  `json:"status"`
	Epoch         uint64  `json:"epoch"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Views         int     `json:"views"`
	Degrading     int     `json:"degrading"`
	WindowQPS     float64 `json:"window_qps"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	reply := healthReply{Status: "ok"}
	if s.src == nil {
		writeJSON(w, http.StatusOK, reply)
		return
	}
	if s.src.IsClosed() {
		reply.Status = "closed"
		writeJSON(w, http.StatusServiceUnavailable, reply)
		return
	}
	st := s.src.Stats()
	reply.Epoch = s.src.Epoch()
	reply.UptimeSeconds = st.Uptime.Seconds()
	reply.WindowQPS = st.WindowQPS
	for _, v := range s.src.Staleness() {
		reply.Views++
		if v.Degrading {
			reply.Degrading++
		}
	}
	if reply.Degrading > 0 {
		reply.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, reply)
}

// viewStatus is one maintained view in the /views body.
type viewStatus struct {
	Strategy            string     `json:"strategy"`
	Policy              string     `json:"policy"`
	Status              string     `json:"status"`
	Epoch               uint64     `json:"epoch"`
	PendingRows         int        `json:"pending_rows"`
	LagRows             int        `json:"lag_rows"`
	Breaker             string     `json:"breaker"`
	ConsecutiveFailures int        `json:"consecutive_failures"`
	Degrading           bool       `json:"degrading"`
	SLOViolated         bool       `json:"slo_violated"`
	SLOViolations       int64      `json:"slo_violations,omitempty"`
	StaleEpochs         int        `json:"stale_epochs,omitempty"`
	LastError           string     `json:"last_error,omitempty"`
	LastRefresh         *time.Time `json:"last_refresh,omitempty"`
}

// snapshotBlock is the /views "snapshots" object: last checkpoint, per-view
// segment status, and the recovery that booted this server.
type snapshotBlock struct {
	Generation       uint64                 `json:"generation"`
	LastCheckpointAt *time.Time             `json:"last_checkpoint_at,omitempty"`
	LastBytes        int64                  `json:"last_bytes"`
	Checkpoints      int64                  `json:"checkpoints"`
	Skipped          int64                  `json:"skipped"`
	Failures         int64                  `json:"failures"`
	AgedOut          int64                  `json:"aged_out"`
	Recovery         *recoveryBlock         `json:"recovery,omitempty"`
	Views            map[string]viewSegment `json:"views,omitempty"`
}

type viewSegment struct {
	SnapshotAt time.Time `json:"snapshot_at"`
	AgeSeconds float64   `json:"age_seconds"`
	Bytes      int64     `json:"bytes"`
	Epoch      uint64    `json:"epoch"`
}

type recoveryBlock struct {
	Cold             bool    `json:"cold"`
	Generation       uint64  `json:"generation"`
	ViewsRestored    int     `json:"views_restored"`
	ViewsRecomputed  int     `json:"views_recomputed"`
	CorruptArtifacts int     `json:"corrupt_artifacts"`
	Bytes            int64   `json:"bytes"`
	DurationSeconds  float64 `json:"duration_seconds"`
}

// lineageSummary is the compact per-view lineage block on /views; the full
// entry history lives on /lineage.
type lineageSummary struct {
	CurrentEpoch uint64 `json:"current_epoch"`
	LSNHi        uint64 `json:"lsn_hi"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	Entries      int    `json:"entries"`
}

func (s *Server) handleViews(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Epoch     uint64                    `json:"epoch"`
		Views     map[string]viewStatus     `json:"views"`
		Snapshots *snapshotBlock            `json:"snapshots,omitempty"`
		Lineage   map[string]lineageSummary `json:"lineage,omitempty"`
	}{Views: map[string]viewStatus{}}
	if s.src != nil {
		out.Epoch = s.src.Epoch()
		for name, v := range s.src.Staleness() {
			vs := viewStatus{
				Strategy:            v.Strategy,
				Policy:              v.Policy,
				Status:              v.Status,
				Epoch:               v.Epoch,
				PendingRows:         v.PendingRows,
				LagRows:             v.LagRows,
				Breaker:             v.Breaker,
				ConsecutiveFailures: v.ConsecutiveFailures,
				Degrading:           v.Degrading,
				SLOViolated:         v.SLOViolated,
				SLOViolations:       v.SLOViolations,
				StaleEpochs:         v.StaleEpochs,
				LastError:           v.LastError,
			}
			if !v.LastRefresh.IsZero() {
				t := v.LastRefresh
				vs.LastRefresh = &t
			}
			out.Views[name] = vs
		}
		if ss, ok := s.src.(SnapshotSource); ok {
			if snap := ss.SnapshotStats(); snap.Configured {
				out.Snapshots = snapshotBlockOf(snap)
			}
		}
		if ls, ok := s.src.(LineageSource); ok {
			if lin := ls.Lineage(); len(lin) > 0 {
				out.Lineage = make(map[string]lineageSummary, len(lin))
				for name, vl := range lin {
					out.Lineage[name] = lineageSummary{
						CurrentEpoch: vl.CurrentEpoch,
						LSNHi:        vl.LSNHi,
						Fingerprint:  vl.Fingerprint,
						Entries:      len(vl.Entries),
					}
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func snapshotBlockOf(snap serve.SnapshotStats) *snapshotBlock {
	blk := &snapshotBlock{
		Generation:  snap.Generation,
		LastBytes:   snap.LastBytes,
		Checkpoints: snap.Checkpoints,
		Skipped:     snap.Skipped,
		Failures:    snap.Failures,
		AgedOut:     snap.AgedOut,
	}
	if !snap.LastCheckpointAt.IsZero() {
		t := snap.LastCheckpointAt
		blk.LastCheckpointAt = &t
	}
	if len(snap.Views) > 0 {
		now := time.Now()
		blk.Views = make(map[string]viewSegment, len(snap.Views))
		for name, v := range snap.Views {
			blk.Views[name] = viewSegment{
				SnapshotAt: v.SnapshotAt,
				AgeSeconds: now.Sub(v.SnapshotAt).Seconds(),
				Bytes:      v.Bytes,
				Epoch:      v.Epoch,
			}
		}
	}
	if r := snap.Recovery; r != nil {
		blk.Recovery = &recoveryBlock{
			Cold:             r.Cold,
			Generation:       r.Generation,
			ViewsRestored:    r.ViewsRestored,
			ViewsRecomputed:  r.ViewsRecomputed,
			CorruptArtifacts: r.CorruptArtifacts,
			Bytes:            r.Bytes,
			DurationSeconds:  r.Duration.Seconds(),
		}
	}
	return blk
}

func (s *Server) handleCostModel(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Epoch uint64 `json:"epoch"`
		costaudit.Report
	}{Report: costaudit.Report{Entries: []costaudit.Entry{}}}
	if s.src != nil {
		out.Epoch = s.src.Epoch()
		out.Report = s.src.CostReport()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	var traces []serve.QueryTrace
	if s.src != nil {
		traces = s.src.RecentTraces()
	}
	if traces == nil {
		traces = []serve.QueryTrace{}
	}
	out := struct {
		Sampled int                `json:"sampled"`
		Traces  []serve.QueryTrace `json:"traces"`
	}{Sampled: len(traces), Traces: traces}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleLineage(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Epoch uint64                       `json:"epoch"`
		Views map[string]serve.ViewLineage `json:"views"`
	}{Views: map[string]serve.ViewLineage{}}
	if s.src != nil {
		out.Epoch = s.src.Epoch()
		if ls, ok := s.src.(LineageSource); ok {
			out.Views = ls.Lineage()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	var dumps []obs.FlightDump
	if fs, ok := s.src.(FlightSource); ok {
		dumps = fs.FlightDumps()
	}
	if dumps == nil {
		dumps = []obs.FlightDump{}
	}
	out := struct {
		Dumps int              `json:"dumps"`
		List  []obs.FlightDump `json:"list"`
	}{Dumps: len(dumps), List: dumps}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteMetrics renders the full /metrics exposition: registry counters
// (suffixed _total) and gauges, then the serving families derived from the
// source — windowed rates, per-view staleness gauges, and the latency
// histograms. Output is sorted, so scrapes diff cleanly.
func WriteMetrics(w io.Writer, reg *obs.Registry, src Source) {
	if reg != nil {
		counters, gauges := reg.Snapshot()
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := MetricName(name) + "_total"
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m, m, counters[name])
		}
		names = names[:0]
		for name := range gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := MetricName(name)
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m, m, formatFloat(gauges[name]))
		}
	}
	writeRuntimeMetrics(w)
	if src == nil {
		return
	}
	st := src.Stats()
	writeGauge(w, "mvpp_serve_epoch", float64(src.Epoch()))
	writeGauge(w, "mvpp_serve_uptime_seconds", st.Uptime.Seconds())
	writeGauge(w, "mvpp_serve_window_seconds", float64(st.WindowSeconds))
	writeGauge(w, "mvpp_serve_window_qps", st.WindowQPS)
	writeGauge(w, "mvpp_serve_window_hit_rate", st.WindowHitRate)
	writeGauge(w, "mvpp_serve_window_refresh_failures_per_second", st.WindowRefreshFailuresPerSec)

	views := src.Staleness()
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	sort.Strings(names)
	writeViewGauge(w, "mvpp_view_pending_rows", views, names, func(v serve.Staleness) float64 { return float64(v.PendingRows) })
	writeViewGauge(w, "mvpp_view_lag_rows", views, names, func(v serve.Staleness) float64 { return float64(v.LagRows) })
	writeViewGauge(w, "mvpp_view_refresh_epoch", views, names, func(v serve.Staleness) float64 { return float64(v.Epoch) })
	writeViewGauge(w, "mvpp_view_degrading", views, names, func(v serve.Staleness) float64 {
		if v.Degrading {
			return 1
		}
		return 0
	})
	writeViewGauge(w, "mvpp_view_breaker_open", views, names, func(v serve.Staleness) float64 {
		if v.Breaker != "closed" {
			return 1
		}
		return 0
	})
	writeViewGauge(w, "mvpp_view_slo_violated", views, names, func(v serve.Staleness) float64 {
		if v.SLOViolated {
			return 1
		}
		return 0
	})
	writeViewGauge(w, "mvpp_view_slo_violations", views, names, func(v serve.Staleness) float64 { return float64(v.SLOViolations) })
	writeViewGauge(w, "mvpp_view_stale_epochs", views, names, func(v serve.Staleness) float64 { return float64(v.StaleEpochs) })

	// mv_view_status is the lifecycle state machine one-hot encoded: for
	// each view exactly one {view,status} sample is 1. Dashboards can sum
	// by status or alert on a specific view leaving VALID.
	if len(names) > 0 {
		fmt.Fprintf(w, "# TYPE mv_view_status gauge\n")
		for _, name := range names {
			for _, status := range serve.ViewStatuses {
				hot := 0
				if views[name].Status == status.String() {
					hot = 1
				}
				fmt.Fprintf(w, "mv_view_status{view=%q,status=%q} %d\n",
					escapeLabel(name), status.String(), hot)
			}
		}
	}

	// CDC streaming-ingest families: accepted→committed lag quantiles,
	// backpressure counters, and the feed's current occupancy.
	writeGauge(w, "mv_ingest_lag_p50_seconds", st.IngestLagP50.Seconds())
	writeGauge(w, "mv_ingest_lag_p95_seconds", st.IngestLagP95.Seconds())
	writeGauge(w, "mv_ingest_lag_p99_seconds", st.IngestLagP99.Seconds())
	writeGauge(w, "mv_ingest_buffer_rows", float64(st.IngestBufferedRows))
	fmt.Fprintf(w, "# TYPE mv_ingest_stream_rows_total counter\nmv_ingest_stream_rows_total %d\n", st.StreamRows)
	fmt.Fprintf(w, "# TYPE mv_ingest_group_commits_total counter\nmv_ingest_group_commits_total %d\n", st.StreamGroups)
	fmt.Fprintf(w, "# TYPE mv_ingest_backpressure_blocked_total counter\nmv_ingest_backpressure_blocked_total %d\n", st.StreamBlocked)
	fmt.Fprintf(w, "# TYPE mv_ingest_backpressure_shed_total counter\nmv_ingest_backpressure_shed_total %d\n", st.StreamShed)
	fmt.Fprintf(w, "# TYPE mv_slo_violations_total counter\nmv_slo_violations_total %d\n", st.SLOViolations)

	writeCostMetrics(w, src.CostReport())

	if ss, ok := src.(SnapshotSource); ok {
		writeSnapshotMetrics(w, ss.SnapshotStats())
	}

	var exemplars []serve.LatencyExemplar
	if es, ok := src.(ExemplarSource); ok {
		exemplars = es.LatencyExemplars()
	}
	writeHistogramExemplars(w, "mvpp_serve_latency_seconds", src.LatencySnapshot(), exemplars)
	writeHistogram(w, "mvpp_serve_window_latency_seconds", src.WindowLatencySnapshot())
}

// writeSnapshotMetrics renders the durable-snapshot families: store-wide
// gauges (generation, bytes, checkpoint counters, last-recovery stats) and
// the per-view segment ages as mv_snapshot_age_seconds{view=...}. Emitted
// only when the source actually has a snapshot store.
func writeSnapshotMetrics(w io.Writer, ss serve.SnapshotStats) {
	if !ss.Configured {
		return
	}
	now := time.Now()
	writeGauge(w, "mv_snapshot_generation", float64(ss.Generation))
	writeGauge(w, "mv_snapshot_bytes", float64(ss.LastBytes))
	writeGauge(w, "mv_snapshot_checkpoints", float64(ss.Checkpoints))
	writeGauge(w, "mv_snapshot_checkpoints_skipped", float64(ss.Skipped))
	writeGauge(w, "mv_snapshot_checkpoint_failures", float64(ss.Failures))
	writeGauge(w, "mv_snapshot_truncate_failures", float64(ss.TruncateFailures))
	writeGauge(w, "mv_snapshot_generations_aged_out", float64(ss.AgedOut))
	if !ss.LastCheckpointAt.IsZero() {
		writeGauge(w, "mv_snapshot_last_checkpoint_age_seconds", now.Sub(ss.LastCheckpointAt).Seconds())
	}
	if len(ss.Views) > 0 {
		names := make([]string, 0, len(ss.Views))
		for name := range ss.Views {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# TYPE mv_snapshot_age_seconds gauge\n")
		for _, name := range names {
			fmt.Fprintf(w, "mv_snapshot_age_seconds{view=%q} %s\n",
				escapeLabel(name), formatFloat(now.Sub(ss.Views[name].SnapshotAt).Seconds()))
		}
		fmt.Fprintf(w, "# TYPE mv_snapshot_view_bytes gauge\n")
		for _, name := range names {
			fmt.Fprintf(w, "mv_snapshot_view_bytes{view=%q} %s\n",
				escapeLabel(name), formatFloat(float64(ss.Views[name].Bytes)))
		}
	}
	if r := ss.Recovery; r != nil {
		cold := 0.0
		if r.Cold {
			cold = 1
		}
		writeGauge(w, "mv_recovery_cold", cold)
		writeGauge(w, "mv_recovery_generation", float64(r.Generation))
		writeGauge(w, "mv_recovery_views_restored", float64(r.ViewsRestored))
		writeGauge(w, "mv_recovery_views_recomputed", float64(r.ViewsRecomputed))
		writeGauge(w, "mv_recovery_corrupt_artifacts", float64(r.CorruptArtifacts))
		writeGauge(w, "mv_recovery_bytes", float64(r.Bytes))
		writeGauge(w, "mv_recovery_duration_seconds", r.Duration.Seconds())
	}
}

// writeRuntimeMetrics exposes Go runtime/process pressure alongside the
// app-level families, so a scrape sees goroutine growth, heap pressure, and
// GC cost without a sidecar exporter — plus the standard build_info marker.
func writeRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeGauge(w, "go_goroutines", float64(runtime.NumGoroutine()))
	writeGauge(w, "go_memstats_heap_alloc_bytes", float64(ms.HeapAlloc))
	writeGauge(w, "go_memstats_heap_sys_bytes", float64(ms.HeapSys))
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# TYPE go_gc_pause_seconds_total counter\ngo_gc_pause_seconds_total %s\n",
		formatFloat(float64(ms.PauseTotalNs)/1e9))
	fmt.Fprintf(w, "# TYPE mvpp_build_info gauge\nmvpp_build_info{go_version=%q,goos=%q,goarch=%q} 1\n",
		escapeLabel(runtime.Version()), runtime.GOOS, runtime.GOARCH)
}

// writeCostMetrics renders the cost-accountability ledger as three gauge
// families: predicted blocks, last-observed actual blocks, and the EWMA
// calibration ratio. Query-class entries are labeled {query=...}; view
// entries {view=...,mode=...} with mode "recompute" or "incremental".
func writeCostMetrics(w io.Writer, rep costaudit.Report) {
	if len(rep.Entries) == 0 {
		return
	}
	labelOf := func(e costaudit.Entry) string {
		if e.Kind == string(costaudit.KindQuery) {
			return fmt.Sprintf("{query=%q}", escapeLabel(e.Name))
		}
		return fmt.Sprintf("{view=%q,mode=%q}", escapeLabel(e.Name), e.Kind)
	}
	families := []struct {
		name string
		f    func(costaudit.Entry) float64
	}{
		{"mv_cost_predicted_blocks", func(e costaudit.Entry) float64 { return e.PredictedBlocks }},
		{"mv_cost_actual_blocks", func(e costaudit.Entry) float64 { return e.LastActualBlocks }},
		{"mv_cost_calibration_ratio", func(e costaudit.Entry) float64 { return e.Ratio }},
	}
	for _, fam := range families {
		fmt.Fprintf(w, "# TYPE %s gauge\n", fam.name)
		for _, e := range rep.Entries {
			fmt.Fprintf(w, "%s%s %s\n", fam.name, labelOf(e), formatFloat(fam.f(e)))
		}
	}
	writeGauge(w, "mv_cost_drifted_entries", float64(rep.DriftedEntries))
}

func writeGauge(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(v))
}

func writeViewGauge(w io.Writer, name string, views map[string]serve.Staleness, order []string, f func(serve.Staleness) float64) {
	if len(order) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	for _, view := range order {
		fmt.Fprintf(w, "%s{view=%q} %s\n", name, escapeLabel(view), formatFloat(f(views[view])))
	}
}

// writeHistogram renders a power-of-two nanosecond histogram as a
// cumulative Prometheus histogram in seconds: bucket i of the snapshot
// counts durations in [2^(i-1), 2^i) ns, so its cumulative upper bound is
// (2^i - 1) ns. Empty trailing buckets collapse into +Inf.
func writeHistogram(w io.Writer, name string, snap obs.HistSnapshot) {
	writeHistogramExemplars(w, name, snap, nil)
}

// writeHistogramExemplars is writeHistogram plus OpenMetrics-style
// exemplars: a bucket line whose bucket has a sampled exemplar gains a
// "# {trace_id=...,query_id=...} value" suffix, linking the latency bucket
// to a concrete trace retrievable from /traces.
func writeHistogramExemplars(w io.Writer, name string, snap obs.HistSnapshot, exemplars []serve.LatencyExemplar) {
	byBucket := make(map[int]serve.LatencyExemplar, len(exemplars))
	for _, e := range exemplars {
		byBucket[e.Bucket] = e
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	hi := -1
	for i, n := range snap.Buckets {
		if n > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += snap.Buckets[i]
		le := (math.Ldexp(1, i) - 1) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=%q} %d", name, formatFloat(le), cum)
		if e, ok := byBucket[i]; ok {
			fmt.Fprintf(w, " # {trace_id=\"%d\",query_id=\"%d\"} %s",
				e.TraceID, e.QueryID, formatFloat(e.Seconds))
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(snap.Sum)/1e9))
	fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// MetricName maps a registry name ("serve.cache_hits") to a Prometheus
// metric name ("mvpp_serve_cache_hits"): illegal characters become
// underscores and everything gets the mvpp_ namespace prefix.
func MetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("mvpp_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format (backslash,
// double quote, newline). The %q wrapping at the call sites handles quoting
// and the first two, so only newlines need replacing before %q — but keep
// the helper total for callers that quote by hand.
func escapeLabel(v string) string {
	return strings.NewReplacer("\n", `\n`).Replace(v)
}

var (
	// metricLineRe accepts a sample line with an optional OpenMetrics-style
	// exemplar suffix (" # {labels} value") as emitted on histogram bucket
	// lines by writeHistogramExemplars.
	metricLineRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+( # \{[^{}]*\} [^ ]+)?$`)
	typeLineRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
)

// ValidateExposition checks that data is well-formed Prometheus text
// exposition: every line is a # TYPE/# HELP comment or a sample whose
// metric name is legal and whose value parses as a float (exemplar
// suffixes on bucket lines are validated too). It returns the number of
// samples. The bench harness and the mvserve self-scrape both gate on it.
func ValidateExposition(data []byte) (samples int, err error) {
	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE ") && !typeLineRe.MatchString(line) {
				return samples, fmt.Errorf("telemetry: line %d: malformed TYPE comment %q", lineNo+1, line)
			}
			continue
		}
		if !metricLineRe.MatchString(line) {
			return samples, fmt.Errorf("telemetry: line %d: malformed sample %q", lineNo+1, line)
		}
		value := line[strings.LastIndexByte(line, ' ')+1:]
		if _, perr := strconv.ParseFloat(value, 64); perr != nil {
			return samples, fmt.Errorf("telemetry: line %d: bad value %q: %v", lineNo+1, value, perr)
		}
		samples++
	}
	if samples == 0 {
		return 0, errors.New("telemetry: exposition has no samples")
	}
	return samples, nil
}
