package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/serve"
)

// fixture builds a small serving layer over the paper's relations (tmp2
// incremental, custla recompute) with metrics and trace sampling on, plus a
// telemetry plane bound to a free port.
func fixture(t *testing.T) (*serve.Server, *Server, *obs.Registry) {
	t.Helper()
	db, err := datagen.PaperDB(10, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := db.Table("Product")
	if err != nil {
		t.Fatal(err)
	}
	div, err := db.Table("Division")
	if err != nil {
		t.Fatal(err)
	}
	join := algebra.NewJoin(algebra.NewScan("Product", pd.Schema),
		algebra.NewSelect(algebra.NewScan("Division", div.Schema),
			algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA"))),
		[]algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Division", "Did")}})
	if _, err := db.Materialize("tmp2", join); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		DB:               db,
		Queries:          []serve.QuerySpec{{Name: "QLA", Plan: join, Frequency: 10}},
		Views:            []serve.ViewSpec{{Name: "tmp2", Strategy: core.MaintIncremental}},
		DeltaBatch:       1 << 20,
		TraceSampleEvery: 1,
		Obs:              obs.MetricsOnly(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts, err := Serve(Config{Addr: "127.0.0.1:0", Registry: reg, Source: srv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return srv, ts, reg
}

func get(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestMetricsExposition: after traffic and a maintenance epoch, /metrics is
// valid exposition and carries the counter, histogram and per-view
// staleness families the acceptance criteria name.
func TestMetricsExposition(t *testing.T) {
	srv, ts, _ := fixture(t)
	for i := 0; i < 5; i++ {
		if _, err := srv.Query(nil, "QLA"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Ingest("Division", []algebra.Value{
		algebra.IntVal(900001), algebra.StringVal("division-Δ"), algebra.StringVal("LA"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, ts.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := ValidateExposition(body)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if samples < 10 {
		t.Errorf("only %d samples", samples)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE mvpp_serve_queries_total counter",
		"# TYPE mvpp_serve_latency_seconds histogram",
		"mvpp_serve_latency_seconds_bucket{le=\"+Inf\"} 5",
		"mvpp_serve_latency_seconds_count 5",
		"mvpp_view_lag_rows{view=\"tmp2\"}",
		"mvpp_view_pending_rows{view=\"tmp2\"}",
		"mvpp_serve_window_qps",
		"mvpp_serve_epoch 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthzAndViews: a live server reports ok with its epoch; /views
// carries strategy and breaker state per maintained view.
func TestHealthzAndViews(t *testing.T) {
	srv, ts, _ := fixture(t)
	code, body := get(t, ts.Addr(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var health struct {
		Status string `json:"status"`
		Views  int    `json:"views"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Views != 1 {
		t.Errorf("healthz = %+v, want ok with 1 view", health)
	}

	code, body = get(t, ts.Addr(), "/views")
	if code != http.StatusOK {
		t.Fatalf("/views status %d", code)
	}
	var views struct {
		Views map[string]struct {
			Strategy string `json:"strategy"`
			Breaker  string `json:"breaker"`
		} `json:"views"`
	}
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	v, ok := views.Views["tmp2"]
	if !ok {
		t.Fatalf("/views missing tmp2: %s", body)
	}
	if v.Strategy != "incremental" || v.Breaker != "closed" {
		t.Errorf("tmp2 = %+v, want incremental/closed", v)
	}
	_ = srv
}

// TestTracesCorrelation: with every query sampled, /traces returns one
// query's full lifecycle — admission through execution to reply — under a
// single query ID.
func TestTracesCorrelation(t *testing.T) {
	srv, ts, _ := fixture(t)
	if _, err := srv.Query(nil, "QLA"); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.Addr(), "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var out struct {
		Sampled int                `json:"sampled"`
		Traces  []serve.QueryTrace `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Sampled != 1 {
		t.Fatalf("sampled = %d, want 1: %s", out.Sampled, body)
	}
	tr := out.Traces[0]
	if tr.ID == 0 || tr.Query != "QLA" || !tr.Done {
		t.Errorf("trace header = %+v, want done QLA with nonzero ID", tr)
	}
	var stages []string
	for _, st := range tr.Stages {
		stages = append(stages, st.Stage)
	}
	want := []string{"admit", "cache_miss", "execute", "reply"}
	if got := strings.Join(stages, ","); got != strings.Join(want, ",") {
		t.Errorf("stages = %s, want %s", got, strings.Join(want, ","))
	}
}

// TestHealthzClosed: once the serving layer closes, /healthz answers 503
// "closed" instead of hanging, and the telemetry Close is idempotent.
func TestHealthzClosed(t *testing.T) {
	srv, ts, _ := fixture(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.Addr(), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after close: status %d, want 503", code)
	}
	if !strings.Contains(string(body), `"closed"`) {
		t.Errorf("/healthz after close = %s, want closed", body)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := http.Get("http://" + ts.Addr() + "/healthz"); err == nil {
		t.Error("listener still answering after Close")
	}
}

// TestValidateExposition rejects the malformed and accepts the valid.
func TestValidateExposition(t *testing.T) {
	good := "# TYPE mvpp_x_total counter\nmvpp_x_total 3\nmvpp_h_bucket{le=\"+Inf\"} 2\n"
	if n, err := ValidateExposition([]byte(good)); err != nil || n != 2 {
		t.Errorf("good exposition: n=%d err=%v", n, err)
	}
	for _, bad := range []string{
		"",               // no samples
		"mvpp_x three\n", // non-numeric value
		"9metric 1\n",    // illegal name
		"# TYPE mvpp_x counter gauge\n" + "mvpp_x 1\n", // malformed TYPE
	} {
		if _, err := ValidateExposition([]byte(bad)); err == nil {
			t.Errorf("accepted malformed exposition %q", bad)
		}
	}
}

// TestMetricName maps registry names onto legal Prometheus names.
func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.queries":   "mvpp_serve_queries",
		"optimizer.plans": "mvpp_optimizer_plans",
		"weird-name/x":    "mvpp_weird_name_x",
		"already_under":   "mvpp_already_under",
	} {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestServeNilSource: a telemetry plane with no source still scrapes (the
// registry families plus the always-on runtime families) and reports ok
// health.
func TestServeNilSource(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo.count").Add(7)
	ts, err := Serve(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	code, body := get(t, ts.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if n, err := ValidateExposition(body); err != nil || n < 2 {
		t.Errorf("nil-source metrics: n=%d err=%v\n%s", n, err, body)
	}
	for _, want := range []string{"mvpp_demo_count_total 7", "go_goroutines ", "mvpp_build_info{"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("nil-source metrics missing %q", want)
		}
	}
	code, _ = get(t, ts.Addr(), "/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz status %d", code)
	}
}

// TestWindowedRatesMove: windowed QPS reflects recent traffic (nonzero
// right after queries).
func TestWindowedRatesMove(t *testing.T) {
	srv, ts, _ := fixture(t)
	for i := 0; i < 20; i++ {
		if _, err := srv.Query(nil, "QLA"); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.WindowQueries != 20 {
		t.Errorf("WindowQueries = %d, want 20", st.WindowQueries)
	}
	if st.WindowQPS <= 0 {
		t.Errorf("WindowQPS = %g, want > 0", st.WindowQPS)
	}
	if st.WindowCacheHits != 19 {
		t.Errorf("WindowCacheHits = %d, want 19", st.WindowCacheHits)
	}
	if st.WindowHitRate < 0.9 {
		t.Errorf("WindowHitRate = %g, want ~0.95", st.WindowHitRate)
	}
	if st.WindowP99 <= 0 {
		t.Errorf("WindowP99 = %v, want > 0", st.WindowP99)
	}
	_, body := get(t, ts.Addr(), "/metrics")
	if !strings.Contains(string(body), "mvpp_serve_window_latency_seconds_count 20") {
		t.Errorf("window histogram missing from /metrics:\n%s",
			grepLines(string(body), "window_latency"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return fmt.Sprint(strings.Join(out, "\n"))
}

// TestStatsMatchRegistryExposition: the CDC stream-rows family the serving
// Stats feed (mv_ingest_stream_rows_total) and the registry counter of the
// same fact (mvpp_serve_stream_rows_total) scrape the same value.
func TestStatsMatchRegistryExposition(t *testing.T) {
	srv, ts, _ := fixture(t)
	for i := int64(1); i <= 3; i++ {
		if err := srv.StreamIngest("Division", []algebra.Value{
			algebra.IntVal(900000 + i), algebra.StringVal("division-Δ"), algebra.StringVal("LA"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, ts.Addr(), "/metrics")
	sample := func(name string) string {
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		t.Fatalf("/metrics has no %s sample", name)
		return ""
	}
	stats, reg := sample("mv_ingest_stream_rows_total"), sample("mvpp_serve_stream_rows_total")
	if stats != "3" || reg != stats {
		t.Errorf("mv_ingest_stream_rows_total %s, mvpp_serve_stream_rows_total %s; want 3 and 3", stats, reg)
	}
}
