package mvpp_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/telemetry"
)

func telemetryGet(t *testing.T, addr, path string) (int, []byte) {
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

// parseCounters extracts the counter samples ("name value") from an
// exposition body.
func parseCounters(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out
}

// TestTelemetryUnderLoad hammers queries and delta injection from many
// goroutines while concurrently scraping /metrics and /healthz, asserting
// every scrape stays well-formed and the query counter is monotonic.
// Run with -race: this is the concurrent gauge/histogram mutation test.
func TestTelemetryUnderLoad(t *testing.T) {
	_, srv := paperServer(t, mvpp.ServeOptions{
		TelemetryAddr:    "127.0.0.1:0",
		TraceSampleEvery: 1,
		DeltaBatch:       1 << 20,
	})
	defer srv.Close()
	addr := srv.TelemetryAddr()
	if addr == "" {
		t.Fatal("telemetry enabled but no address bound")
	}

	const workers, perWorker, scrapes = 4, 30, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"Q1", "Q2", "Q3", "Q4"}
			for i := 0; i < perWorker; i++ {
				if _, err := srv.Query(context.Background(), names[(w+i)%len(names)]); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.InjectDeltas(0.05); err != nil {
			t.Errorf("inject: %v", err)
			return
		}
		if err := srv.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}()

	var lastQueries float64
	for i := 0; i < scrapes; i++ {
		code, body := telemetryGet(t, addr, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		if _, err := telemetry.ValidateExposition(body); err != nil {
			t.Fatalf("scrape %d invalid: %v", i, err)
		}
		q := parseCounters(body)["mvpp_serve_queries_total"]
		if q < lastQueries {
			t.Fatalf("queries counter went backwards: %g -> %g", lastQueries, q)
		}
		lastQueries = q

		code, hbody := telemetryGet(t, addr, "/healthz")
		if code != http.StatusOK {
			t.Fatalf("/healthz status %d: %s", code, hbody)
		}
	}
	wg.Wait()

	// Final scrape reflects all the traffic.
	_, body := telemetryGet(t, addr, "/metrics")
	if q := parseCounters(body)["mvpp_serve_queries_total"]; q < workers*perWorker {
		t.Errorf("final queries counter %g, want >= %d", q, workers*perWorker)
	}
	st := srv.Stats()
	if st.WindowQueries < workers*perWorker {
		t.Errorf("WindowQueries = %d, want >= %d", st.WindowQueries, workers*perWorker)
	}
}

// TestTelemetryTraceCorrelation asserts the acceptance criterion: /traces
// returns a sampled query's full chain — admission, cache or engine
// execution, reply — under one query ID, and the same ID tags every stage.
func TestTelemetryTraceCorrelation(t *testing.T) {
	_, srv := paperServer(t, mvpp.ServeOptions{
		TelemetryAddr:    "127.0.0.1:0",
		TraceSampleEvery: 1,
	})
	defer srv.Close()

	if _, err := srv.Query(context.Background(), "Q1"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(context.Background(), "Q1"); err != nil { // cache hit
		t.Fatal(err)
	}

	code, body := telemetryGet(t, srv.TelemetryAddr(), "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var out struct {
		Traces []mvpp.QueryTrace `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 2 {
		t.Fatalf("got %d traces, want 2: %s", len(out.Traces), body)
	}

	miss, hit := out.Traces[0], out.Traces[1]
	if miss.ID == hit.ID {
		t.Fatalf("distinct queries share ID %d", miss.ID)
	}
	stageNames := func(tr mvpp.QueryTrace) string {
		var s []string
		for _, st := range tr.Stages {
			s = append(s, st.Stage)
		}
		return strings.Join(s, ",")
	}
	if got := stageNames(miss); got != "admit,cache_miss,execute,reply" {
		t.Errorf("miss chain = %s, want admit,cache_miss,execute,reply", got)
	}
	if got := stageNames(hit); got != "admit,cache_hit,reply" {
		t.Errorf("hit chain = %s, want admit,cache_hit,reply", got)
	}
	if !miss.Done || !hit.Done {
		t.Error("traces not marked done after reply")
	}
}

// TestTelemetryOff asserts the nil-off contract: without TelemetryAddr no
// listener exists and no traces are sampled — even with the flight
// recorder armed through MVPP_FLIGHT_DIR, whose ring then holds the write
// path's spans for dumps but serves no /traces entry.
func TestTelemetryOff(t *testing.T) {
	t.Setenv("MVPP_FLIGHT_DIR", t.TempDir())
	_, srv := paperServer(t, mvpp.ServeOptions{})
	defer srv.Close()
	if addr := srv.TelemetryAddr(); addr != "" {
		t.Errorf("TelemetryAddr = %q, want empty", addr)
	}
	if _, err := srv.Query(context.Background(), "Q1"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.StreamDeltas(0.01); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if traces := srv.RecentTraces(); traces != nil {
		t.Errorf("RecentTraces = %v, want nil with telemetry off", traces)
	}
}

// TestTelemetryClosedHealth asserts the shutdown bugfix: after Close, the
// telemetry listener is down (idempotently) and a pre-close scrape of a
// closing server would have seen "closed", not a hang.
func TestTelemetryClosedHealth(t *testing.T) {
	_, srv := paperServer(t, mvpp.ServeOptions{TelemetryAddr: "127.0.0.1:0"})
	addr := srv.TelemetryAddr()
	if code, _ := telemetryGet(t, addr, "/healthz"); code != http.StatusOK {
		t.Fatalf("pre-close /healthz status %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("telemetry listener still answering after Close")
	}
}
