package mvpp_test

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/telemetry"
)

// auditEpoch drives one epoch of traffic: every workload query executes at
// least once against a cold cache (the flush that ends the epoch
// invalidates cached results), then deltas land and the views refresh.
func auditEpoch(t *testing.T, design *mvpp.Design, srv *mvpp.Server, fraction float64) {
	t.Helper()
	ctx := context.Background()
	for _, q := range design.Queries() {
		if _, err := srv.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := srv.InjectDeltas(fraction); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// The pinned calibration band for view-refresh predictions on the paper
// workload. Originally [0.5, 2.0]; re-validated and tightened after the
// engine moved to vectorized batch execution — block I/O is
// executor-invariant (the batch-vs-row differential suite asserts the
// counters bit for bit), so the measured ratios did not move, and three
// epochs of EWMA smoothing keep them comfortably inside [0.6, 1.75].
const (
	calibBandLo = 0.6
	calibBandHi = 1.75
)

// TestCostAuditCalibrationBand is the accountability acceptance check: on
// the paper workload every materialized view's calibration ratio lands in
// the pinned band — the §4.1 predictions agree with the engine's measured
// block I/O — after one epoch of traffic, and the ledger's sample counts
// grow monotonically across epochs.
func TestCostAuditCalibrationBand(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{Scale: 0.05})

	auditEpoch(t, design, srv, 0.02)
	rep := srv.CostReport()
	if len(rep.Entries) == 0 {
		t.Fatal("cost ledger empty after an epoch of traffic")
	}
	views := 0
	samples := make(map[string]int64, len(rep.Entries))
	for _, e := range rep.Entries {
		t.Logf("%-10s %-8s predicted %8.1f  actual %6.0f  ratio %.3f  samples %d",
			e.Kind, e.Name, e.PredictedBlocks, e.LastActualBlocks, e.Ratio, e.Samples)
		if e.Samples == 0 {
			continue
		}
		samples[e.Kind+"/"+e.Name] = e.Samples
		if math.IsNaN(e.Ratio) || math.IsInf(e.Ratio, 0) || e.Ratio < 0 {
			t.Errorf("%s %s: calibration ratio %v not finite and non-negative", e.Kind, e.Name, e.Ratio)
		}
		if e.Kind == "query" {
			continue
		}
		views++
		// The acceptance band: view refresh predictions inside the pinned
		// calibration band after the first epoch.
		if e.Ratio < calibBandLo || e.Ratio > calibBandHi {
			t.Errorf("%s %s: calibration ratio %.3f outside [%g, %g] (predicted %.1f, actual %.0f)",
				e.Kind, e.Name, e.Ratio, calibBandLo, calibBandHi, e.PredictedBlocks, e.LastActualBlocks)
		}
	}
	if views == 0 {
		t.Fatal("no view refresh entries in the ledger")
	}

	// Two more epochs: sample counts only grow, ratios stay in band.
	auditEpoch(t, design, srv, 0.02)
	auditEpoch(t, design, srv, 0.02)
	for _, e := range srv.CostReport().Entries {
		if before, ok := samples[e.Kind+"/"+e.Name]; ok && e.Samples < before {
			t.Errorf("%s %s: samples shrank %d -> %d", e.Kind, e.Name, before, e.Samples)
		}
		if e.Samples > 0 && e.Kind != "query" && (e.Ratio < calibBandLo || e.Ratio > calibBandHi) {
			t.Errorf("%s %s: ratio %.3f left [%g, %g] after 3 epochs", e.Kind, e.Name, e.Ratio, calibBandLo, calibBandHi)
		}
		if e.Drifted {
			t.Errorf("%s %s: drifted on an un-skewed run (ratio %.3f)", e.Kind, e.Name, e.Ratio)
		}
	}
	if st := srv.Stats(); st.CostObservations == 0 {
		t.Error("Stats().CostObservations = 0 after three epochs")
	}
}

// TestCostAuditSkewTripsDriftAndRecalibration forces a cost-model skew —
// every prediction multiplied 8× — and checks the loop closes: the drift
// flag trips once enough samples accumulate, and the server re-runs the
// Figure 9 selection with recalibrated weights.
func TestCostAuditSkewTripsDriftAndRecalibration(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{
		Scale:     0.05,
		CostAudit: mvpp.CostAuditOptions{SkewPredictions: 8},
	})
	// MinSamples defaults to 3: three epochs of refreshes trip the flag.
	for i := 0; i < 4; i++ {
		auditEpoch(t, design, srv, 0.02)
	}
	rep := srv.CostReport()
	if rep.DriftedEntries == 0 {
		for _, e := range rep.Entries {
			t.Logf("%-10s %-8s ratio %.3f samples %d drifted %v", e.Kind, e.Name, e.Ratio, e.Samples, e.Drifted)
		}
		t.Fatal("8x-skewed predictions never tripped the drift flag")
	}
	st := srv.Stats()
	if st.CostDrifts == 0 {
		t.Error("Stats().CostDrifts = 0 despite drifted ledger entries")
	}
	if st.Recalibrations == 0 {
		t.Error("drift did not trigger an advisor recalibration")
	}
	if srv.LastRecalibration() == nil {
		t.Error("LastRecalibration() = nil after drift-triggered re-selection")
	}
	// The server records the advice and applies nothing itself; an operator
	// who wants it live writes these two lines.
	if a := srv.LastRecalibration(); a != nil && a.Changed() {
		err := srv.ApplyAdvice(a)
		if got := srv.Views(); err != nil || !reflect.DeepEqual(got, a.Proposed) {
			t.Errorf("applying the recorded advice: views %v, %v; want %v", got, err, a.Proposed)
		}
	} else {
		t.Errorf("the recorded advice proposes no change (%+v): the apply step ran nothing", a)
	}
}

// TestCostAuditDriftNamesOnlySkewedView is the drift-precision regression
// check: when the cost constants of exactly one view's refresh
// predictions move (an 8× per-view skew), the ledger must flag that view
// and nothing else — no collateral drift on the other views or on the
// query entries, whose constants did not change.
func TestCostAuditDriftNamesOnlySkewedView(t *testing.T) {
	design, err := paperDesigner(t, mvpp.Options{}).Design()
	if err != nil {
		t.Fatal(err)
	}
	views := design.Views()
	if len(views) < 2 {
		t.Skipf("need at least two materialized views to test drift precision, have %d", len(views))
	}
	skewed := views[0].Name
	srv, err := design.NewServer(mvpp.ServeOptions{
		Scale: 0.05,
		Seed:  7,
		CostAudit: mvpp.CostAuditOptions{
			SkewViews: map[string]float64{skewed: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// MinSamples defaults to 3: four epochs give every refresh entry
	// enough observations to be eligible for the drift flag.
	for i := 0; i < 4; i++ {
		auditEpoch(t, design, srv, 0.02)
	}

	rep := srv.CostReport()
	sawSkewedDrift := false
	for _, e := range rep.Entries {
		isRefresh := e.Kind != "query"
		switch {
		case isRefresh && e.Name == skewed:
			if e.Samples > 0 && !e.Drifted {
				t.Errorf("%s %s: 8x-skewed constants never tripped drift (ratio %.3f, samples %d)",
					e.Kind, e.Name, e.Ratio, e.Samples)
			}
			sawSkewedDrift = sawSkewedDrift || e.Drifted
		case e.Drifted:
			t.Errorf("%s %s: drifted but its constants never moved (ratio %.3f)",
				e.Kind, e.Name, e.Ratio)
		}
	}
	if !sawSkewedDrift {
		t.Fatalf("no refresh entry for the skewed view %s was flagged", skewed)
	}
	if got := srv.Stats().CostDrifts; got == 0 {
		t.Error("Stats().CostDrifts = 0 despite the skewed view drifting")
	}
}

// TestCostAuditConcurrentWithScrapes races queries and maintenance against
// live /costmodel and /metrics scrapes — the ledger's locking discipline
// under the race detector — and parse-validates both endpoints.
func TestCostAuditConcurrentWithScrapes(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{TelemetryAddr: "127.0.0.1:0"})
	addr := srv.TelemetryAddr()
	ctx := context.Background()
	queries := design.Queries()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return nil
		}
		return body
	}

	const clients, rounds, scrapes = 4, 20, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := srv.Query(ctx, queries[(c+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := srv.InjectDeltas(0.01); err != nil {
				t.Error(err)
				return
			}
			if err := srv.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			if body := get("/costmodel"); body != nil {
				var out struct {
					Entries []mvpp.CostEntry `json:"entries"`
				}
				if err := json.Unmarshal(body, &out); err != nil {
					t.Errorf("/costmodel did not parse: %v", err)
				}
			}
			if body := get("/metrics"); body != nil {
				if _, err := telemetry.ValidateExposition(body); err != nil {
					t.Errorf("/metrics invalid mid-load: %v", err)
				}
			}
		}
	}()
	wg.Wait()

	// After the load, the exposition carries the cost families.
	body := get("/metrics")
	for _, want := range []string{
		"mv_cost_predicted_blocks", "mv_cost_actual_blocks", "mv_cost_calibration_ratio",
		"go_goroutines ", "mvpp_build_info{",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q after load", want)
		}
	}
	var cm struct {
		Epoch   uint64           `json:"epoch"`
		Entries []mvpp.CostEntry `json:"entries"`
	}
	if err := json.Unmarshal(get("/costmodel"), &cm); err != nil {
		t.Fatal(err)
	}
	if len(cm.Entries) == 0 {
		t.Fatal("/costmodel empty after load")
	}
	for _, e := range cm.Entries {
		if e.Samples > 0 && (math.IsNaN(e.Ratio) || math.IsInf(e.Ratio, 0) || e.Ratio < 0) {
			t.Errorf("%s %s: ratio %v not finite and non-negative", e.Kind, e.Name, e.Ratio)
		}
	}
}
