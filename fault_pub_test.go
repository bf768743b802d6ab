package mvpp_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	mvpp "github.com/warehousekit/mvpp"
)

// resultRows renders a result order-independently for comparison.
func resultRows(res *mvpp.QueryResult) []string {
	rows := res.Values()
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for c, v := range row {
			parts[c] = fmt.Sprint(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func TestServerClosedErr(t *testing.T) {
	_, srv := paperServer(t, mvpp.ServeOptions{})
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := srv.Query(context.Background(), "Q1"); !errors.Is(err, mvpp.ErrServerClosed) {
		t.Errorf("Query after Close = %v, want ErrServerClosed", err)
	}
	if _, err := srv.InjectDeltas(0.01); !errors.Is(err, mvpp.ErrServerClosed) {
		t.Errorf("InjectDeltas after Close = %v, want ErrServerClosed", err)
	}
	if err := srv.Flush(); !errors.Is(err, mvpp.ErrServerClosed) {
		t.Errorf("Flush after Close = %v, want ErrServerClosed", err)
	}
}

func TestServerDegradesUnderInjectedFaults(t *testing.T) {
	inj := mvpp.NewFaultInjector(5, mvpp.FaultPlan{
		mvpp.FaultSiteEngineRefresh:            {ErrProb: 1},
		mvpp.FaultSiteEngineIncrementalRefresh: {ErrProb: 1},
	})
	design, srv := paperServer(t, mvpp.ServeOptions{
		Injector: inj,
		Retry:    mvpp.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond},
		Breaker:  mvpp.BreakerPolicy{FailureThreshold: 1, Cooldown: time.Millisecond},
	})
	// The healthy twin answers the same workload from intact views.
	_, healthy := paperServer(t, mvpp.ServeOptions{})

	for _, s := range []*mvpp.Server{srv, healthy} {
		if _, err := s.InjectDeltas(0.05); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	health := srv.Health()
	if len(health) == 0 {
		t.Fatal("no view health reported")
	}
	degrading := 0
	for view, h := range health {
		if h.State != mvpp.BreakerOpen {
			t.Errorf("%s: breaker %v, want open", view, h.State)
		}
		if h.Degrading {
			degrading++
		}
		if h.LagRows == 0 {
			t.Errorf("%s: lag 0 after failed refresh", view)
		}
	}
	if degrading == 0 {
		t.Fatal("no view degrading with all breakers open")
	}

	ctx := context.Background()
	for _, q := range design.Queries() {
		got, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := healthy.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s healthy: %v", q, err)
		}
		a, b := resultRows(got), resultRows(want)
		if len(a) != len(b) {
			t.Fatalf("%s: degraded rows %d != healthy rows %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: degraded row %d = %q, healthy %q", q, i, a[i], b[i])
			}
		}
	}
	stats := srv.Stats()
	if stats.DegradedQueries == 0 {
		t.Error("no degraded queries counted")
	}
	if stats.BreakerTrips == 0 {
		t.Error("no breaker trips counted")
	}

	// Disarm, wait out the cooldown, and the next epoch recovers.
	inj.Disarm()
	time.Sleep(5 * time.Millisecond)
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	for view, h := range srv.Health() {
		if h.State != mvpp.BreakerClosed || h.LagRows != 0 || h.Degrading {
			t.Errorf("%s after recovery: %+v", view, h)
		}
	}
}

func TestServerJournalReplayAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.journal")
	_, crashed := paperServer(t, mvpp.ServeOptions{Seed: 21, JournalPath: path})
	ingested, err := crashed.InjectDeltas(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ingested == 0 {
		t.Fatal("no deltas ingested")
	}
	if err := crashed.Close(); err != nil { // crash: nothing flushed
		t.Fatal(err)
	}

	design, reborn := paperServer(t, mvpp.ServeOptions{Seed: 21, JournalPath: path})
	if got := reborn.Stats().ReplayedDeltaRows; got != int64(ingested) {
		t.Fatalf("replayed %d rows, want %d", got, ingested)
	}
	if err := reborn.Flush(); err != nil {
		t.Fatal(err)
	}

	// A control that ingested the same deltas (same seed) without crashing
	// must agree on every query.
	_, control := paperServer(t, mvpp.ServeOptions{Seed: 21})
	if _, err := control.InjectDeltas(0.05); err != nil {
		t.Fatal(err)
	}
	if err := control.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range design.Queries() {
		a, err := reborn.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := control.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s control: %v", q, err)
		}
		ra, rb := resultRows(a), resultRows(b)
		if len(ra) != len(rb) {
			t.Fatalf("%s: replayed rows %d != control rows %d", q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: replayed row %d = %q, control %q", q, i, ra[i], rb[i])
			}
		}
	}
}

// TestJournalOnlyRestartKeepsAckedDeltas: a server with a journal and no
// snapshot store boots on freshly generated data — watermark 0 — so a
// restart must replay every journaled batch, the ones whose epochs landed
// before the crash as well as the one still buffered. After one epoch the
// reborn server answers every query like a server that never crashed.
func TestJournalOnlyRestartKeepsAckedDeltas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.journal")
	// ingest runs the schedule: two landed batches, then one only journaled.
	ingest := func(srv *mvpp.Server) int {
		total := 0
		for i := 0; i < 3; i++ {
			n, err := srv.InjectDeltas(0.05)
			if err != nil || n == 0 {
				t.Fatalf("batch %d: %d rows, %v", i, n, err)
			}
			total += n
			if i < 2 {
				if err := srv.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return total
	}
	_, crashed := paperServer(t, mvpp.ServeOptions{Seed: 21, JournalPath: path})
	ingested := ingest(crashed)
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}

	design, reborn := paperServer(t, mvpp.ServeOptions{Seed: 21, JournalPath: path})
	if got := reborn.Stats().ReplayedDeltaRows; got != int64(ingested) {
		t.Fatalf("replayed %d rows, want all %d journaled", got, ingested)
	}
	if err := reborn.Flush(); err != nil {
		t.Fatal(err)
	}
	_, control := paperServer(t, mvpp.ServeOptions{Seed: 21})
	ingest(control)
	if err := control.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range design.Queries() {
		a, err := reborn.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := control.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s control: %v", q, err)
		}
		if ra, rb := resultRows(a), resultRows(b); strings.Join(ra, "\n") != strings.Join(rb, "\n") {
			t.Errorf("%s: %d rows after the restart, %d without a crash", q, len(ra), len(rb))
		}
	}
}

func TestServeJournalAndPathExclusive(t *testing.T) {
	design, err := paperDesigner(t, mvpp.Options{}).Design()
	if err != nil {
		t.Fatal(err)
	}
	_, err = design.NewServer(mvpp.ServeOptions{
		Scale:       0.01,
		Journal:     mvpp.NewMemJournal(),
		JournalPath: filepath.Join(t.TempDir(), "j"),
	})
	if err == nil {
		t.Fatal("Journal+JournalPath accepted")
	}
}
