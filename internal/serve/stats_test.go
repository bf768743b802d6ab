package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/costaudit"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

// statsRegistryNames maps each Stats counter field to the registry counter
// /metrics renders for the same fact.
var statsRegistryNames = map[string]string{
	"Queries":              obs.CtrServeQueries,
	"CacheHits":            obs.CtrServeCacheHits,
	"CacheMisses":          obs.CtrServeCacheMisses,
	"Rejected":             obs.CtrServeRejected,
	"Backpressured":        "serve.backpressured",
	"Epochs":               obs.CtrServeEpochs,
	"IncrementalRefreshes": "serve.incremental_refreshes",
	"Recomputes":           "serve.recomputes",
	"DeltaRows":            obs.CtrServeDeltaRows,
	"RefreshReads":         obs.CtrServeRefreshReads,
	"RefreshWrites":        obs.CtrServeRefreshWrites,
	"Retries":              obs.CtrServeRetries,
	"RefreshFailures":      obs.CtrServeRefreshFailures,
	"IncrementalFallbacks": obs.CtrServeFallbacks,
	"BreakerTrips":         obs.CtrServeBreakerTrips,
	"DegradedQueries":      obs.CtrServeDegraded,
	"PanicsRecovered":      obs.CtrServePanics,
	"ReplayedDeltaRows":    obs.CtrServeReplayedRows,
	"CostObservations":     obs.CtrCostObservations,
	"CostDrifts":           obs.CtrCostDrifts,
	"Recalibrations":       obs.CtrServeRecalibrations,
	"StreamRows":           obs.CtrServeStreamRows,
	"StreamGroups":         obs.CtrServeStreamGroups,
	"StreamShed":           obs.CtrServeStreamShed,
	"StreamBlocked":        obs.CtrServeStreamBlocked,
	"SLOViolations":        obs.CtrServeSLOViolations,
	"FlightDumps":          obs.CtrServeFlightDumps,
	"PlanRewrites":         "serve.plan_rewrites",
}

// TestStatsMatchRegistry: a server with an observer goes through every kind
// of serving fact — queries, hits, misses, a rejection, direct and streamed
// ingest, epochs, an injected retry and fallback, an SLO breach with its
// flight dump, a checkpoint — and then every Stats field that has a
// registry counter equals it.
func TestStatsMatchRegistry(t *testing.T) {
	db := paperServeDB(t)
	join := laJoinPlan(t, db)
	cust := laCustomerPlan(t, db)
	if _, err := db.Materialize("tmp2", join); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("custla", cust); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1, fault.Plan{fault.SiteEngineIncrementalRefresh: {ErrProb: 1}})
	db.SetInjector(inj)
	reg := obs.NewRegistry()
	s, err := newServer(Config{
		DB: db,
		Queries: []QuerySpec{
			{Name: "QLA", Plan: join, Frequency: 10},
			{Name: "QCust", Plan: cust, Frequency: 5},
		},
		Views: []ViewSpec{
			{Name: "tmp2", Strategy: core.MaintIncremental},
			{Name: "custla", Strategy: core.MaintRecompute, Policy: ManualPolicy(),
				SLO: FreshnessSLO{MaxLagEpochs: 1}},
		},
		QueueDepth:       1,
		DeltaBatch:       1 << 20,
		Injector:         inj,
		Retry:            fastRetry,
		TraceSampleEvery: 1,
		Audit:            costaudit.NewLedger(costaudit.Config{}),
		Snapshots:        testStore(t),
		Journal:          engine.NewMemJournal(),
		Obs:              obs.MetricsOnly(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// A rejection before any slot is free: every execution slot is held, and
	// the miss's caller gives up waiting for one.
	release := holdSlots(s)
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	if _, err := s.Query(short, "QLA"); err == nil {
		t.Fatal("a query no slot can run was not rejected")
	}
	cancel()
	release()

	for _, q := range []string{"QLA", "QLA", "QCust", "QCust"} {
		if _, err := s.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 1: the incremental refresh of tmp2 fails through its retries
	// and falls back to recomputation; custla (manual) falls behind.
	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamIngest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Customer", custDelta(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	inj.Disarm()
	// Epoch 2: custla's second stale epoch breaches its SLO and dumps the
	// flight recorder; its queries degrade.
	if err := s.StreamIngest("Customer", custDelta(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"QLA", "QCust"} {
		if _, err := s.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RefreshView("custla"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	for field, least := range map[string]int64{
		"Queries": 7, "CacheHits": 1, "CacheMisses": 1, "Rejected": 1, "Epochs": 2,
		"DeltaRows": 4, "Retries": 1, "IncrementalFallbacks": 1, "SLOViolations": 1,
		"FlightDumps": 1, "StreamRows": 2, "StreamGroups": 2, "DegradedQueries": 1,
		"CostObservations": 1, "RefreshReads": 1,
	} {
		if got := reflect.ValueOf(st).FieldByName(field).Int(); got < least {
			t.Errorf("Stats().%s = %d, want at least %d: the script did not exercise it", field, got, least)
		}
	}
	counters, _ := reg.Snapshot()
	matched := 0
	for field, name := range statsRegistryNames {
		want, ok := counters[name]
		if !ok {
			continue
		}
		matched++
		if got := reflect.ValueOf(st).FieldByName(field).Int(); got != want {
			t.Errorf("Stats().%s = %d, registry %s = %d", field, got, name, want)
		}
	}
	if matched < len(statsRegistryNames)-4 {
		t.Errorf("only %d of %d Stats fields have a registry counter", matched, len(statsRegistryNames))
	}
}
