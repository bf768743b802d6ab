package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

// policyFixture is serveFixture with per-view refresh policies and SLOs:
// tmp2 (incremental) and custla (recompute) tagged as the caller asks.
func policyFixture(t *testing.T, cfg Config, policies map[string]RefreshPolicy, slos map[string]FreshnessSLO) (*Server, *engine.DB) {
	t.Helper()
	db := paperServeDB(t)
	join := laJoinPlan(t, db)
	cust := laCustomerPlan(t, db)
	if _, err := db.Materialize("tmp2", join); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("custla", cust); err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	cfg.Queries = []QuerySpec{
		{Name: "QLA", Plan: join, Frequency: 10},
		{Name: "QCust", Plan: cust, Frequency: 5},
	}
	cfg.Views = []ViewSpec{
		{Name: "tmp2", Strategy: core.MaintIncremental, Policy: policies["tmp2"], SLO: slos["tmp2"]},
		{Name: "custla", Strategy: core.MaintRecompute, Policy: policies["custla"], SLO: slos["custla"]},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, db
}

// eventObserver records emitted events (kind + attrs) for assertions, on
// top of a live metrics registry.
type eventObserver struct {
	reg *obs.Registry

	mu     sync.Mutex
	events []recordedEvent
}

type recordedEvent struct {
	kind  obs.EventKind
	attrs map[string]any
}

func newEventObserver() *eventObserver {
	return &eventObserver{reg: obs.NewRegistry()}
}

func (o *eventObserver) StartSpan(string, ...obs.Attr) obs.Span { return eventSpan{o} }

func (o *eventObserver) Event(kind obs.EventKind, attrs ...obs.Attr) {
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	o.mu.Lock()
	o.events = append(o.events, recordedEvent{kind: kind, attrs: m})
	o.mu.Unlock()
}

func (o *eventObserver) Metrics() *obs.Registry { return o.reg }

// find returns the recorded events of one kind whose attrs carry the given
// action ("" matches any).
func (o *eventObserver) find(kind obs.EventKind, action string) []recordedEvent {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []recordedEvent
	for _, e := range o.events {
		if e.kind != kind {
			continue
		}
		if action != "" && e.attrs["action"] != action {
			continue
		}
		out = append(out, e)
	}
	return out
}

// custDelta is a Customer delta row that lands in custla (city LA).
func custDelta(i int64) []algebra.Value {
	return []algebra.Value{algebra.IntVal(700000 + i), algebra.StringVal("customer-Δ"), algebra.StringVal("LA")}
}

type eventSpan struct{ *eventObserver }

func (s eventSpan) StartSpan(name string, attrs ...obs.Attr) obs.Span {
	return s.eventObserver.StartSpan(name, attrs...)
}
func (s eventSpan) Annotate(...obs.Attr) {}
func (s eventSpan) End()                 {}

func TestParsePolicyRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want RefreshPolicy
	}{
		{"manual", ManualPolicy()},
		{"on-commit", OnCommitPolicy()},
		{"oncommit", OnCommitPolicy()},
		{"", OnCommitPolicy()},
		{"streaming", StreamingPolicy()},
		{"scheduled:30s", ScheduledPolicy(30 * time.Second)},
		{"scheduled:1h30m", ScheduledPolicy(90 * time.Minute)},
	}
	for _, tc := range cases {
		got, err := ParsePolicy(tc.spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		// String round-trips back through ParsePolicy.
		again, err := ParsePolicy(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q via %q = (%+v, %v)", tc.spec, got.String(), again, err)
		}
	}
	for _, bad := range []string{"bogus", "scheduled:", "scheduled:xyz", "scheduled:-5s", "scheduled:0s"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

// TestManualPolicyDefersUntilRefreshView: manual views accrue lag while
// epochs land around them; only RefreshView (or RefreshAllViews) catches
// them up.
func TestManualPolicyDefersUntilRefreshView(t *testing.T) {
	s, _ := policyFixture(t, Config{DeltaBatch: 1 << 20},
		map[string]RefreshPolicy{"tmp2": ManualPolicy(), "custla": ManualPolicy()}, nil)
	ctx := context.Background()

	before, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}

	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Customer", custDelta(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	st := s.Staleness()
	for name, v := range st {
		if v.Policy != "manual" {
			t.Errorf("%s policy = %q, want manual", name, v.Policy)
		}
		if v.LagRows == 0 {
			t.Errorf("%s lag = 0 after a deferred epoch", name)
		}
		if v.Status != "STALE" {
			t.Errorf("%s status = %s, want STALE", name, v.Status)
		}
		if v.Degrading {
			t.Errorf("%s degrading without an SLO or staleness bound", name)
		}
	}

	// Without an SLO the stale view still answers queries — same rows as
	// before the deltas, served from the unrefreshed view.
	stale, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if stale.Degraded {
		t.Error("manual staleness degraded the query without an SLO")
	}
	if got, want := stale.Table.NumRows(), before.Table.NumRows(); got != want {
		t.Errorf("stale view answered %d rows, want the pre-delta %d", got, want)
	}

	// A Flush with nothing buffered must not spin epochs for manual lag.
	epochsBefore := s.Stats().Epochs
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Epochs; got != epochsBefore {
		t.Errorf("idle Flush ran an epoch (%d -> %d) for manual lag", epochsBefore, got)
	}

	// RefreshView catches up exactly the named view.
	if err := s.RefreshView("tmp2"); err != nil {
		t.Fatal(err)
	}
	st = s.Staleness()
	if st["tmp2"].Status != "VALID" || st["tmp2"].LagRows != 0 {
		t.Errorf("tmp2 after RefreshView = %+v, want VALID with no lag", st["tmp2"])
	}
	if st["custla"].Status != "STALE" {
		t.Errorf("custla status = %s, want STALE (not refreshed)", st["custla"].Status)
	}
	fresh, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Table.NumRows(), before.Table.NumRows()+1; got != want {
		t.Errorf("refreshed view answered %d rows, want %d", got, want)
	}

	// RefreshAllViews brings the rest up to date.
	if err := s.RefreshAllViews(); err != nil {
		t.Fatal(err)
	}
	for name, v := range s.Staleness() {
		if v.Status != "VALID" || v.LagRows != 0 {
			t.Errorf("%s after RefreshAllViews = %+v, want VALID", name, v)
		}
	}
	if err := s.RefreshView("nonesuch"); err == nil {
		t.Error("RefreshView of an unknown view did not error")
	}
}

// TestIdleFlushDuringCooldownIsNoOp: like the idle Flush over manual lag
// above, a Flush with nothing ingested while a tripped breaker cools runs no
// epoch — the serving epoch, the view's stale epochs and its SLO stay put,
// and the cached results stay served.
func TestIdleFlushDuringCooldownIsNoOp(t *testing.T) {
	inj := fault.New(1, fault.Plan{
		fault.SiteEngineRefresh:            {ErrProb: 1},
		fault.SiteEngineIncrementalRefresh: {ErrProb: 1},
	})
	o := newEventObserver()
	s, db := policyFixture(t, Config{
		DeltaBatch: 1 << 20,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour},
		Injector:   inj,
		Obs:        o,
	}, nil, map[string]FreshnessSLO{"tmp2": {MaxLagEpochs: 3}})
	db.SetInjector(inj)
	ctx := context.Background()

	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Staleness()["tmp2"]; s.Epoch() != 1 || st.Breaker != "open" || st.StaleEpochs != 1 {
		t.Fatalf("after the tripping epoch: epoch %d, tmp2 %+v; want epoch 1, open, 1 stale epoch", s.Epoch(), st)
	}
	if _, err := s.Query(ctx, "QCust"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Staleness()["tmp2"]
	if s.Epoch() != 1 || s.Stats().Epochs != 1 || st.StaleEpochs != 1 {
		t.Errorf("five idle Flushes during the cooldown: epoch %d, %d epochs run, tmp2 %d stale epochs; want 1, 1, 1",
			s.Epoch(), s.Stats().Epochs, st.StaleEpochs)
	}
	if st.SLOViolations != 0 || len(o.find(obs.EvServeSLO, "")) != 0 {
		t.Errorf("idle Flushes latched an SLO episode: %d violations, events %v", st.SLOViolations, o.find(obs.EvServeSLO, ""))
	}
	if res, err := s.Query(ctx, "QCust"); err != nil || !res.Cached {
		t.Errorf("the cached QCust result is gone after idle Flushes (err %v)", err)
	}
}

// TestScheduledPolicyHonorsInterval: a scheduled view defers between
// interval firings and catches up once the interval elapses.
func TestScheduledPolicyHonorsInterval(t *testing.T) {
	const every = 80 * time.Millisecond
	s, _ := policyFixture(t, Config{DeltaBatch: 1 << 20},
		map[string]RefreshPolicy{"tmp2": ScheduledPolicy(every), "custla": OnCommitPolicy()}, nil)

	ingestPair := func(i int64) {
		t.Helper()
		div, prod := deltaPair(i)
		if err := s.Ingest("Division", div); err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest("Product", prod); err != nil {
			t.Fatal(err)
		}
	}

	// First epoch: the scheduled view has never refreshed, so it is due.
	ingestPair(1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Staleness()
	if st["tmp2"].Status != "VALID" || st["tmp2"].LagRows != 0 {
		t.Fatalf("first scheduled refresh did not run: %+v", st["tmp2"])
	}

	// Second epoch inside the interval: deferred, lag accrues; the
	// on-commit view refreshes as always.
	ingestPair(2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st = s.Staleness()
	if st["tmp2"].Status != "STALE" || st["tmp2"].LagRows == 0 {
		t.Fatalf("scheduled view refreshed inside its interval: %+v", st["tmp2"])
	}
	if st["custla"].Status != "VALID" {
		t.Errorf("on-commit view deferred: %+v", st["custla"])
	}

	// After the interval elapses the next epoch catches the view up, even
	// with nothing newly buffered.
	time.Sleep(every + 20*time.Millisecond)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st = s.Staleness()
	if st["tmp2"].Status != "VALID" || st["tmp2"].LagRows != 0 {
		t.Errorf("scheduled view did not catch up after its interval: %+v", st["tmp2"])
	}
}

// TestSLOEpochBreachDegradesThenRecovers: a manual view stale past its
// epoch-budget SLO degrades queries to base relations (fresh answers) and
// recovers to VALID after an explicit refresh; the violation is counted
// once per episode.
func TestSLOEpochBreachDegradesThenRecovers(t *testing.T) {
	o := newEventObserver()
	s, _ := policyFixture(t, Config{DeltaBatch: 1 << 20, Obs: o},
		map[string]RefreshPolicy{"tmp2": ManualPolicy(), "custla": OnCommitPolicy()},
		map[string]FreshnessSLO{"tmp2": {MaxLagEpochs: 1}})
	ctx := context.Background()

	before, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}

	ingestFlush := func(i int64) {
		t.Helper()
		div, prod := deltaPair(i)
		if err := s.Ingest("Division", div); err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest("Product", prod); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// One stale epoch: inside the budget, no violation yet.
	ingestFlush(1)
	st := s.Staleness()
	if st["tmp2"].SLOViolated || st["tmp2"].Degrading {
		t.Fatalf("SLO violated within its epoch budget: %+v", st["tmp2"])
	}

	// Second stale epoch: past MaxLagEpochs — violated, degraded.
	ingestFlush(2)
	st = s.Staleness()
	if !st["tmp2"].SLOViolated || !st["tmp2"].Degrading || st["tmp2"].Status != "STALE" {
		t.Fatalf("SLO not enforced after %d stale epochs: %+v", st["tmp2"].StaleEpochs, st["tmp2"])
	}
	if st["tmp2"].SLOViolations != 1 {
		t.Errorf("violation episodes = %d, want 1", st["tmp2"].SLOViolations)
	}
	if got := o.find(obs.EvServeSLO, "violated"); len(got) != 1 {
		t.Errorf("serve.slo violated events = %d, want 1", len(got))
	}
	if counters, _ := o.reg.Snapshot(); counters[obs.CtrServeSLOViolations] != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrServeSLOViolations, counters[obs.CtrServeSLOViolations])
	}

	// Degraded queries bypass the stale view: the answer includes both
	// delta pairs — fresh from base relations.
	deg, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Fatal("query over an SLO-violating view was not degraded")
	}
	if got, want := deg.Table.NumRows(), before.Table.NumRows()+2; got != want {
		t.Errorf("degraded answer has %d rows, want the fresh %d", got, want)
	}

	// RefreshView ends the episode: VALID, no violation, queries back on
	// the view.
	if err := s.RefreshView("tmp2"); err != nil {
		t.Fatal(err)
	}
	st = s.Staleness()
	if st["tmp2"].Status != "VALID" || st["tmp2"].SLOViolated || st["tmp2"].Degrading {
		t.Fatalf("view did not recover after refresh: %+v", st["tmp2"])
	}
	if got := o.find(obs.EvServeSLO, "recovered"); len(got) != 1 {
		t.Errorf("serve.slo recovered events = %d, want 1", len(got))
	}
	back, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if back.Degraded {
		t.Error("query still degraded after the view recovered")
	}
	if got, want := back.Table.NumRows(), before.Table.NumRows()+2; got != want {
		t.Errorf("recovered view answers %d rows, want %d", got, want)
	}
	if s.Stats().SLOViolations != 1 {
		t.Errorf("Stats().SLOViolations = %d, want 1", s.Stats().SLOViolations)
	}
}

// TestSLOWallClockBreach: the wall-clock SLO bound breaches live (between
// epochs), not just at epoch boundaries.
func TestSLOWallClockBreach(t *testing.T) {
	const maxLag = 60 * time.Millisecond
	s, _ := policyFixture(t, Config{DeltaBatch: 1 << 20},
		map[string]RefreshPolicy{"tmp2": ManualPolicy(), "custla": OnCommitPolicy()},
		map[string]FreshnessSLO{"tmp2": {MaxLag: maxLag}})
	ctx := context.Background()

	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// The clock ticks past MaxLag with no further epoch: Staleness and the
	// query path must see the breach anyway.
	time.Sleep(maxLag + 30*time.Millisecond)
	st := s.Staleness()
	if !st["tmp2"].SLOViolated || st["tmp2"].Status != "STALE" {
		t.Fatalf("wall-clock SLO not breached live: %+v", st["tmp2"])
	}
	res, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("query not degraded during a live wall-clock breach")
	}

	if err := s.RefreshView("tmp2"); err != nil {
		t.Fatal(err)
	}
	if st := s.Staleness()["tmp2"]; st.SLOViolated || st.Status != "VALID" {
		t.Errorf("view did not recover: %+v", st)
	}
}

// TestStatusReflectsBreakerError: a view whose refreshes keep failing
// reports ERROR (breaker open), then returns to VALID when the fault
// clears and the probe succeeds.
func TestStatusReflectsBreakerError(t *testing.T) {
	inj := fault.New(1, fault.Plan{
		fault.SiteEngineRefresh:            {ErrProb: 1},
		fault.SiteEngineIncrementalRefresh: {ErrProb: 1},
	})
	s, db := policyFixture(t, Config{
		DeltaBatch: 1 << 20,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: 1, Cooldown: time.Millisecond},
		Injector:   inj,
	}, nil, nil)
	db.SetInjector(inj)

	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Customer", custDelta(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Staleness()
	if st["tmp2"].Status != "ERROR" || st["custla"].Status != "ERROR" {
		t.Fatalf("statuses after persistent failures = %s/%s, want ERROR/ERROR",
			st["tmp2"].Status, st["custla"].Status)
	}

	// Fault gone, cooldown elapsed: the probe recomputes and closes the
	// breaker.
	inj.Disarm()
	time.Sleep(2 * time.Millisecond)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, v := range s.Staleness() {
		if v.Status != "VALID" {
			t.Errorf("%s status = %s after recovery, want VALID", name, v.Status)
		}
	}
}

// TestCheckpointDeclinedObservability: the silent decline branch now
// counts and emits — satellite of the refresh-policy PR.
func TestCheckpointDeclinedObservability(t *testing.T) {
	o := newEventObserver()
	s, db := policyFixture(t, Config{
		DeltaBatch: 1 << 20,
		Snapshots:  testStore(t),
		Journal:    engine.NewMemJournal(),
		Obs:        o,
	}, nil, nil)
	div, _ := deltaPair(1)
	if err := db.InsertDelta("Division", div); err != nil {
		t.Fatal(err)
	}
	res, err := s.Checkpoint()
	if err != nil || res != nil {
		t.Fatalf("mid-epoch checkpoint = (%v, %v), want (nil, nil)", res, err)
	}
	if counters, _ := o.reg.Snapshot(); counters[obs.CtrServeCheckpointDeclined] != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrServeCheckpointDeclined, counters[obs.CtrServeCheckpointDeclined])
	}
	evs := o.find(obs.EvSnapshotCheckpoint, "declined")
	if len(evs) != 1 {
		t.Fatalf("declined checkpoint events = %d, want 1", len(evs))
	}
	if evs[0].attrs["reason"] != "unlanded deltas" || evs[0].attrs["declines"] != int64(1) {
		t.Errorf("declined event attrs = %+v", evs[0].attrs)
	}
}

// TestAdvisorFlagsSLOViolators: advice lists the views whose SLOs are
// breached at advice time.
func TestAdvisorFlagsSLOViolators(t *testing.T) {
	s, _ := policyFixture(t, Config{DeltaBatch: 1 << 20},
		map[string]RefreshPolicy{"tmp2": ManualPolicy(), "custla": OnCommitPolicy()},
		map[string]FreshnessSLO{"tmp2": {MaxLag: time.Nanosecond}})
	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	st := s.Staleness()
	if !st["tmp2"].SLOViolated {
		t.Fatalf("tmp2 should be violating its nanosecond SLO: %+v", st["tmp2"])
	}
	var violators []string
	for name, v := range st {
		if v.SLOViolated {
			violators = append(violators, name)
		}
	}
	if len(violators) != 1 || violators[0] != "tmp2" {
		t.Errorf("violators = %v, want [tmp2]", violators)
	}
}

// TestClosedPolicyAPIs: the policy surface answers ErrClosed after Close.
func TestClosedPolicyAPIs(t *testing.T) {
	s, _ := policyFixture(t, Config{DeltaBatch: 1 << 20}, nil, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshView("tmp2"); !errors.Is(err, ErrClosed) {
		t.Errorf("RefreshView after Close = %v, want ErrClosed", err)
	}
	if err := s.RefreshAllViews(); !errors.Is(err, ErrClosed) {
		t.Errorf("RefreshAllViews after Close = %v, want ErrClosed", err)
	}
	if err := s.StreamIngest("Division"); !errors.Is(err, ErrClosed) && err != nil {
		// Zero rows short-circuits; a non-nil error must be ErrClosed.
		t.Errorf("StreamIngest after Close = %v", err)
	}
}
