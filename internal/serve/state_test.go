package serve

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/costaudit"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/repro"
)

// The reader-facing half of the publication cage (publish_test.go holds the
// maintainer's): what a reader is handed — the epoch number, the rows, the
// trace of the epoch — is one state, and reading it takes no maintainer lock.

// missJoins keeps, of everything a server emits, one (epoch, pipeline trace)
// pair per sampled miss that joined a pipeline trace.
type missJoins struct {
	*eventObserver
	mu    sync.Mutex
	pairs [][2]uint64
}

func (o *missJoins) Event(kind obs.EventKind, attrs ...obs.Attr) {
	if kind != obs.EvServeQuery {
		return
	}
	var stage string
	var epoch, ptid int64
	for _, a := range attrs {
		switch a.Key {
		case "stage":
			stage, _ = a.Value.(string)
		case "epoch":
			epoch, _ = a.Value.(int64)
		case "pipeline_trace_id":
			ptid, _ = a.Value.(int64)
		}
	}
	if stage == "execute" && ptid != 0 {
		o.mu.Lock()
		o.pairs = append(o.pairs, [2]uint64{uint64(epoch), uint64(ptid)})
		o.mu.Unlock()
	}
}

// opGate is an engine observer that stops the first metered operator after
// it is armed: the operator announces itself on entered and waits for
// proceed.
type opGate struct {
	*eventObserver
	armed            atomic.Bool
	entered, proceed chan struct{}
}

func (g *opGate) Event(kind obs.EventKind, _ ...obs.Attr) {
	if kind == obs.EvEngineOp && g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.proceed
	}
}

// TestResultEpochNamesItsRows: a result labelled epoch e holds the rows of
// epoch e. Every flush here adds exactly one row to tmp2, so QLA under epoch
// e has base + e rows — whether the answer was executed or came from the
// cache.
func TestResultEpochNamesItsRows(t *testing.T) {
	ctx := context.Background()

	// The epoch is stopped after the engine's publication, at the registry
	// lock it settles under before it publishes (reads never take it): the
	// engine has published the new rows, the serving epoch has not moved.
	// The test takes that lock while the epoch's first metered operator is
	// held — the epoch has planned, and takes the lock next to settle.
	t.Run("settle held", func(t *testing.T) {
		s, db := serveFixture(t, Config{DeltaBatch: 1 << 20, CacheCapacity: -1})
		gate := &opGate{eventObserver: newEventObserver(), entered: make(chan struct{}), proceed: make(chan struct{})}
		db.SetObserver(gate)
		r0, err := s.Query(ctx, "QLA")
		if err != nil {
			t.Fatal(err)
		}
		base := r0.Table.NumRows()
		ask := func(when string, wantEpoch uint64) {
			t.Helper()
			r, err := s.Query(ctx, "QLA")
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d rows labelled epoch %d", when, r.Table.NumRows(), r.Epoch)
			if r.Epoch != wantEpoch || r.Table.NumRows() != base+int(r.Epoch) {
				t.Errorf("%s: %d rows labelled epoch %d, want %d rows labelled %d",
					when, r.Table.NumRows(), r.Epoch, base+int(wantEpoch), wantEpoch)
			}
		}
		ask("before the epoch", 0)

		div, prod := deltaPair(1)
		if err := s.IngestBatch([]engine.DeltaRecord{
			{Table: "Division", Rows: [][]algebra.Value{div}},
			{Table: "Product", Rows: [][]algebra.Value{prod}},
		}); err != nil {
			t.Fatal(err)
		}
		published := db.Relations()
		gate.armed.Store(true)
		done := make(chan error, 1)
		go func() { done <- s.Flush() }()
		<-gate.entered
		s.sched.mu.Lock()
		close(gate.proceed)
		for deadline := time.Now().Add(10 * time.Second); db.Relations() == published; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				s.sched.mu.Unlock()
				t.Fatal("the epoch never published in the engine")
			}
		}
		ask("while the settle is held", 0)
		s.sched.mu.Unlock()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		ask("after the publication", 1)
	})

	// Readers beside flushes over a file journal.
	for _, tc := range []struct {
		name     string
		capacity int
	}{{"racing flushes, cache on", 0}, {"racing flushes, cache off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			const flushes, readers = 200, 2
			fj, err := engine.OpenFileJournal(filepath.Join(t.TempDir(), "deltas.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer fj.Close()
			events := &missJoins{eventObserver: newEventObserver()}
			s, _ := serveFixture(t, Config{
				DeltaBatch: 1 << 20, CacheCapacity: tc.capacity, Journal: fj,
				TraceSampleEvery: 3, Obs: events,
			})
			r0, err := s.Query(ctx, "QLA")
			if err != nil {
				t.Fatal(err)
			}
			base := r0.Table.NumRows()

			var stop atomic.Bool
			var answered, hits, torn atomic.Int64
			var firstTorn atomic.Pointer[Result]
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						res, err := s.Query(ctx, "QLA")
						if err != nil {
							t.Error(err)
							return
						}
						if res.Cached {
							hits.Add(1)
						}
						if res.Table.NumRows() != base+int(res.Epoch) {
							torn.Add(1)
							firstTorn.CompareAndSwap(nil, res)
						}
						answered.Add(1)
					}
				}()
			}
			// traceOf is the pipeline trace of each landed epoch, read off tmp2's
			// lineage (every epoch refreshes it).
			traceOf := make(map[uint64]uint64, flushes)
			for i := int64(0); i < flushes && !t.Failed(); i++ {
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
				s.sched.mu.Lock()
				lineage := s.sched.views["tmp2"].lineage
				last := lineage[len(lineage)-1]
				s.sched.mu.Unlock()
				traceOf[last.Epoch] = last.TraceID
				for target := answered.Load() + 4; answered.Load() < target && !t.Failed(); {
					runtime.Gosched()
				}
			}
			stop.Store(true)
			wg.Wait()

			if got := s.Epoch(); got != flushes {
				t.Fatalf("epoch %d after %d flushes", got, flushes)
			}
			if n := torn.Load(); n > 0 {
				r := firstTorn.Load()
				t.Errorf("%d of %d results torn (%d cache hits); the first: %d rows labelled epoch %d (cached %v), epoch %d has %d",
					n, answered.Load(), hits.Load(), r.Table.NumRows(), r.Epoch, r.Cached, r.Epoch, base+int(r.Epoch))
			}
			if tc.capacity >= 0 && hits.Load() == 0 {
				t.Error("no cache hit was checked")
			}
			// A sampled miss that names a pipeline trace names the trace of the
			// epoch it reports.
			for _, pair := range events.pairs {
				if epoch, ptid := pair[0], pair[1]; ptid != traceOf[epoch] {
					t.Errorf("a query answered under epoch %d joined pipeline trace %d, the epoch's is %d", epoch, ptid, traceOf[epoch])
				}
			}
			t.Logf("%d answers, %d cache hits, %d torn, %d sampled misses joined to their epoch's trace",
				answered.Load(), hits.Load(), torn.Load(), len(events.pairs))
		})
	}
}

// TestMissTakesNoSchedulerLock: a cache miss over a healthy view reads
// nothing the scheduler's registry lock guards, so it completes while the
// test holds that lock (the sibling of TestMissDoesNotWaitOnJournal).
func TestMissTakesNoSchedulerLock(t *testing.T) {
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, CacheCapacity: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.sched.mu.Lock()
	res, err := s.Query(ctx, "QLA")
	s.sched.mu.Unlock()
	if err != nil {
		t.Fatalf("a miss with the scheduler lock held: %v", err)
	}
	if res.Cached || res.Degraded || res.Table.NumRows() == 0 {
		t.Errorf("cached %v, degraded %v, %d rows: want an executed, view-based answer",
			res.Cached, res.Degraded, res.Table.NumRows())
	}
}

// TestAdviseTakesNoMaintenanceLock: what the maintainer owns, readers get as
// published values, and the advisor only reads. With the test holding the
// maintenance lock — a stand-in for an epoch carrying a checkpoint — every
// read-side entry point returns.
func TestAdviseTakesNoMaintenanceLock(t *testing.T) {
	db, err := datagen.PaperDB(10, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, model, err := repro.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	var queries []QuerySpec
	for name, root := range m.Roots {
		queries = append(queries, QuerySpec{Name: name, Plan: root.Op, Frequency: m.Fq[name]})
	}
	s, err := New(Config{
		DB: db, Queries: queries, MVPP: m, Model: model, CacheCapacity: -1,
		Audit: costaudit.NewLedger(costaudit.Config{}), Snapshots: testStore(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	returned := make(chan string, 7) // one send per call below: none blocks
	go func() {
		defer close(returned)
		for _, call := range []struct {
			name string
			do   func() error
		}{
			{"Advise", func() error { _, err := s.Advise(); return err }},
			{"AdviseCalibrated", func() error { _, err := s.AdviseCalibrated(); return err }},
			{"SnapshotStats", func() error { s.SnapshotStats(); return nil }},
			{"LastRecalibration", func() error { s.LastRecalibration(); return nil }},
			{"Explain", func() error { _, err := s.Explain("Q1"); return err }},
			{"Staleness", func() error { s.Staleness(); return nil }},
			{"Query", func() error { _, err := s.Query(context.Background(), "Q1"); return err }},
		} {
			if err := call.do(); err != nil {
				t.Errorf("%s with the maintenance lock held: %v", call.name, err)
			}
			returned <- call.name
		}
	}()
	last, deadline := "nothing", time.After(5*time.Second)
	for {
		select {
		case name, more := <-returned:
			if !more {
				return
			}
			last = name
		case <-deadline:
			t.Fatalf("with the maintenance lock held, the call after %s did not return", last)
		}
	}
}

// TestApplyAdviceKeepsViewDebt: an advice swap does not touch a kept view's
// stored rows, so it must not touch what the registry knows about them
// either: refresh debt, breaker position, SLO history and lineage survive the
// swap, the view's queries stay degraded, and a checkpoint keeps leaving it
// out.
func TestApplyAdviceKeepsViewDebt(t *testing.T) {
	db, err := datagen.PaperDB(10, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, model, err := repro.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	var queries []QuerySpec
	for name, root := range m.Roots {
		queries = append(queries, QuerySpec{Name: name, Plan: root.Op, Frequency: m.Fq[name]})
	}
	inj := fault.New(1, nil)
	db.SetInjector(inj)
	s, err := New(Config{
		DB: db, Queries: queries, MVPP: m, Model: model,
		CacheCapacity: -1, DeltaBatch: 1 << 20, Retry: fastRetry, Injector: inj,
		DefaultPolicy:       ManualPolicy(),
		DefaultSLO:          FreshnessSLO{MaxLagEpochs: 1},
		Breaker:             BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour},
		Snapshots:           testStore(t),
		SnapshotEveryEpochs: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// The design's views, all manual; one forced refresh gives each a lineage
	// entry.
	advice, err := s.adviseWith(m.Fq)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyAdvice(advice); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshAllViews(); err != nil {
		t.Fatal(err)
	}
	// Five Division rows land in two epochs: every view over Division is two
	// epochs and five rows behind, past its SLO.
	for _, rows := range [][][]algebra.Value{divRows(1, 3), divRows(4, 2)} {
		if err := s.Ingest("Division", rows...); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var lagging, open []string
	for name, st := range s.Staleness() {
		if st.LagRows > 0 {
			lagging = append(lagging, name)
		}
	}
	sort.Strings(lagging)
	if len(lagging) == 0 || len(lagging) == len(s.Views()) {
		t.Fatalf("views %v, lagging %v: the test needs a lagging view and a caught-up one", s.Views(), lagging)
	}
	// A caught-up view's forced refresh fails: its breaker opens.
	for _, name := range s.Views() {
		if s.Staleness()[name].LagRows == 0 {
			open = append(open, name)
			break
		}
	}
	inj.SetRule(fault.SiteEngineRefresh, fault.Rule{ErrProb: 1})
	if err := s.RefreshView(open[0]); err != nil {
		t.Fatal(err)
	}
	inj.Disarm()

	degradedQueries := func() []string {
		var out []string
		for _, q := range queries {
			res, err := s.Query(ctx, q.Name)
			if err != nil {
				t.Fatal(err)
			}
			if res.Degraded {
				out = append(out, q.Name)
			}
		}
		sort.Strings(out)
		return out
	}
	// debt is what the swap must leave alone, per view.
	type debt struct {
		LagRows, Failures, StaleEpochs int
		Status, Breaker, LastError     string
		SLOViolated                    bool
		SLOViolations                  int64
		Lineage                        []LineageEntry
	}
	debts := func() map[string]debt {
		out := make(map[string]debt)
		lineage := s.Lineage()
		for name, st := range s.Staleness() {
			out[name] = debt{
				LagRows: st.LagRows, Failures: st.ConsecutiveFailures, StaleEpochs: st.StaleEpochs,
				Status: st.Status, Breaker: st.Breaker, LastError: st.LastError,
				SLOViolated: st.SLOViolated, SLOViolations: st.SLOViolations,
				Lineage: lineage[name].Entries,
			}
		}
		return out
	}
	before, degradedBefore := debts(), degradedQueries()
	for _, name := range lagging {
		if d := before[name]; d.LagRows != 5 || d.Status != "STALE" || d.SLOViolations != 1 || len(d.Lineage) == 0 {
			t.Fatalf("%s before the swap: %+v, want 5 lag rows, STALE, one SLO violation, a lineage", name, d)
		}
	}
	if d := before[open[0]]; d.Breaker != "open" || d.Status != "ERROR" {
		t.Fatalf("%s before the swap: %+v, want an open breaker", open[0], d)
	}
	if len(degradedBefore) == 0 {
		t.Fatal("no query is degraded before the swap")
	}

	// The same frequencies select the same views: the swap keeps all of them.
	again, err := s.adviseWith(m.Fq)
	if err != nil {
		t.Fatal(err)
	}
	if again.Changed() || len(again.Keep) != len(before) {
		t.Fatalf("the second advice keeps %v, adds %v, drops %v: want all of %v kept", again.Keep, again.Add, again.Drop, s.Views())
	}
	if err := s.ApplyAdvice(again); err != nil {
		t.Fatal(err)
	}

	after := debts()
	for name, want := range before {
		if got := after[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s after a swap that kept it:\n  %+v\nbefore:\n  %+v", name, got, want)
		}
	}
	if got := degradedQueries(); !reflect.DeepEqual(got, degradedBefore) {
		t.Errorf("degraded queries after the swap %v, before %v", got, degradedBefore)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	persisted := s.SnapshotStats().Views
	for _, name := range append(lagging, open...) {
		if _, ok := persisted[name]; ok {
			t.Errorf("the checkpoint after the swap persisted %s (%+v) as current", name, after[name])
		}
	}
	if len(persisted) != len(before)-len(lagging)-len(open) {
		t.Errorf("the checkpoint persisted %d views, want the %d healthy ones", len(persisted), len(before)-len(lagging)-len(open))
	}
}
