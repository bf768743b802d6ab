package serve

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

// fastRetry keeps chaos tests quick: two attempts, microsecond backoff.
var fastRetry = RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}

// rowsFingerprint renders a table's rows as sorted strings, for
// order-insensitive bit-for-bit comparison.
func rowsFingerprint(t *engine.Table) []string {
	out := make([]string, 0, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		tup := t.Row(i)
		parts := make([]string, len(tup.Values))
		for j, v := range tup.Values {
			parts[j] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBreakerDegradesAndRecovers drives the full circuit-breaker state
// machine deterministically: persistent refresh failures leave the view
// lagging, trip the breaker at the threshold, degrade queries to base
// relations (bit-for-bit equal to a direct execution), and a half-open
// probe after disarming recovers the view.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	inj := fault.New(1, fault.Plan{
		fault.SiteEngineRefresh:            {ErrProb: 1},
		fault.SiteEngineIncrementalRefresh: {ErrProb: 1},
	})
	s, db := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Injector:   inj,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: 2, Cooldown: time.Nanosecond},
	})
	db.SetInjector(inj)
	ctx := context.Background()

	r0, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	baseRows := r0.Table.NumRows()

	// Epoch 1: the delta lands in the base tables, but tmp2's incremental
	// refresh persistently fails (falling back) and so does the recompute —
	// one strike, breaker still closed, view now lagging.
	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("an epoch with per-view failures should still complete: %v", err)
	}
	h := s.Health()["tmp2"]
	if h.State != BreakerClosed || h.ConsecutiveFailures != 1 || h.LagRows != 2 {
		t.Fatalf("after one failed refresh: %+v, want closed/1 failure/2 lag rows", h)
	}
	r1, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Degraded {
		t.Fatal("breaker closed and no staleness bound: query should still use the (stale) view")
	}
	if r1.Table.NumRows() != baseRows {
		t.Fatalf("stale view should still show %d rows, got %d", baseRows, r1.Table.NumRows())
	}

	// Epoch 2: the lagging view is retried and fails again — second strike
	// trips the breaker; queries degrade to base relations and are fresh.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	h = s.Health()["tmp2"]
	if h.State != BreakerOpen || !h.Degrading {
		t.Fatalf("after the threshold strike: %+v, want an open, degrading breaker", h)
	}
	if s.Health()["custla"].State != BreakerClosed {
		t.Fatal("custla was never touched and must stay healthy")
	}
	r2, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Degraded {
		t.Fatal("open breaker: query should be answered from base relations")
	}
	direct, err := db.Execute(s.queries["QLA"].spec.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rowsFingerprint(r2.Table), rowsFingerprint(direct.Table)) {
		t.Fatal("degraded answer differs from a direct base-relation execution")
	}
	if r2.Table.NumRows() != baseRows+1 {
		t.Fatalf("degraded answer should be fresh: %d rows, want %d", r2.Table.NumRows(), baseRows+1)
	}

	st := s.Stats()
	if st.BreakerTrips < 1 || st.DegradedQueries < 1 || st.IncrementalFallbacks != 1 ||
		st.Retries < 1 || st.RefreshFailures < 2 {
		t.Fatalf("fault stats not recorded: %+v", st)
	}

	// Recovery: disarm, flush — cooldown (1ns) has elapsed, so the breaker
	// half-opens, the probe recompute succeeds, and the breaker closes.
	inj.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	h = s.Health()["tmp2"]
	if h.State != BreakerClosed || h.LagRows != 0 || h.ConsecutiveFailures != 0 || h.LastError != "" {
		t.Fatalf("after the half-open probe: %+v, want a closed, caught-up breaker", h)
	}
	r3, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Degraded {
		t.Fatal("recovered view should serve queries again")
	}
	if r3.Table.NumRows() != baseRows+1 {
		t.Fatalf("recovered view has %d rows, want %d", r3.Table.NumRows(), baseRows+1)
	}
}

// TestStalenessBoundDegrades: with a staleness bound set, a view whose lag
// exceeds the bound degrades queries even while its breaker is closed — no
// result is ever served from a view lagging beyond the bound.
func TestStalenessBoundDegrades(t *testing.T) {
	inj := fault.New(1, fault.Plan{
		fault.SiteEngineRefresh:            {ErrProb: 1},
		fault.SiteEngineIncrementalRefresh: {ErrProb: 1},
	})
	s, db := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Injector:   inj,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: 100, Cooldown: time.Hour, StalenessBound: 1},
	})
	db.SetInjector(inj)
	ctx := context.Background()

	r0, err := s.Query(ctx, "QLA")
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
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	h := s.Health()["tmp2"]
	if h.State != BreakerClosed || h.LagRows != 2 || !h.Degrading {
		t.Fatalf("lag 2 > bound 1 must degrade with a closed breaker: %+v", h)
	}
	for i := 0; i < 3; i++ {
		r, err := s.Query(ctx, "QLA")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Degraded {
			t.Fatal("every query past the staleness bound must be degraded")
		}
		if r.Table.NumRows() != r0.Table.NumRows()+1 {
			t.Fatalf("degraded result not fresh: %d rows, want %d", r.Table.NumRows(), r0.Table.NumRows()+1)
		}
	}

	inj.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health()["tmp2"]; h.Degrading || h.LagRows != 0 {
		t.Fatalf("caught-up view should serve again: %+v", h)
	}
	if r, err := s.Query(ctx, "QLA"); err != nil || r.Degraded {
		t.Fatalf("recovered query: err=%v degraded=%v", err, r.Degraded)
	}
}

// TestWorkerPanicRecovery: an injected panic in an execution is answered as
// an error and frees its slot, so the router keeps its full capacity.
func TestWorkerPanicRecovery(t *testing.T) {
	inj := fault.New(1, fault.Plan{fault.SiteServeWorker: {PanicProb: 1}})
	s, _ := serveFixture(t, Config{Workers: 2, DeltaBatch: 1 << 20, Injector: inj})
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		_, err := s.Query(ctx, "QLA")
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("query %d: err = %v, want a recovered-panic error", i, err)
		}
	}
	inj.Disarm()
	// Both slots must be free again to answer this.
	if _, err := s.Query(ctx, "QLA"); err != nil {
		t.Fatalf("pool did not survive the panics: %v", err)
	}
	if got := s.Stats().PanicsRecovered; got != 4 {
		t.Errorf("panics recovered = %d, want 4", got)
	}
}

// delayTimes records when each injected latency spike began. The injector
// emits the event just before it sleeps, inside the execution's slot.
type delayTimes struct {
	*eventObserver
	mu sync.Mutex
	at []time.Time
}

func (o *delayTimes) Event(kind obs.EventKind, attrs ...obs.Attr) {
	if kind != obs.EvFault {
		return
	}
	for _, a := range attrs {
		if a.Key == "kind" && a.Value == "delay" {
			o.mu.Lock()
			o.at = append(o.at, time.Now())
			o.mu.Unlock()
		}
	}
}

// TestAdmissionBoundsExecutions: many more callers than slots, each miss
// held in the engine by an injected delay, never run more than Workers
// executions at once. Every execution holds its slot from its delay's start
// for at least the delay, so with W slots any W+1 delays, in start order,
// span at least one delay. Four injected panics first leave every slot free:
// the full capacity serves the burst.
func TestAdmissionBoundsExecutions(t *testing.T) {
	const workers, callers, delay = 3, 24, 5 * time.Millisecond
	inj := fault.New(1, fault.Plan{fault.SiteServeWorker: {PanicProb: 1}})
	rec := &delayTimes{eventObserver: newEventObserver()}
	inj.SetObserver(rec)
	s, db := serveFixture(t, Config{Workers: workers, QueueDepth: 4, CacheCapacity: -1, DeltaBatch: 1 << 20, Injector: inj})
	db.SetInjector(inj)
	ctx := context.Background()

	// A slot a panic kept would leave a later query waiting: the deadline
	// turns that into a rejection instead of a hang.
	short, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := s.Query(short, "QLA"); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("query %d: err = %v, want a recovered-panic error", i, err)
		}
	}
	if n := len(s.slots); n != 0 {
		t.Fatalf("%d slots still taken after the panics, want 0", n)
	}

	inj.Disarm()
	inj.SetRule(fault.SiteEngineExecute, fault.Rule{SlowProb: 1, Delay: delay})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if _, err := s.Query(ctx, q); err != nil {
				errs <- err
			}
		}([]string{"QLA", "QCust"}[i%2])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a caller of the burst failed: %v", err)
	}

	rec.mu.Lock()
	at := append([]time.Time(nil), rec.at...)
	rec.mu.Unlock()
	if len(at) != callers {
		t.Fatalf("%d executions were delayed, want %d", len(at), callers)
	}
	sort.Slice(at, func(i, j int) bool { return at[i].Before(at[j]) })
	for i := 0; i+workers < len(at); i++ {
		if gap := at[i+workers].Sub(at[i]); gap < delay {
			t.Fatalf("executions %d..%d started within %v: more than %d ran at once", i, i+workers, gap, workers)
		}
	}
	if got := s.Stats().PanicsRecovered; got != 4 {
		t.Errorf("panics recovered = %d, want 4", got)
	}
}

// TestDeadRequestSkipped: a caller whose context is dead by the time it
// holds an execution slot gives the slot back without executing the plan —
// whether the slot was free at once, or the caller waited for it and its
// context ended as the slot freed. Each is rejected once, and no slot leaks.
func TestDeadRequestSkipped(t *testing.T) {
	db := paperServeDB(t)
	plan := laCustomerPlan(t, db)
	s, err := newServer(Config{DB: db, Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	readsBefore := db.Counter.Reads()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, plan); !errors.Is(err, ErrRejected) {
		t.Fatalf("submit with a dead context: %v, want ErrRejected", err)
	}

	release := holdSlots(s)
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, plan)
		done <- err
	}()
	waitForWaiters(t, s, 1)
	cancel()
	release()
	if err := <-done; !errors.Is(err, ErrRejected) {
		t.Fatalf("waiter cancelled as a slot freed: %v, want ErrRejected", err)
	}

	if got := db.Counter.Reads(); got != readsBefore {
		t.Errorf("dead request was executed anyway: %d block reads", got-readsBefore)
	}
	if got := s.Stats().Rejected; got != 2 {
		t.Errorf("rejected = %d, want 2 (once per caller)", got)
	}
	if n := len(s.slots); n != 0 {
		t.Errorf("%d slots still taken after the rejections, want 0", n)
	}
}

// TestJournalReplayNoLostDeltas simulates a crash after one landed epoch and
// before the next: a second server built over the same journal and an
// identical freshly built warehouse (watermark 0) replays every batch —
// landed by the dead server or not — and after one epoch no delta is lost.
func TestJournalReplayNoLostDeltas(t *testing.T) {
	j := engine.NewMemJournal()
	ctx := context.Background()

	s1, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})
	r0, err := s1.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	baseRows := r0.Table.NumRows()
	const deltas = 3
	for i := int64(1); i <= 2*deltas; i++ {
		div, prod := deltaPair(i)
		if err := s1.Ingest("Division", div); err != nil {
			t.Fatal(err)
		}
		if err := s1.Ingest("Product", prod); err != nil {
			t.Fatal(err)
		}
		if i == deltas {
			// The first half lands before the crash.
			if err := s1.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash before the second epoch: the landed rows live only in the dead
	// server's warehouse, the buffered ones only in its buffer; the journal
	// holds all of them.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if all, _ := j.RecordsSince(0); len(all) != 4*deltas {
		t.Fatalf("journal holds %d batches, want %d", len(all), 4*deltas)
	}

	// A fresh, identically-seeded warehouse plus the same journal: New
	// replays every batch.
	s2, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})
	if got := s2.Stats().ReplayedDeltaRows; got != 4*deltas {
		t.Fatalf("replayed rows = %d, want %d", got, 4*deltas)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	r1, err := s2.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table.NumRows() != baseRows+2*deltas {
		t.Fatalf("after replay+flush QLA has %d rows, want %d — deltas were lost", r1.Table.NumRows(), baseRows+2*deltas)
	}
	if pend := unlandedRecords(t, s2, j); len(pend) != 0 {
		t.Fatalf("journal still holds %d unlanded batches after the epoch landed", len(pend))
	}
}

// TestCloseIdempotentAndRacy: Close is safe to call twice concurrently
// while queries and ingests are in flight; everything settles to ErrClosed
// with no goroutine left blocked.
func TestCloseIdempotentAndRacy(t *testing.T) {
	s, _ := serveFixture(t, Config{Workers: 2, DeltaBatch: 1 << 20})
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Query(ctx, "QLA")
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			div, _ := deltaPair(i)
			if err := s.Ingest("Division", div); errors.Is(err, ErrClosed) {
				return
			}
		}
	}()

	time.Sleep(5 * time.Millisecond)
	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	closers.Wait()
	close(stop)
	wg.Wait()

	if _, err := s.Submit(ctx, s.queries["QLA"].spec.Plan); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after close: %v, want ErrClosed", err)
	}
	lateDiv, _ := deltaPair(999)
	if err := s.Ingest("Division", lateDiv); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("third Close: %v", err)
	}
}

// TestChaosRandomizedRecovery is the randomized -race chaos suite: random
// refresh failures, worker panics, latency spikes, and occasional delta-
// application failures while clients query and deltas stream in — then the
// faults stop and the warehouse must converge to exactly the ingested
// state: no delta lost, views equal to a direct recompute, breakers closed,
// journal drained.
func TestChaosRandomizedRecovery(t *testing.T) {
	inj := fault.New(42, fault.Plan{
		fault.SiteEngineRefresh:            {ErrProb: 0.3},
		fault.SiteEngineIncrementalRefresh: {ErrProb: 0.3},
		fault.SiteEngineApplyDeltas:        {ErrProb: 0.2},
		fault.SiteEngineExecute:            {SlowProb: 0.1, Delay: 100 * time.Microsecond},
		fault.SiteServeWorker:              {PanicProb: 0.05},
	})
	j := engine.NewMemJournal()
	s, db := serveFixture(t, Config{
		Workers:    4,
		DeltaBatch: 4,
		Injector:   inj,
		Journal:    j,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: 2, Cooldown: time.Millisecond, StalenessBound: 8},
	})
	db.SetInjector(inj)
	ctx := context.Background()

	divBefore, err := db.Table("Division")
	if err != nil {
		t.Fatal(err)
	}
	prodBefore, err := db.Table("Product")
	if err != nil {
		t.Fatal(err)
	}
	divRows0, prodRows0 := divBefore.NumRows(), prodBefore.NumRows()

	tolerable := func(err error) bool {
		return err == nil ||
			errors.Is(err, fault.ErrInjected) ||
			strings.Contains(err.Error(), "panic") ||
			strings.Contains(err.Error(), "injected")
	}

	const clients = 6
	const perClient = 30
	const deltas = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			names := []string{"QLA", "QCust"}
			for i := 0; i < perClient; i++ {
				if _, err := s.Query(ctx, names[(c+i)%2]); !tolerable(err) {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < deltas; i++ {
			div, prod := deltaPair(100 + i)
			if err := s.Ingest("Division", div); err != nil {
				errs <- err
				return
			}
			if err := s.Ingest("Product", prod); err != nil {
				errs <- err
				return
			}
			if i%5 == 4 {
				if err := s.Flush(); !tolerable(err) {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Faults off; flush until the warehouse is healthy and caught up.
	inj.Disarm()
	healthy := false
	for i := 0; i < 20 && !healthy; i++ {
		if err := s.Flush(); err != nil {
			t.Fatalf("post-chaos flush: %v", err)
		}
		healthy = true
		for _, h := range s.Health() {
			if h.State != BreakerClosed || h.LagRows != 0 {
				healthy = false
			}
		}
		for _, st := range s.Staleness() {
			if st.PendingRows != 0 {
				healthy = false
			}
		}
	}
	if !healthy {
		t.Fatalf("warehouse never converged: health=%+v staleness=%+v", s.Health(), s.Staleness())
	}

	// Zero lost deltas: the base tables hold exactly the initial rows plus
	// every ingested one.
	divAfter, err := db.Table("Division")
	if err != nil {
		t.Fatal(err)
	}
	prodAfter, err := db.Table("Product")
	if err != nil {
		t.Fatal(err)
	}
	if divAfter.NumRows() != divRows0+deltas || prodAfter.NumRows() != prodRows0+deltas {
		t.Fatalf("lost deltas: Division %d→%d (want +%d), Product %d→%d (want +%d)",
			divRows0, divAfter.NumRows(), deltas, prodRows0, prodAfter.NumRows(), deltas)
	}
	if pend := unlandedRecords(t, s, j); len(pend) != 0 {
		t.Fatalf("journal still holds %d unlanded batches after convergence", len(pend))
	}

	// Views equal a from-scratch execution of their plans, bit for bit.
	for _, q := range []string{"QLA", "QCust"} {
		res, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatalf("%s still degraded after convergence", q)
		}
		direct, err := db.Execute(s.queries[q].spec.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rowsFingerprint(res.Table), rowsFingerprint(direct.Table)) {
			t.Fatalf("%s diverged from a direct recompute after chaos", q)
		}
	}
	if st := s.Stats(); st.DeltaRows != 2*deltas {
		t.Errorf("ingested-row accounting drifted: %d, want %d", st.DeltaRows, 2*deltas)
	}
}
