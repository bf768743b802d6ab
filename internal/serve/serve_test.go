package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
)

// paperServeDB is the paper's five relations at 1% scale.
func paperServeDB(t testing.TB) *engine.DB {
	t.Helper()
	db, err := datagen.PaperDB(10, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// laJoinPlan is Product ⋈ σ(city='LA')(Division) — the paper's tmp2.
func laJoinPlan(t testing.TB, db *engine.DB) algebra.Node {
	t.Helper()
	pd, err := db.Table("Product")
	if err != nil {
		t.Fatal(err)
	}
	div, err := db.Table("Division")
	if err != nil {
		t.Fatal(err)
	}
	sel := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	return algebra.NewJoin(algebra.NewScan("Product", pd.Schema), sel,
		[]algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Division", "Did")}})
}

// laCustomerPlan is σ(city='LA')(Customer) — touches only Customer.
func laCustomerPlan(t testing.TB, db *engine.DB) algebra.Node {
	t.Helper()
	cust, err := db.Table("Customer")
	if err != nil {
		t.Fatal(err)
	}
	return algebra.NewSelect(algebra.NewScan("Customer", cust.Schema),
		algebra.Eq(algebra.Ref("Customer", "city"), algebra.StringVal("LA")))
}

// serveFixture materializes tmp2 (incremental) and custla (recompute) and
// wires a server over them.
func serveFixture(t testing.TB, cfg Config) (*Server, *engine.DB) {
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
		{Name: "tmp2", Strategy: core.MaintIncremental},
		{Name: "custla", Strategy: core.MaintRecompute},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, db
}

// deltaPair returns a matching (Division, Product) delta: a new LA division
// and a product in it, so tmp2 gains exactly one row.
func deltaPair(i int64) (div, prod []algebra.Value) {
	div = []algebra.Value{algebra.IntVal(900000 + i), algebra.StringVal("division-Δ"), algebra.StringVal("LA")}
	prod = []algebra.Value{algebra.IntVal(800000 + i), algebra.StringVal("product-Δ"), algebra.IntVal(900000 + i)}
	return div, prod
}

// TestServeCacheHitAndEpochInvalidation: the second identical query is a
// cache hit with zero I/O; a maintenance epoch publishes a state with a cache
// of its own and the next execution sees the new rows — also when a
// straggler that executed on the superseded state finishes after the
// publication.
func TestServeCacheHitAndEpochInvalidation(t *testing.T) {
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20})
	ctx := context.Background()

	r1, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Reads == 0 {
		t.Fatalf("first execution should miss the cache and cost I/O: cached=%v reads=%d", r1.Cached, r1.Reads)
	}
	r2, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Reads != 0 {
		t.Fatalf("second execution should hit the cache for free: cached=%v reads=%d", r2.Cached, r2.Reads)
	}
	if r2.Table != r1.Table {
		t.Error("cache hit returned a different table than was cached")
	}

	superseded := s.state.Load()
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
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d after one flush, want 1", s.Epoch())
	}
	// A result computed on the superseded state lands in that state's cache,
	// where no reader of the served state looks.
	superseded.cache.put(cacheRef{slot: s.queries["QLA"].slot}, r1.Table)
	if got := s.Stats().CacheEntries; got != 0 {
		t.Errorf("the state published by the epoch starts with %d cache entries", got)
	}

	r3, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached || r3.Epoch != 1 {
		t.Errorf("after the epoch: cached=%v under epoch %d, want an execution under epoch 1", r3.Cached, r3.Epoch)
	}
	if want := r1.Table.NumRows() + 1; r3.Table.NumRows() != want {
		t.Errorf("after the delta epoch QLA has %d rows, want %d", r3.Table.NumRows(), want)
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Errorf("stats: hits=%d misses=%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
	if got := st.CacheHitRate(); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("hit rate %g, want 1/3", got)
	}
}

// TestSchedulerStrategyDispatch: an epoch refreshes incremental-strategy
// views by delta propagation and recompute-strategy views by recomputation,
// and — fu-driven — leaves views of untouched relations alone.
func TestSchedulerStrategyDispatch(t *testing.T) {
	s, db := serveFixture(t, Config{DeltaBatch: 1 << 20})
	ctx := context.Background()

	// Epoch 1: only Product/Division change → only tmp2 refreshes, and it
	// refreshes incrementally.
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
	st := s.Stats()
	if st.IncrementalRefreshes != 1 || st.Recomputes != 0 {
		t.Fatalf("epoch 1: incremental=%d recompute=%d, want 1/0", st.IncrementalRefreshes, st.Recomputes)
	}
	stale := s.Staleness()
	if stale["tmp2"].Epoch != 1 {
		t.Errorf("tmp2 refreshed at epoch %d, want 1", stale["tmp2"].Epoch)
	}
	if stale["custla"].Epoch != 0 || stale["custla"].PendingRows != 0 {
		t.Errorf("custla should be untouched: %+v", stale["custla"])
	}

	// Epoch 2: a Customer delta → only custla refreshes, by recomputation.
	if err := s.Ingest("Customer",
		[]algebra.Value{algebra.IntVal(700001), algebra.StringVal("customer-Δ"), algebra.StringVal("LA")}); err != nil {
		t.Fatal(err)
	}
	if got := s.Staleness()["custla"].PendingRows; got != 1 {
		t.Errorf("custla pending rows = %d before the epoch, want 1", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.IncrementalRefreshes != 1 || st.Recomputes != 1 {
		t.Fatalf("epoch 2: incremental=%d recompute=%d, want 1/1", st.IncrementalRefreshes, st.Recomputes)
	}
	if got := s.Staleness()["custla"]; got.Epoch != 2 || got.PendingRows != 0 {
		t.Errorf("custla after its epoch: %+v", got)
	}

	// Both views must equal a from-scratch recompute of their plans.
	for _, q := range []string{"QLA", "QCust"} {
		res, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := db.Execute(s.queries[q].spec.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.NumRows() != direct.Table.NumRows() {
			t.Errorf("%s: served %d rows, direct execution %d", q, res.Table.NumRows(), direct.Table.NumRows())
		}
	}
}

// holdSlots takes every execution slot of s, as that many executing misses
// would, and returns the function that gives them back.
func holdSlots(s *Server) (release func()) {
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	return func() {
		for range cap(s.slots) {
			<-s.slots
		}
	}
}

// waitForWaiters waits until n callers wait for an execution slot.
func waitForWaiters(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.waiting.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers wait for a slot, want %d", s.waiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControl holds every execution slot, so no miss can run. With
// QueueDepth 1 the first caller waits without backpressure; a second finds
// one caller waiting already, counts as backpressured and is rejected when
// its context expires; the first, cancelled while it waits, is rejected too.
// Neither executes: the block counter does not move.
func TestAdmissionControl(t *testing.T) {
	db := paperServeDB(t)
	plan := laCustomerPlan(t, db)
	s, err := newServer(Config{DB: db, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := holdSlots(s)
	defer release()
	readsBefore := db.Counter.Reads()

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	first := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx1, plan)
		first <- err
	}()
	waitForWaiters(t, s, 1)
	if got := s.Stats().QueueDepth; got != 1 {
		t.Errorf("Stats.QueueDepth = %d with one caller waiting, want 1", got)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := s.Submit(ctx2, plan); !errors.Is(err, ErrRejected) {
		t.Fatalf("every slot held + expired context: got %v, want ErrRejected", err)
	}

	cancel1()
	if err := <-first; !errors.Is(err, ErrRejected) {
		t.Fatalf("cancelled waiter: got %v, want ErrRejected", err)
	}

	st := s.Stats()
	if st.Rejected != 2 {
		t.Errorf("rejected = %d, want 2", st.Rejected)
	}
	if st.Backpressured != 1 {
		t.Errorf("backpressured = %d, want 1", st.Backpressured)
	}
	if st.QueueDepth != 0 {
		t.Errorf("Stats.QueueDepth = %d after every waiter left, want 0", st.QueueDepth)
	}
	if got := db.Counter.Reads(); got != readsBefore {
		t.Errorf("a rejected caller executed: %d block reads", got-readsBefore)
	}
}

// TestObservedFrequencies: counts scale so the observed workload has the
// same total volume as the designed one.
func TestObservedFrequencies(t *testing.T) {
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20})
	ctx := context.Background()

	// Nothing observed yet → design-time frequencies.
	obs0 := s.ObservedFrequencies()
	if obs0["QLA"] != 10 || obs0["QCust"] != 5 {
		t.Fatalf("before any query: %v, want the designed frequencies", obs0)
	}

	for i := 0; i < 3; i++ {
		if _, err := s.Query(ctx, "QLA"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query(ctx, "QCust"); err != nil {
		t.Fatal(err)
	}
	got := s.ObservedFrequencies()
	// Designed total 15, observed 3:1 → QLA 11.25, QCust 3.75.
	if math.Abs(got["QLA"]-11.25) > 1e-9 || math.Abs(got["QCust"]-3.75) > 1e-9 {
		t.Errorf("observed frequencies %v, want QLA=11.25 QCust=3.75", got)
	}
	if math.Abs((got["QLA"]+got["QCust"])-15) > 1e-9 {
		t.Errorf("observed total %g, want the designed 15", got["QLA"]+got["QCust"])
	}
}

// TestAdviseRequiresMVPP: the advisor is optional equipment.
func TestAdviseRequiresMVPP(t *testing.T) {
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20})
	if _, err := s.Advise(); err == nil {
		t.Fatal("Advise without an MVPP should error")
	}
}

// TestIngestValidation: unknown tables and malformed rows are rejected at
// the door, not at epoch time.
func TestIngestValidation(t *testing.T) {
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20})
	if err := s.Ingest("Nope", []algebra.Value{algebra.IntVal(1)}); err == nil {
		t.Error("ingest into an unknown table should fail")
	}
	if err := s.Ingest("Customer", []algebra.Value{algebra.IntVal(1)}); err == nil {
		t.Error("ingest of a short row should fail")
	}
}

// TestServeConcurrentClients hammers the server from many client
// goroutines while deltas stream in and epochs fire — the race test for the
// whole serving layer (run under -race).
func TestServeConcurrentClients(t *testing.T) {
	s, db := serveFixture(t, Config{Workers: 4, DeltaBatch: 4})
	ctx := context.Background()

	const clients = 6
	const perClient = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			names := []string{"QLA", "QCust"}
			for i := 0; i < perClient; i++ {
				if _, err := s.Query(ctx, names[(c+i)%2]); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 20; i++ {
			div, prod := deltaPair(i)
			if err := s.Ingest("Division", div); err != nil {
				errs <- err
				return
			}
			if err := s.Ingest("Product", prod); err != nil {
				errs <- err
				return
			}
			if i%5 == 4 {
				if err := s.Flush(); err != nil {
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

	// Settle and verify the maintained views equal a recompute.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"QLA", "QCust"} {
		res, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := db.Execute(s.queries[q].spec.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.NumRows() != direct.Table.NumRows() {
			t.Errorf("%s diverged after concurrent epochs: served %d rows, direct %d",
				q, res.Table.NumRows(), direct.Table.NumRows())
		}
	}
	st := s.Stats()
	if st.Queries < clients*perClient {
		t.Errorf("stats lost queries: %d < %d", st.Queries, clients*perClient)
	}
	if st.Epochs == 0 {
		t.Error("no maintenance epoch ran despite batched ingest")
	}
}

// TestResultCacheLRU: capacity bounds the cache and eviction spares the
// recently used entry; negative capacity disables caching entirely.
func TestResultCacheLRU(t *testing.T) {
	mk := func(name string) *engine.Table {
		return engine.NewTable(name, algebra.NewSchema(algebra.Column{Relation: "t", Name: "a", Type: algebra.TypeInt}), 10)
	}
	a, b, c := cacheRef{slot: 0}, cacheRef{slot: -1, key: "b"}, cacheRef{slot: 1}
	cache := newResultCache(2, 2)
	cache.put(a, mk("a"))
	cache.put(b, mk("b"))
	if _, ok := cache.get(a); !ok { // touch a → b is now the victim
		t.Fatal("a should be cached")
	}
	cache.put(c, mk("c"))
	if _, ok := cache.get(b); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := cache.get(a); !ok {
		t.Error("a should have survived (recently used)")
	}

	off := newResultCache(-1, 1)
	x := cacheRef{slot: -1, key: "x"}
	off.put(x, mk("x"))
	off.put(a, mk("a"))
	for _, ref := range []cacheRef{x, a} {
		if _, ok := off.get(ref); ok {
			t.Error("disabled cache returned a hit")
		}
	}
	if off.len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

// TestSubmitAdHocSubsumption: an ad-hoc plan not in the workload is
// answered through predicate subsumption over a stored view.
func TestSubmitAdHocSubsumption(t *testing.T) {
	s, db := serveFixture(t, Config{DeltaBatch: 1 << 20})
	ctx := context.Background()

	cust, err := db.Table("Customer")
	if err != nil {
		t.Fatal(err)
	}
	// σ(city='LA' ∧ Cid < 50)(Customer) ⇒ answerable from custla.
	adhoc := algebra.NewSelect(algebra.NewScan("Customer", cust.Schema),
		algebra.NewAnd(
			algebra.Eq(algebra.Ref("Customer", "city"), algebra.StringVal("LA")),
			algebra.Compare(
				algebra.ColOperand(algebra.Ref("Customer", "Cid")),
				algebra.OpLt,
				algebra.LitOperand(algebra.IntVal(50)))))
	res, err := s.Submit(ctx, adhoc)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Execute(adhoc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != direct.Table.NumRows() {
		t.Fatalf("ad-hoc result %d rows, direct %d", res.Table.NumRows(), direct.Table.NumRows())
	}
	// The rewritten execution must be cheaper than scanning Customer: it
	// reads the much smaller custla view.
	if res.Reads >= direct.TotalReads() {
		t.Errorf("subsumed execution read %d blocks, direct %d — view not used", res.Reads, direct.TotalReads())
	}
}

// TestResultCacheKeepsColumnOrder: the structural key ignores projection
// order and join orientation, so two plans that differ only there must
// still get answers in their own column order — the second executed, not
// from the first one's cache entry.
func TestResultCacheKeepsColumnOrder(t *testing.T) {
	s, db := serveFixture(t, Config{DeltaBatch: 1 << 20})
	ctx := context.Background()
	scan := func(name string) *algebra.Scan {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return algebra.NewScan(name, tab.Schema)
	}
	cond := func(l, r string) []algebra.JoinCond {
		return []algebra.JoinCond{{Left: algebra.Ref(l, "Did"), Right: algebra.Ref(r, "Did")}}
	}
	for _, pair := range [][2]algebra.Node{
		{
			algebra.NewProject(scan("Customer"), []algebra.ColumnRef{algebra.Ref("Customer", "name"), algebra.Ref("Customer", "city")}),
			algebra.NewProject(scan("Customer"), []algebra.ColumnRef{algebra.Ref("Customer", "city"), algebra.Ref("Customer", "name")}),
		},
		{
			algebra.NewJoin(scan("Product"), scan("Division"), cond("Product", "Division")),
			algebra.NewJoin(scan("Division"), scan("Product"), cond("Division", "Product")),
		},
	} {
		for _, plan := range pair {
			res, err := s.Submit(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Table.Schema.Equal(plan.Schema()) {
				t.Fatalf("%s answered with columns %s (cached=%v), want %s",
					plan.Canonical(), res.Table.Schema, res.Cached, plan.Schema())
			}
		}
	}
}
