package mvpp_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/serve"
)

func paperServer(t *testing.T, opts mvpp.ServeOptions) (*mvpp.Design, *mvpp.Server) {
	t.Helper()
	design, err := paperDesigner(t, mvpp.Options{}).Design()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Scale == 0 {
		opts.Scale = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	srv, err := design.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return design, srv
}

func TestServeCacheSpeedup(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{})
	if len(srv.Views()) == 0 {
		t.Fatal("server started with no materialized views")
	}
	ctx := context.Background()
	for _, q := range design.Queries() {
		first, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if first.Cached {
			t.Errorf("%s: first execution reported cached", q)
		}
		second, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !second.Cached {
			t.Errorf("%s: repeat execution missed the cache", q)
		}
		if second.Reads != 0 {
			t.Errorf("%s: cache hit cost %d reads", q, second.Reads)
		}
		if first.NumRows() != second.NumRows() {
			t.Errorf("%s: cached rows %d != executed rows %d", q, second.NumRows(), first.NumRows())
		}
	}
	stats := srv.Stats()
	if stats.CacheHits < int64(len(design.Queries())) {
		t.Errorf("cache hits = %d, want >= %d", stats.CacheHits, len(design.Queries()))
	}
	if stats.Queries != int64(2*len(design.Queries())) {
		t.Errorf("queries = %d, want %d", stats.Queries, 2*len(design.Queries()))
	}
	if rate := stats.CacheHitRate(); rate < 0.5 {
		t.Errorf("cache hit rate = %.2f, want >= 0.5", rate)
	}
}

func TestServeDeltasAdvanceEpochAndInvalidate(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{})
	ctx := context.Background()
	q := design.Queries()[0]
	if _, err := srv.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	n, err := srv.InjectDeltas(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("injected %d delta rows", n)
	}
	stale := srv.Staleness()
	pending := 0
	for _, st := range stale {
		pending += st.PendingRows
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.Epoch() == 0 {
		t.Error("epoch did not advance after flush")
	}
	for name, st := range srv.Staleness() {
		if st.PendingRows != 0 {
			t.Errorf("%s: %d rows still pending after flush", name, st.PendingRows)
		}
	}
	res, err := srv.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("stale cache entry served after refresh epoch")
	}
	if res.Epoch != srv.Epoch() {
		t.Errorf("result epoch %d, server epoch %d", res.Epoch, srv.Epoch())
	}
	_ = pending // pre-flush staleness may be zero if no view depends on the touched tables
}

func TestServeConcurrentClientsStayConsistent(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{Workers: 4, QueueDepth: 16})
	ctx := context.Background()
	queries := design.Queries()

	// Reference row counts before any concurrency.
	want := make(map[string]int, len(queries))
	for _, q := range queries {
		res, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.NumRows()
	}

	const clients, rounds = 6, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := queries[(c+i)%len(queries)]
				if _, err := srv.Query(ctx, q); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	// Maintenance churns concurrently with the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := srv.InjectDeltas(0.02); err != nil {
				errs <- err
				return
			}
			if err := srv.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats := srv.Stats()
	if got := int64(clients*rounds + len(queries)); stats.Queries < got {
		t.Errorf("queries served = %d, want >= %d", stats.Queries, got)
	}
	if stats.Epochs < 4 {
		t.Errorf("maintenance epochs = %d, want >= 4", stats.Epochs)
	}
	// Deltas only insert rows, so row counts may grow but never shrink.
	for _, q := range queries {
		res, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() < want[q] {
			t.Errorf("%s: rows shrank from %d to %d across refreshes", q, want[q], res.NumRows())
		}
	}
}

func TestServeAdvisorReselectsUnderDrift(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{})
	ctx := context.Background()
	queries := design.Queries()

	baseline := make(map[string]int, len(queries))
	for _, q := range queries {
		res, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		baseline[q] = res.NumRows()
	}

	// Drift: the live workload is overwhelmingly Q4, which the design-time
	// frequencies (Q1 dominant) never anticipated. The volume must drown out
	// the baseline round above, which also counted one of each query.
	for i := 0; i < 400; i++ {
		if _, err := srv.Query(ctx, "Q4"); err != nil {
			t.Fatal(err)
		}
	}
	obs := srv.ObservedFrequencies()
	for _, q := range queries {
		if q == "Q4" {
			continue
		}
		if obs[q] >= obs["Q4"] {
			t.Fatalf("observed frequencies do not reflect drift: %v", obs)
		}
	}

	advice, err := srv.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if !advice.Changed() {
		t.Fatalf("all-Q4 drift should change the selection; advice: keep=%v add=%v drop=%v",
			advice.Keep, advice.Add, advice.Drop)
	}
	if advice.ProposedTotal > advice.CurrentTotal+1e-6 {
		t.Errorf("proposed set costs %v under observed frequencies, current %v",
			advice.ProposedTotal, advice.CurrentTotal)
	}
	if err := srv.ApplyAdvice(advice); err != nil {
		t.Fatal(err)
	}
	gotViews := srv.Views()
	wantViews := append([]string(nil), advice.Proposed...)
	sort.Strings(wantViews)
	if len(gotViews) != len(wantViews) {
		t.Fatalf("views after swap = %v, want %v", gotViews, wantViews)
	}
	for i := range gotViews {
		if gotViews[i] != wantViews[i] {
			t.Fatalf("views after swap = %v, want %v", gotViews, wantViews)
		}
	}
	// Answers must be unchanged by the hot swap — the data didn't move.
	for _, q := range queries {
		res, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s after swap: %v", q, err)
		}
		if res.NumRows() != baseline[q] {
			t.Errorf("%s: rows after swap = %d, want %d", q, res.NumRows(), baseline[q])
		}
	}
}

func TestServeQuerySQL(t *testing.T) {
	_, srv := paperServer(t, mvpp.ServeOptions{})
	ctx := context.Background()
	const sql = `SELECT Product.name FROM Product, Division WHERE Division.city = 'LA' AND Product.Did = Division.Did`
	adhoc, err := srv.QuerySQL(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	named, err := srv.Query(ctx, "Q1")
	if err != nil {
		t.Fatal(err)
	}
	if adhoc.NumRows() != named.NumRows() {
		t.Errorf("ad-hoc rows = %d, named Q1 rows = %d", adhoc.NumRows(), named.NumRows())
	}
	if len(adhoc.Columns()) == 0 {
		t.Error("ad-hoc result has no columns")
	}
	if rows := adhoc.Values(); len(rows) != adhoc.NumRows() {
		t.Errorf("Values() returned %d rows, NumRows %d", len(rows), adhoc.NumRows())
	}
	again, err := srv.QuerySQL(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical ad-hoc SQL missed the result cache")
	}
	if _, err := srv.QuerySQL(ctx, `SELECT nope FROM Ghost`); err == nil {
		t.Error("bad ad-hoc SQL accepted")
	}
}

func TestServeOptionsValidation(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{})
	if _, err := srv.InjectDeltas(0); err == nil {
		t.Error("zero delta fraction accepted")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := srv.Query(context.Background(), design.Queries()[0]); err == nil {
		t.Error("query accepted after close")
	}
}

// BenchmarkServeWorkload drives the serving layer with parallel clients
// while reporting throughput-side metrics (cache hit rate, tail latency):
// round_robin cycles the paper workload, one_query sends every client to one
// query, so each hit writes the same counters and the same cache entry — the
// hit path's contention case.
func BenchmarkServeWorkload(b *testing.B) {
	design, err := benchPaperDesigner(b).Design()
	if err != nil {
		b.Fatal(err)
	}
	queries := design.Queries()
	run := func(b *testing.B, pick func(i int) string) {
		srv, err := design.NewServer(mvpp.ServeOptions{Scale: 0.01, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ctx := context.Background()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := srv.Query(ctx, pick(i)); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.StopTimer()
		stats := srv.Stats()
		b.ReportMetric(stats.QPS, "queries/sec")
		b.ReportMetric(stats.CacheHitRate(), "cache-hit-rate")
		b.ReportMetric(float64(stats.P99.Microseconds()), "p99-us")
	}
	b.Run("round_robin", func(b *testing.B) {
		run(b, func(i int) string { return queries[i%len(queries)] })
	})
	b.Run("one_query", func(b *testing.B) {
		run(b, func(int) string { return queries[0] })
	})
}

// BenchmarkFreshness times the freshness path — one streamed delta batch to
// the first query that sees it — on a journaled, checkpointing server over
// the paper's design at the mixed workload's scale (0.02) and batch size (a
// quarter of the design-time delta fraction). Each iteration streams one
// batch (ack: journaled and staged), flushes it (one maintenance epoch and
// its publication), and waits for a reader at 2 000 reads/s, which sleeps on
// a ticker between queries, to be answered from the new epoch (first read).
// It reports the three medians, their sum and the GC cycles per batch. It is
// a diagnostic: the end-to-end gate stays with the repository benchmark.
func BenchmarkFreshness(b *testing.B) {
	const deltaFraction = 0.0025
	design, err := benchPaperDesigner(b).Design()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	srv, err := design.NewServer(mvpp.ServeOptions{
		Scale:       0.02,
		Seed:        7,
		SnapshotDir: filepath.Join(dir, "snapshots"),
		JournalPath: filepath.Join(dir, "deltas.journal"),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	probe := design.Queries()[0]

	// The reader queries every tick; once waitFor names an epoch, the first
	// answer from that epoch or later is reported on seen.
	var waitFor atomic.Uint64
	seen := make(chan time.Time)
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			case <-tick.C:
			}
			r, err := srv.Query(ctx, probe)
			if err != nil {
				readerDone <- err
				return
			}
			if want := waitFor.Load(); want != 0 && r.Epoch >= want {
				waitFor.Store(0)
				seen <- time.Now()
			}
		}
	}()

	var ack, flush, firstRead []time.Duration
	gcCycles := func() uint64 {
		sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	gc0 := gcCycles()
	b.ResetTimer()
	for range b.N {
		began := time.Now()
		if _, err := srv.StreamDeltas(deltaFraction); err != nil {
			b.Fatal(err)
		}
		acked := time.Now()
		if err := srv.Flush(); err != nil {
			b.Fatal(err)
		}
		flushed := time.Now()
		waitFor.Store(srv.Epoch())
		var at time.Time
		select {
		case at = <-seen:
		case err := <-readerDone:
			b.Fatalf("reader stopped: %v", err)
		}
		ack = append(ack, acked.Sub(began))
		flush = append(flush, flushed.Sub(acked))
		firstRead = append(firstRead, at.Sub(flushed))
	}
	b.StopTimer()
	close(stop)
	if err := <-readerDone; err != nil {
		b.Fatal(err)
	}
	median := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2]) / float64(time.Millisecond)
	}
	a, f, r := median(ack), median(flush), median(firstRead)
	b.ReportMetric(a, "ack-ms")
	b.ReportMetric(f, "flush-ms")
	b.ReportMetric(r, "first-read-ms")
	b.ReportMetric(a+f+r, "fresh-ms")
	b.ReportMetric(float64(gcCycles()-gc0)/float64(b.N), "gc-cycles/op")
}

// TestNoServerFieldCanKeepAMaintenanceEpoch: an engine.MaintenanceEpoch
// holds every Δ its propagations derived, so it has to stay a local of
// whoever runs the epoch. Nothing reachable from a Server through struct
// fields, pointers, slices, arrays, maps or channels — the facade, the
// serve.Server, the engine.DB — may be able to hold one. And what a
// committed epoch hands the next — the DB's carried row counts and the
// maintenance arena that keys them — may hold no table and no relation set:
// integers only. (Interface- and func-typed fields are opaque to the walk.)
func TestNoServerFieldCanKeepAMaintenanceEpoch(t *testing.T) {
	typeOf := func(p any) reflect.Type { return reflect.TypeOf(p).Elem() }
	// reach returns every type reachable from root, each with one path.
	reach := func(root reflect.Type, path string) map[reflect.Type]string {
		seen := make(map[reflect.Type]string)
		var walk func(ty reflect.Type, path string)
		walk = func(ty reflect.Type, path string) {
			if _, ok := seen[ty]; ok {
				return
			}
			seen[ty] = path
			switch ty.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
				walk(ty.Elem(), path)
			case reflect.Map:
				walk(ty.Key(), path)
				walk(ty.Elem(), path)
			case reflect.Struct:
				for i := 0; i < ty.NumField(); i++ {
					walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
				}
			}
		}
		walk(root, path)
		return seen
	}
	fromServer := reach(typeOf((*mvpp.Server)(nil)), "mvpp.Server")
	if path, ok := fromServer[typeOf((*engine.MaintenanceEpoch)(nil))]; ok {
		t.Errorf("%s can hold an engine.MaintenanceEpoch", path)
	}
	for _, must := range []reflect.Type{typeOf((*serve.Server)(nil)), typeOf((*engine.DB)(nil)), typeOf((*engine.Table)(nil))} {
		if _, ok := fromServer[must]; !ok {
			t.Fatalf("the walk never reached %s: it proves nothing", must)
		}
	}
	db := typeOf((*engine.DB)(nil))
	for _, name := range []string{"carried", "arena"} {
		field, ok := db.FieldByName(name)
		if !ok {
			t.Fatalf("engine.DB has no field %s: the walk proves nothing", name)
		}
		kept := reach(field.Type, "engine.DB."+name)
		for _, held := range []reflect.Type{typeOf((*engine.Table)(nil)), typeOf((*engine.RelationSet)(nil))} {
			if path, ok := kept[held]; ok {
				t.Errorf("%s, kept from one epoch to the next, can hold a %s", path, held)
			}
		}
	}
}

// TestSteadyEpochEvaluatesNoOperand: on the server of the paper's design
// priced for incremental maintenance, the first epoch takes the row count of
// every operand its join deltas pair against, by evaluating the operand
// whole; every later epoch carries those counts, probes the operands, and
// evaluates none whole. Read from the serve.epoch event's operands_evaluated
// / operands_reused.
func TestSteadyEpochEvaluatesNoOperand(t *testing.T) {
	const flushes = 5
	design, err := paperDesigner(t, mvpp.Options{Delta: &mvpp.DeltaOptions{DefaultFraction: 0.01}}).Design()
	if err != nil {
		t.Fatal(err)
	}
	rec := mvpp.NewTraceRecorder(nil)
	srv, err := design.NewServer(mvpp.ServeOptions{Observer: rec, DeltaBatch: 1 << 20, Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < flushes; i++ {
		if _, err := srv.StreamDeltas(0.02); err != nil {
			t.Fatal(err)
		}
		if err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	epochs := rec.Trace().EventsOfKind(obs.EvServeEpoch)
	if len(epochs) != flushes {
		t.Fatalf("%d epochs for %d flushes", len(epochs), flushes)
	}
	for i, e := range epochs {
		whole, carried := e.Attrs["operands_evaluated"], e.Attrs["operands_reused"]
		t.Logf("epoch %d: %v operands evaluated whole, %v carried counts used, %v incremental", i+1, whole, carried, e.Attrs["incremental"])
		if i == 0 && whole == int64(0) {
			t.Errorf("the first epoch evaluated no operand whole: it had no row count to carry")
		}
		if e.Attrs["incremental"] == int64(0) {
			t.Fatalf("epoch %d refreshed no view incrementally", i+1)
		}
		if i > 0 && (whole != int64(0) || carried == int64(0)) {
			t.Errorf("epoch %d evaluated %v operands whole and used %v carried counts", i+1, whole, carried)
		}
	}
}

// TestServeServerHasOneLock: every serve.Server field is configuration,
// maintainer-owned (touched only inside maintain, which takes maintMu) or
// published behind an atomic pointer — so maintMu is the only lock the
// struct declares. A new mutex field means some state got a second kind of
// owner; it has to argue with this test.
func TestServeServerHasOneLock(t *testing.T) {
	ty := reflect.TypeOf((*serve.Server)(nil)).Elem()
	locks := map[reflect.Type]bool{reflect.TypeOf(sync.Mutex{}): true, reflect.TypeOf(sync.RWMutex{}): true}
	found := false
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if !locks[f.Type] {
			continue
		}
		if f.Name != "maintMu" {
			t.Errorf("serve.Server.%s is a %s: maintMu is the server's one lock", f.Name, f.Type)
		}
		found = true
	}
	if !found {
		t.Fatal("serve.Server declares no mutex at all: the test checks nothing")
	}
}

// countingJournal counts the groups a server appends and can refuse them.
type countingJournal struct {
	mvpp.DeltaJournal
	mu     sync.Mutex
	groups int
	refuse error
}

func (c *countingJournal) AppendGroup(recs []mvpp.DeltaRecord) (uint64, error) {
	c.mu.Lock()
	c.groups++
	refuse := c.refuse
	c.mu.Unlock()
	if refuse != nil {
		return 0, refuse
	}
	return c.DeltaJournal.AppendGroup(recs)
}

// TestStreamDeltasOneGroup: StreamDeltas and InjectDeltas each hand the
// whole multi-table batch over in one call — one journal group, one record
// per table with consecutive LSNs — and are all-or-nothing: a refused batch
// reports 0 rows and leaves nothing journaled or staged.
func TestStreamDeltasOneGroup(t *testing.T) {
	j := &countingJournal{DeltaJournal: mvpp.NewMemJournal()}
	_, srv := paperServer(t, mvpp.ServeOptions{Journal: j, DeltaBatch: 1 << 20})

	for i, step := range []struct {
		name   string
		ingest func(float64) (int, error)
	}{
		{"StreamDeltas", srv.StreamDeltas},
		{"InjectDeltas", srv.InjectDeltas},
	} {
		before, err := j.RecordsSince(0)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := step.ingest(0.02)
		if err != nil || rows == 0 {
			t.Fatalf("%s = %d rows, %v", step.name, rows, err)
		}
		if j.groups != i+1 {
			t.Errorf("%s: %d journal groups so far, want %d", step.name, j.groups, i+1)
		}
		all, err := j.RecordsSince(0)
		if err != nil {
			t.Fatal(err)
		}
		recs := all[len(before):]
		if len(recs) < 2 {
			t.Fatalf("%s journaled %d records, want one per table of a multi-table batch", step.name, len(recs))
		}
		journaled := 0
		for k, r := range recs {
			if r.LSN != uint64(len(before)+k+1) {
				t.Errorf("%s record %d: LSN %d, want %d", step.name, k, r.LSN, len(before)+k+1)
			}
			journaled += len(r.Rows)
		}
		if journaled != rows {
			t.Errorf("%s returned %d rows but journaled %d", step.name, rows, journaled)
		}
	}
	if st := srv.Stats(); st.StreamGroups != 1 {
		t.Errorf("StreamGroups = %d after one StreamDeltas, want 1", st.StreamGroups)
	}
	if accepted, committed := srv.IngestWatermarks(); accepted != 1 || committed != 1 {
		t.Errorf("watermarks = %d/%d, want 1/1", accepted, committed)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}

	j.refuse = errors.New("journal refused")
	staged := srv.Stats().DeltaRows
	for name, ingest := range map[string]func(float64) (int, error){
		"StreamDeltas": srv.StreamDeltas, "InjectDeltas": srv.InjectDeltas,
	} {
		if rows, err := ingest(0.02); !errors.Is(err, j.refuse) || rows != 0 {
			t.Errorf("%s under a refusing journal = %d rows, %v; want 0 and the journal's error", name, rows, err)
		}
	}
	if got := srv.Stats().DeltaRows; got != staged {
		t.Errorf("refused batches staged %d rows", got-staged)
	}
	for view, vs := range srv.Staleness() {
		if vs.PendingRows != 0 {
			t.Errorf("view %s has %d pending rows after refused batches", view, vs.PendingRows)
		}
	}
}

// TestSharedRootKeepsEachQuerysColumnOrder: queries that differ only in
// their output column order share one MVPP root, whose plan is in the first
// query's order. Each must still be served in its own order.
func TestSharedRootKeepsEachQuerysColumnOrder(t *testing.T) {
	d := mvpp.NewDesigner(paperCatalog(t), mvpp.Options{})
	queries := []struct {
		name, sql string
		cols      []string
	}{
		{"QA", `SELECT Division.name, Division.city FROM Division WHERE Division.Did > 0`, []string{"name", "city"}},
		{"QB", `SELECT Division.city, Division.name FROM Division WHERE Division.Did > 0`, []string{"city", "name"}},
		{"GA", `SELECT Division.city, Division.name, COUNT(*) AS n FROM Division GROUP BY Division.city, Division.name`, []string{"city", "name", "n"}},
		{"GB", `SELECT Division.name, Division.city, COUNT(*) AS n FROM Division GROUP BY Division.name, Division.city`, []string{"name", "city", "n"}},
	}
	for _, q := range queries {
		if err := d.AddQuery(q.name, q.sql, 1); err != nil {
			t.Fatal(err)
		}
	}
	design, err := d.Design()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := design.NewServer(mvpp.ServeOptions{Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()
	rows := map[string][]string{}
	for _, q := range queries {
		res, err := srv.Query(ctx, q.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Columns(); !reflect.DeepEqual(got, q.cols) {
			t.Fatalf("%s answered with columns %v, want %v", q.name, got, q.cols)
		}
		// The same rows, read in one column order: name, city.
		for _, v := range res.Values() {
			if q.cols[0] == "city" {
				v[0], v[1] = v[1], v[0]
			}
			rows[q.name] = append(rows[q.name], fmt.Sprint(v...))
		}
		sort.Strings(rows[q.name])
	}
	if !reflect.DeepEqual(rows["QA"], rows["QB"]) || !reflect.DeepEqual(rows["GA"], rows["GB"]) || len(rows["QA"]) == 0 {
		t.Fatalf("queries over one root answer different rows: %d vs %d, %d vs %d",
			len(rows["QA"]), len(rows["QB"]), len(rows["GA"]), len(rows["GB"]))
	}
}
