package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
)

// The batch-vs-row differential harness. The vectorized batch executor
// (the only one a binary links) must be bit-identical to the legacy
// row-at-a-time oracle in rowexec_test.go: same result rows
// in the same order, same per-operator I/O stats, same counter totals,
// same journal replay state across delta epochs. Every assertion here is
// exact equality — no multiset normalization, no tolerance.

// useRowOracle puts db on the row oracle and fails the test if the oracle
// has executed no operator by the time the test ends: the differential
// would then have compared the batch executor with itself.
func useRowOracle(t testing.TB, db *engine.DB) {
	t.Helper()
	oracle := db.UseRowOracle()
	t.Cleanup(func() {
		if oracle.Ran() == 0 {
			t.Error("row oracle executed no operator: the reference side ran batch code")
		}
	})
}

// dualDBs builds two identically-seeded paper databases, one per
// executor.
func dualDBs(t *testing.T, blockRows int, scale float64, seed int64) (batch, row *engine.DB) {
	t.Helper()
	var err error
	batch, err = datagen.PaperDB(blockRows, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	row, err = datagen.PaperDB(blockRows, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	useRowOracle(t, row)
	return batch, row
}

// orderedRows renders a table's rows in stored order — exact, order-
// sensitive comparison, unlike resultKey's sorted multiset.
func orderedRows(tab *engine.Table) []string {
	out := make([]string, tab.NumRows())
	for i := range out {
		out[i] = tab.Row(i).String()
	}
	return out
}

// assertResultsIdentical requires two executions to agree on rows (in
// order) and on the full per-operator stats sequence.
func assertResultsIdentical(t *testing.T, label string, b, r *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(b.Ops, r.Ops) {
		t.Fatalf("%s: operator stats diverge\nbatch: %+v\nrow:   %+v", label, b.Ops, r.Ops)
	}
	br, rr := orderedRows(b.Table), r.Table
	rrows := orderedRows(rr)
	if len(br) != len(rrows) {
		t.Fatalf("%s: batch returned %d rows, row executor %d", label, len(br), len(rrows))
	}
	for i := range br {
		if br[i] != rrows[i] {
			t.Fatalf("%s: row %d diverges\nbatch: %s\nrow:   %s", label, i, br[i], rrows[i])
		}
	}
}

// assertTablesIdentical compares a stored relation across the two
// databases, row for row.
func assertTablesIdentical(t *testing.T, label string, bdb, rdb *engine.DB, name string) {
	t.Helper()
	bt, err := bdb.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := rdb.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	b, r := orderedRows(bt), orderedRows(rt)
	if !reflect.DeepEqual(b, r) {
		t.Fatalf("%s: table %s diverges (%d vs %d rows)", label, name, len(b), len(r))
	}
}

// assertCountersIdentical compares cumulative block I/O.
func assertCountersIdentical(t *testing.T, label string, bdb, rdb *engine.DB) {
	t.Helper()
	if bdb.Counter.Reads() != rdb.Counter.Reads() || bdb.Counter.Writes() != rdb.Counter.Writes() {
		t.Fatalf("%s: counters diverge: batch %d/%d row %d/%d", label,
			bdb.Counter.Reads(), bdb.Counter.Writes(), rdb.Counter.Reads(), rdb.Counter.Writes())
	}
}

// TestBatchVsRowDifferential sweeps generated SPJ+aggregate plans over
// the paper schema under both join algorithms and asserts the batch and
// row executors are indistinguishable: identical rows, identical ordered
// output, identical per-operator block counts, identical totals.
func TestBatchVsRowDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo engine.JoinAlgorithm
	}{
		{"nlj", engine.JoinNestedLoop},
		{"hash", engine.JoinHash},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			bdb, rdb := dualDBs(t, 8, 0.004, 20260808)
			bdb.SetJoinAlgorithm(a.algo)
			rdb.SetJoinAlgorithm(a.algo)
			g := &planGen{r: rand.New(rand.NewSource(711)), db: bdb}
			const trials = 80
			for trial := 0; trial < trials; trial++ {
				plan := g.randomPlan(t)
				bres, berr := bdb.Execute(plan)
				rres, rerr := rdb.Execute(plan)
				if (berr == nil) != (rerr == nil) ||
					(berr != nil && berr.Error() != rerr.Error()) {
					t.Fatalf("trial %d: errors diverge\nbatch: %v\nrow:   %v\n%s",
						trial, berr, rerr, plan.Canonical())
				}
				if berr != nil {
					continue
				}
				assertResultsIdentical(t, fmt.Sprintf("trial %d (%s)", trial, plan.Canonical()), bres, rres)
			}
			assertCountersIdentical(t, "after sweep", bdb, rdb)
		})
	}
}

// diffViews is the view set the delta-epoch differential maintains: one
// select-project-join view (append path) and one aggregate view (merge
// path), both incrementally maintainable.
func diffViews(t testing.TB, db *engine.DB) {
	t.Helper()
	order, err := db.Table("Order")
	if err != nil {
		t.Fatal(err)
	}
	product, err := db.Table("Product")
	if err != nil {
		t.Fatal(err)
	}
	join := algebra.NewJoin(
		algebra.NewScan("Order", order.Schema),
		algebra.NewScan("Product", product.Schema),
		[]algebra.JoinCond{{Left: algebra.Ref("Order", "Pid"), Right: algebra.Ref("Product", "Pid")}})
	spj := algebra.NewSelect(algebra.Clone(join),
		algebra.Compare(algebra.ColOperand(algebra.Ref("Order", "quantity")), algebra.OpGt,
			algebra.LitOperand(algebra.IntVal(100))))
	if _, err := db.Materialize("mv_spj", spj); err != nil {
		t.Fatal(err)
	}
	agg := algebra.NewAggregate(algebra.Clone(join),
		[]algebra.ColumnRef{algebra.Ref("Product", "Did")},
		[]algebra.Aggregation{
			{Func: algebra.AggCount, Alias: "n"},
			{Func: algebra.AggSum, Arg: algebra.Ref("Order", "quantity"), Alias: "total"},
		})
	if _, err := db.Materialize("mv_agg", agg); err != nil {
		t.Fatal(err)
	}
}

// diffDeltaRows generates one deterministic delta batch per base table.
func diffDeltaRows(epoch int64) map[string][][]algebra.Value {
	r := rand.New(rand.NewSource(4000 + epoch))
	rows := func(n int, gen func(i int) []algebra.Value) [][]algebra.Value {
		out := make([][]algebra.Value, n)
		for i := range out {
			out[i] = gen(i)
		}
		return out
	}
	return map[string][][]algebra.Value{
		"Order": rows(9, func(i int) []algebra.Value {
			return []algebra.Value{
				algebra.IntVal(r.Int63n(120)),
				algebra.IntVal(r.Int63n(80)),
				algebra.IntVal(1 + r.Int63n(200)),
				algebra.DateVal(9496 + r.Int63n(365)),
			}
		}),
		"Product": rows(4, func(i int) []algebra.Value {
			return []algebra.Value{
				algebra.IntVal(120 + epoch*10 + int64(i)),
				algebra.StringVal(fmt.Sprintf("product-new-%d-%d", epoch, i)),
				algebra.IntVal(r.Int63n(20)),
			}
		}),
	}
}

// TestBatchVsRowDeltaEpochsDifferential runs identical delta epochs —
// journaled ingest, incremental refresh (append and merge paths, with a
// batch arriving mid-epoch), and delta application — through both executors
// and asserts every observable agrees: refresh results and operator
// stats, stored view contents, base tables after the fold, pending delta
// counts, and the journals' replay state.
func TestBatchVsRowDeltaEpochsDifferential(t *testing.T) {
	bdb, rdb := dualDBs(t, 8, 0.004, 20260809)
	diffViews(t, bdb)
	diffViews(t, rdb)
	bj, rj := engine.NewMemJournal(), engine.NewMemJournal()

	replayState := func(j engine.DeltaJournal, since uint64) string {
		recs, err := j.RecordsSince(since)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(recs)
	}

	for epoch := int64(0); epoch < 3; epoch++ {
		label := fmt.Sprintf("epoch %d", epoch)
		var lastB, lastR uint64
		for table, rows := range map[string][][]algebra.Value{
			"Order":   diffDeltaRows(epoch)["Order"],
			"Product": diffDeltaRows(epoch)["Product"],
		} {
			var err error
			if lastB, err = bj.AppendGroup([]engine.DeltaRecord{{Table: table, Rows: rows}}); err != nil {
				t.Fatal(err)
			}
			if lastR, err = rj.AppendGroup([]engine.DeltaRecord{{Table: table, Rows: rows}}); err != nil {
				t.Fatal(err)
			}
			if err := bdb.InsertDelta(table, rows...); err != nil {
				t.Fatal(err)
			}
			if err := rdb.InsertDelta(table, rows...); err != nil {
				t.Fatal(err)
			}
		}
		if bdb.PendingDeltaRows("Order") != rdb.PendingDeltaRows("Order") {
			t.Fatalf("%s: pending delta rows diverge", label)
		}
		if replayState(bj, 0) != replayState(rj, 0) {
			t.Fatalf("%s: journal replay state diverges before refresh", label)
		}

		// Refresh mv_spj first, then insert a mid-epoch straggler batch: it
		// is the next epoch's delta, so refreshing the view again inside this
		// epoch repeats the first refresh.
		bep, rep := bdb.BeginMaintenance(), rdb.BeginMaintenance()
		for vi, view := range []string{"mv_spj", "mv_agg"} {
			bres, berr := bep.IncrementalRefresh(view)
			rres, rerr := rep.IncrementalRefresh(view)
			if (berr == nil) != (rerr == nil) {
				t.Fatalf("%s %s: refresh errors diverge: %v vs %v", label, view, berr, rerr)
			}
			if berr == nil {
				assertResultsIdentical(t, label+" refresh "+view, bres, rres)
			}
			if vi == 0 && epoch == 1 {
				straggler := [][]algebra.Value{{
					algebra.IntVal(3), algebra.IntVal(5), algebra.IntVal(150), algebra.DateVal(9700),
				}}
				if err := bdb.InsertDelta("Order", straggler...); err != nil {
					t.Fatal(err)
				}
				if err := rdb.InsertDelta("Order", straggler...); err != nil {
					t.Fatal(err)
				}
				bres2, err := bep.IncrementalRefresh(view)
				if err != nil {
					t.Fatal(err)
				}
				rres2, err := rep.IncrementalRefresh(view)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, label+" repeated refresh "+view, bres2, rres2)
				assertResultsIdentical(t, label+" repeated vs first refresh "+view, bres2, bres)
			}
		}

		for _, ep := range []*engine.MaintenanceEpoch{bep, rep} {
			if err := ep.ApplyDeltas(); err != nil {
				t.Fatal(err)
			}
			if err := ep.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		want := 0
		if epoch == 1 {
			want = 1
		}
		if bdb.PendingDeltaRows("Order") != want || rdb.PendingDeltaRows("Order") != want {
			t.Fatalf("%s: %d / %d Order rows pending after the commit, want %d (the straggler waits for the next epoch)",
				label, bdb.PendingDeltaRows("Order"), rdb.PendingDeltaRows("Order"), want)
		}
		if lastB != lastR || replayState(bj, lastB) != replayState(rj, lastR) {
			t.Fatalf("%s: journal replay state past the landed LSN diverges after commit", label)
		}

		for _, name := range bdb.Tables() {
			assertTablesIdentical(t, label, bdb, rdb, name)
		}
		for _, view := range []string{"mv_spj", "mv_agg"} {
			bv, err := bdb.View(view)
			if err != nil {
				t.Fatal(err)
			}
			rv, err := rdb.View(view)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(orderedRows(bv.Table()), orderedRows(rv.Table())) {
				t.Fatalf("%s: view %s diverges after epoch", label, view)
			}
		}
		assertCountersIdentical(t, label, bdb, rdb)
	}
}

// TestBatchVsRowRecomputeRefreshDifferential covers the full-recompute
// refresh path (RefreshAll) plus queries over the maintained views.
func TestBatchVsRowRecomputeRefreshDifferential(t *testing.T) {
	bdb, rdb := dualDBs(t, 8, 0.004, 20260810)
	diffViews(t, bdb)
	diffViews(t, rdb)
	for _, rows := range []map[string][][]algebra.Value{diffDeltaRows(7)} {
		for table, rs := range rows {
			if err := bdb.InsertDelta(table, rs...); err != nil {
				t.Fatal(err)
			}
			if err := rdb.InsertDelta(table, rs...); err != nil {
				t.Fatal(err)
			}
		}
	}
	applyDeltas(t, bdb)
	applyDeltas(t, rdb)
	bres, err := bdb.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rdb.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, br := range bres {
		rr, ok := rres[name]
		if !ok {
			t.Fatalf("row executor missing refresh result for %s", name)
		}
		assertResultsIdentical(t, "refresh "+name, br, rr)
	}
	// Queries over the refreshed views must agree too.
	g := &planGen{r: rand.New(rand.NewSource(515)), db: bdb}
	for trial := 0; trial < 20; trial++ {
		plan := g.randomPlan(t)
		bq, err := bdb.Execute(bdb.RewriteForViewSet(plan).Plan)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rq, err := rdb.Execute(rdb.RewriteForViewSet(plan).Plan)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertResultsIdentical(t, fmt.Sprintf("view query trial %d", trial), bq, rq)
	}
}

// BenchmarkBatchVsOracle is the wall-clock side of the differential: the
// same plans over the same paper database on the batch executor and on the
// row oracle, for query execution (the two diffViews plans from base
// tables) and for one incremental-refresh epoch over the two views. The
// tests above pin block I/O as identical, so ns/op is the only difference;
// it backs the batch-over-row speedup quoted in DESIGN §12 and EXPERIMENTS.
func BenchmarkBatchVsOracle(b *testing.B) {
	// The views are materialized before the oracle goes in: their contents
	// are the same either way, and set-up stays cheap on both sides.
	build := func(b *testing.B, oracle bool) *engine.DB {
		db, err := datagen.PaperDB(engine.DefaultBlockRows, 0.02, 11)
		if err != nil {
			b.Fatal(err)
		}
		diffViews(b, db)
		if oracle {
			useRowOracle(b, db)
		}
		return db
	}
	for _, ex := range []struct {
		name   string
		oracle bool
	}{{"batch", false}, {"oracle", true}} {
		b.Run("query/"+ex.name, func(b *testing.B) {
			db := build(b, ex.oracle)
			var plans []algebra.Node
			for _, name := range []string{"mv_spj", "mv_agg"} {
				v, err := db.View(name)
				if err != nil {
					b.Fatal(err)
				}
				plans = append(plans, v.Plan)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, plan := range plans {
					if _, err := db.Execute(plan); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("delta-refresh/"+ex.name, func(b *testing.B) {
			deltas := diffDeltaRows(0)
			for i := 0; i < b.N; i++ {
				// A refresh consumes its deltas, so each iteration gets a
				// fresh database, built off the clock.
				b.StopTimer()
				db := build(b, ex.oracle)
				for table, rows := range deltas {
					if err := db.InsertDelta(table, rows...); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := db.IncrementalRefreshAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
