package engine_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/engine"
)

// tableKey renders a table's row multiset as a sorted string, for comparing
// an incrementally maintained view against a recomputed reference.
func tableKey(tb *engine.Table) string {
	rows := make([]string, 0, tb.NumRows())
	for i := 0; i < tb.NumRows(); i++ {
		row := tb.Row(i)
		vals := make([]string, len(row.Values))
		for ci, v := range row.Values {
			vals[ci] = v.String()
		}
		rows = append(rows, fmt.Sprint(vals))
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

func viewKey(t *testing.T, db *engine.DB, name string) string {
	t.Helper()
	v, err := db.View(name)
	if err != nil {
		t.Fatal(err)
	}
	return tableKey(v.Table())
}

// runEpoch is one whole maintenance epoch on db: the named views refreshed by
// delta propagation in that order, the pending deltas applied, one commit.
// Returns the refreshes in call order.
func runEpoch(t testing.TB, db *engine.DB, views ...string) []*engine.Result {
	t.Helper()
	ep := db.BeginMaintenance()
	out := make([]*engine.Result, len(views))
	for i, view := range views {
		var err error
		if out[i], err = ep.IncrementalRefresh(view); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}

// applyDeltas folds the pending deltas into the base tables in an epoch that
// refreshes no view.
func applyDeltas(t testing.TB, db *engine.DB) {
	t.Helper()
	runEpoch(t, db)
}

// laJoinPlan is Product ⋈ σ(city='LA')(Division): the paper's tmp2.
func laJoinPlan(t *testing.T, db *engine.DB) algebra.Node {
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

// TestIncrementalRefreshSPJMatchesRecompute checks the delta-propagation
// rules on a select-project-join view: after inserting deltas that join
// both delta⋈old and delta⋈delta, the incrementally maintained view equals
// a from-scratch recomputation over the new base state.
func TestIncrementalRefreshSPJMatchesRecompute(t *testing.T) {
	db := smallPaperDB(t)
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}

	// A new LA division plus products pointing at it (Δ⋈Δ) and at
	// existing divisions (Δ⋈old).
	if err := db.InsertDelta("Division",
		[]algebra.Value{algebra.IntVal(999991), algebra.StringVal("division-x"), algebra.StringVal("LA")},
		[]algebra.Value{algebra.IntVal(999992), algebra.StringVal("division-y"), algebra.StringVal("SF")},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertDelta("Product",
		[]algebra.Value{algebra.IntVal(999901), algebra.StringVal("product-x"), algebra.IntVal(999991)},
		[]algebra.Value{algebra.IntVal(999902), algebra.StringVal("product-y"), algebra.IntVal(1)},
		[]algebra.Value{algebra.IntVal(999903), algebra.StringVal("product-z"), algebra.IntVal(2)},
	); err != nil {
		t.Fatal(err)
	}
	if got := db.PendingDeltaRows("Product"); got != 3 {
		t.Fatalf("pending product deltas = %d", got)
	}

	res := runEpoch(t, db, "tmp2")[0]
	if res.TotalReads()+res.TotalWrites() == 0 {
		t.Error("incremental refresh reported no I/O")
	}
	incremental := viewKey(t, db, "tmp2")

	// Reference: recompute over the base state with the deltas applied.
	if got := db.PendingDeltaRows("Product"); got != 0 {
		t.Fatalf("deltas not cleared: %d pending", got)
	}
	if _, err := db.Materialize("ref", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	if want := viewKey(t, db, "ref"); incremental != want {
		t.Errorf("incrementally maintained view diverges from recompute\n got: %s\nwant: %s",
			incremental, want)
	}
}

// TestIncrementalRefreshCheaperThanRecompute checks the point of the whole
// subsystem on the engine side: maintaining a join view for a small delta
// costs far fewer block accesses than recomputing it.
func TestIncrementalRefreshCheaperThanRecompute(t *testing.T) {
	db := smallPaperDB(t)
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertDelta("Product",
		[]algebra.Value{algebra.IntVal(999901), algebra.StringVal("product-x"), algebra.IntVal(1)},
	); err != nil {
		t.Fatal(err)
	}
	inc := runEpoch(t, db, "tmp2")[0]
	full, err := db.Refresh("tmp2")
	if err != nil {
		t.Fatal(err)
	}
	incIO := inc.TotalReads() + inc.TotalWrites()
	fullIO := full.TotalReads() + full.TotalWrites()
	if incIO >= fullIO {
		t.Errorf("incremental I/O %d not below recompute I/O %d", incIO, fullIO)
	}
}

// TestIncrementalRefreshAggregateMergesGroups checks the root-aggregate
// merge: delta rows update existing groups (COUNT/SUM add, MIN/MAX
// compare) and create new ones.
func TestIncrementalRefreshAggregateMergesGroups(t *testing.T) {
	db, tb := aggDB(t)
	plan := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{
			{Func: algebra.AggSum, Arg: algebra.Ref("T", "v"), Alias: "total"},
			{Func: algebra.AggCount, Alias: "n"},
			{Func: algebra.AggMin, Arg: algebra.Ref("T", "v"), Alias: "lo"},
			{Func: algebra.AggMax, Arg: algebra.Ref("T", "v"), Alias: "hi"},
		})
	if _, err := db.Materialize("summary", plan); err != nil {
		t.Fatal(err)
	}
	// Group a grows, group d is new.
	if err := db.InsertDelta("T",
		[]algebra.Value{algebra.StringVal("a"), algebra.IntVal(100)},
		[]algebra.Value{algebra.StringVal("a"), algebra.IntVal(1)},
		[]algebra.Value{algebra.StringVal("d"), algebra.IntVal(2)},
	); err != nil {
		t.Fatal(err)
	}
	runEpoch(t, db, "summary")
	incremental := viewKey(t, db, "summary")

	if _, err := db.Materialize("ref", algebra.Clone(plan)); err != nil {
		t.Fatal(err)
	}
	if want := viewKey(t, db, "ref"); incremental != want {
		t.Errorf("merged aggregate view diverges from recompute\n got: %s\nwant: %s",
			incremental, want)
	}

	// Spot-check group a: 10+20+30 base plus 100+1 delta.
	v, _ := db.View("summary")
	found := false
	for i := 0; i < v.Table().NumRows(); i++ {
		row := v.Table().Row(i)
		g, _ := row.ColumnValue(algebra.Ref("T", "grp"))
		if g.Str != "a" {
			continue
		}
		found = true
		total, _ := row.ColumnValue(algebra.Ref("", "total"))
		n, _ := row.ColumnValue(algebra.Ref("", "n"))
		hi, _ := row.ColumnValue(algebra.Ref("", "hi"))
		if total.Int != 161 || n.Int != 5 || hi.Int != 100 {
			t.Errorf("group a: total=%d n=%d hi=%d, want 161/5/100", total.Int, n.Int, hi.Int)
		}
	}
	if !found {
		t.Error("group a missing from merged view")
	}
}

// TestIncrementalRefreshAggregateNullMeasure folds delta rows whose measure
// is the null into a γ view: a null joining a group that has values changes
// none of its aggregates but COUNT(*), a group born of nulls alone holds the
// null under SUM, MIN and MAX and 0 under COUNT(v), and a later value into
// that group replaces the null. After every epoch the maintained view equals
// its recomputation.
func TestIncrementalRefreshAggregateNullMeasure(t *testing.T) {
	db, tb := aggDB(t)
	v := algebra.Ref("T", "v")
	plan := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{
			{Func: algebra.AggSum, Arg: v, Alias: "total"},
			{Func: algebra.AggCount, Alias: "n"},
			{Func: algebra.AggCount, Arg: v, Alias: "nv"},
			{Func: algebra.AggMin, Arg: v, Alias: "lo"},
			{Func: algebra.AggMax, Arg: v, Alias: "hi"},
		})
	if _, err := db.Materialize("summary", plan); err != nil {
		t.Fatal(err)
	}
	null := algebra.Value{}
	for epoch, delta := range [][][]algebra.Value{
		{{algebra.StringVal("a"), null}, {algebra.StringVal("n"), null}, {algebra.StringVal("n"), null}},
		{{algebra.StringVal("n"), algebra.IntVal(7)}, {algebra.StringVal("b"), null}},
	} {
		if err := db.InsertDelta("T", delta...); err != nil {
			t.Fatal(err)
		}
		runEpoch(t, db, "summary")
		ref := fmt.Sprintf("ref%d", epoch)
		if _, err := db.Materialize(ref, algebra.Clone(plan)); err != nil {
			t.Fatal(err)
		}
		if got, want := viewKey(t, db, "summary"), viewKey(t, db, ref); got != want {
			t.Fatalf("epoch %d: maintained view diverges from recompute\n got: %s\nwant: %s", epoch, got, want)
		}
	}
}

// TestIncrementalRefreshRejectsNonIncremental: AVG and non-root aggregates
// must fall back to recomputation via ErrNotIncremental.
func TestIncrementalRefreshRejectsNonIncremental(t *testing.T) {
	db, tb := aggDB(t)
	avg := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{{Func: algebra.AggAvg, Arg: algebra.Ref("T", "v"), Alias: "mean"}})
	if _, err := db.Materialize("avgview", avg); err != nil {
		t.Fatal(err)
	}
	count := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{{Func: algebra.AggCount, Alias: "n"}})
	buried := algebra.NewProject(count, []algebra.ColumnRef{algebra.Ref("T", "grp")})
	if _, err := db.Materialize("buried", buried); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertDelta("T", []algebra.Value{algebra.StringVal("a"), algebra.IntVal(9)}); err != nil {
		t.Fatal(err)
	}
	ep := db.BeginMaintenance()
	if _, err := ep.IncrementalRefresh("avgview"); !errors.Is(err, engine.ErrNotIncremental) {
		t.Errorf("AVG view error = %v, want ErrNotIncremental", err)
	}
	if _, err := ep.IncrementalRefresh("buried"); !errors.Is(err, engine.ErrNotIncremental) {
		t.Errorf("buried aggregate error = %v, want ErrNotIncremental", err)
	}
	if _, err := ep.IncrementalRefresh("ghost"); err == nil {
		t.Error("unknown view refreshed")
	}
}

// TestIncrementabilityGateAgrees: the designer prices a view as
// incrementally maintainable exactly when the engine will maintain it that
// way — both ask algebra.Incrementable.
func TestIncrementabilityGateAgrees(t *testing.T) {
	db, tb := aggDB(t)
	scan := algebra.NewScan("T", tb.Schema)
	grp := []algebra.ColumnRef{algebra.Ref("T", "grp")}
	v := algebra.Ref("T", "v")
	mergeable := algebra.NewAggregate(scan, grp, []algebra.Aggregation{
		{Func: algebra.AggCount, Alias: "n"},
		{Func: algebra.AggSum, Arg: v, Alias: "total"},
		{Func: algebra.AggMin, Arg: v, Alias: "lo"},
		{Func: algebra.AggMax, Arg: v, Alias: "hi"},
	})
	cases := []struct {
		name string
		plan algebra.Node
		want bool
	}{
		{"spj", algebra.NewProject(algebra.NewSelect(scan,
			algebra.Compare(algebra.ColOperand(v), algebra.OpGt, algebra.LitOperand(algebra.IntVal(6)))), grp), true},
		{"root-count-sum-min-max", mergeable, true},
		{"root-avg", algebra.NewAggregate(scan, grp,
			[]algebra.Aggregation{{Func: algebra.AggAvg, Arg: v, Alias: "mean"}}), false},
		{"aggregate-below-root", algebra.NewProject(mergeable, grp), false},
	}
	cat, err := db.CatalogFor()
	if err != nil {
		t.Fatal(err)
	}
	pricer := cost.NewDeltaEstimator(cost.NewEstimator(cat, cost.DefaultOptions()), cost.DeltaSpec{DefaultFraction: 0.1})
	for _, tc := range cases {
		if _, err := db.Materialize(tc.name, tc.plan); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertDelta("T", []algebra.Value{algebra.StringVal("a"), algebra.IntVal(9)}); err != nil {
		t.Fatal(err)
	}
	ep := db.BeginMaintenance()
	for _, tc := range cases {
		if got, why := algebra.Incrementable(tc.plan); got != tc.want {
			t.Errorf("%s: Incrementable = %v (%s), want %v", tc.name, got, why, tc.want)
		}
		_, priced, err := pricer.MaintenanceCost(&cost.BlockNLJModel{}, tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ep.IncrementalRefresh(tc.name)
		if err != nil && !errors.Is(err, engine.ErrNotIncremental) {
			t.Fatal(err)
		}
		if maintained := err == nil; priced != tc.want || maintained != tc.want {
			t.Errorf("%s: designer prices incremental = %v, engine maintains incrementally = %v, want both %v",
				tc.name, priced, maintained, tc.want)
		}
	}
}

// TestIncrementalRefreshAllMixed: maintainable views propagate deltas, the
// rest recompute, and afterwards every view matches the new base state.
func TestIncrementalRefreshAllMixed(t *testing.T) {
	db, tb := aggDB(t)
	spj := algebra.NewSelect(algebra.NewScan("T", tb.Schema),
		algebra.Compare(algebra.ColOperand(algebra.Ref("T", "v")), algebra.OpGt,
			algebra.LitOperand(algebra.IntVal(6))))
	avg := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{{Func: algebra.AggAvg, Arg: algebra.Ref("T", "v"), Alias: "mean"}})
	if _, err := db.Materialize("big", spj); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("avgview", avg); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertDelta("T",
		[]algebra.Value{algebra.StringVal("a"), algebra.IntVal(50)},
		[]algebra.Value{algebra.StringVal("e"), algebra.IntVal(3)},
	); err != nil {
		t.Fatal(err)
	}
	results, err := db.IncrementalRefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("refreshed %d views, want 2", len(results))
	}
	if db.PendingDeltaRows("T") != 0 {
		t.Error("deltas still pending after IncrementalRefreshAll")
	}
	for name, plan := range map[string]algebra.Node{"big": spj, "avgview": avg} {
		ref, err := db.Execute(algebra.Clone(plan))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := viewKey(t, db, name), tableKey(ref.Table); got != want {
			t.Errorf("%s inconsistent with new base state\n got: %s\nwant: %s", name, got, want)
		}
	}
}
