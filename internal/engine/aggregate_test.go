package engine_test

import (
	"math"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// aggDB builds a small table with known contents.
func aggDB(t *testing.T) (*engine.DB, *engine.Table) {
	t.Helper()
	db := engine.NewDB(4)
	schema := algebra.NewSchema(
		algebra.Column{Relation: "T", Name: "grp", Type: algebra.TypeString},
		algebra.Column{Relation: "T", Name: "v", Type: algebra.TypeInt},
	)
	tb, err := db.CreateTable("T", schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		g string
		v int64
	}{
		{"a", 10}, {"b", 5}, {"a", 20}, {"b", 7}, {"a", 30}, {"c", 1},
	}
	for _, r := range rows {
		if err := tb.Insert([]algebra.Value{algebra.StringVal(r.g), algebra.IntVal(r.v)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tb
}

func TestExecuteAggregateGrouped(t *testing.T) {
	db, tb := aggDB(t)
	plan := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{
			{Func: algebra.AggSum, Arg: algebra.Ref("T", "v"), Alias: "total"},
			{Func: algebra.AggCount, Alias: "n"},
			{Func: algebra.AggMin, Arg: algebra.Ref("T", "v"), Alias: "lo"},
			{Func: algebra.AggMax, Arg: algebra.Ref("T", "v"), Alias: "hi"},
			{Func: algebra.AggAvg, Arg: algebra.Ref("T", "v"), Alias: "mean"},
		})
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("groups = %d", res.Table.NumRows())
	}
	want := map[string]struct {
		total, n, lo, hi int64
		mean             float64
	}{
		"a": {60, 3, 10, 30, 20},
		"b": {12, 2, 5, 7, 6},
		"c": {1, 1, 1, 1, 1},
	}
	for i := 0; i < res.Table.NumRows(); i++ {
		row := res.Table.Row(i)
		g, _ := row.ColumnValue(algebra.Ref("T", "grp"))
		w := want[g.Str]
		total, _ := row.ColumnValue(algebra.Ref("", "total"))
		n, _ := row.ColumnValue(algebra.Ref("", "n"))
		lo, _ := row.ColumnValue(algebra.Ref("", "lo"))
		hi, _ := row.ColumnValue(algebra.Ref("", "hi"))
		mean, _ := row.ColumnValue(algebra.Ref("", "mean"))
		if total.Int != w.total || n.Int != w.n || lo.Int != w.lo || hi.Int != w.hi {
			t.Errorf("group %s: got total=%d n=%d lo=%d hi=%d, want %+v", g.Str, total.Int, n.Int, lo.Int, hi.Int, w)
		}
		if math.Abs(mean.Float-w.mean) > 1e-9 {
			t.Errorf("group %s: mean = %v, want %v", g.Str, mean.Float, w.mean)
		}
	}
	// One pass over the input.
	if res.Ops[len(res.Ops)-1].Reads != int64(tb.NumBlocks()) {
		t.Errorf("aggregate reads = %d, want %d", res.Ops[len(res.Ops)-1].Reads, tb.NumBlocks())
	}
}

func TestExecuteAggregateGlobal(t *testing.T) {
	db, tb := aggDB(t)
	plan := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		nil,
		[]algebra.Aggregation{{Func: algebra.AggCount, Alias: "n"}})
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	n, _ := res.Table.Row(0).ColumnValue(algebra.Ref("", "n"))
	if n.Int != 6 {
		t.Errorf("COUNT(*) = %d, want 6", n.Int)
	}
}

func TestExecuteAggregateOverSelection(t *testing.T) {
	db, tb := aggDB(t)
	sel := algebra.NewSelect(algebra.NewScan("T", tb.Schema),
		algebra.Compare(algebra.ColOperand(algebra.Ref("T", "v")), algebra.OpGt, algebra.LitOperand(algebra.IntVal(6))))
	plan := algebra.NewAggregate(sel,
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{{Func: algebra.AggSum, Arg: algebra.Ref("T", "v"), Alias: "total"}})
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// v > 6 keeps a:{10,20,30}, b:{7} → two groups.
	if res.Table.NumRows() != 2 {
		t.Fatalf("groups = %d", res.Table.NumRows())
	}
}

func TestMaterializeAggregateViewAndRewrite(t *testing.T) {
	db, tb := aggDB(t)
	plan := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "grp")},
		[]algebra.Aggregation{{Func: algebra.AggSum, Arg: algebra.Ref("T", "v"), Alias: "total"}})
	if _, err := db.Materialize("summary", plan); err != nil {
		t.Fatal(err)
	}
	rewritten := db.RewriteForViewSet(algebra.Clone(plan)).Plan
	if _, ok := rewritten.(*algebra.Scan); !ok {
		t.Fatalf("rewritten = %T, want scan of summary view", rewritten)
	}
	direct, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := db.Execute(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Table.NumRows() != fast.Table.NumRows() {
		t.Errorf("rows differ: %d vs %d", direct.Table.NumRows(), fast.Table.NumRows())
	}
	if fast.TotalReads() >= direct.TotalReads() {
		t.Errorf("summary view not cheaper: %d vs %d", fast.TotalReads(), direct.TotalReads())
	}
	// Refresh after base change.
	if err := tb.Insert([]algebra.Value{algebra.StringVal("a"), algebra.IntVal(100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Refresh("summary"); err != nil {
		t.Fatal(err)
	}
	refreshed, err := db.Execute(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	foundA := false
	for i := 0; i < refreshed.Table.NumRows(); i++ {
		row := refreshed.Table.Row(i)
		g, _ := row.ColumnValue(algebra.Ref("T", "grp"))
		if g.Str == "a" {
			total, _ := row.ColumnValue(algebra.Ref("", "total"))
			if total.Int != 160 {
				t.Errorf("refreshed total(a) = %d, want 160", total.Int)
			}
			foundA = true
		}
	}
	if !foundA {
		t.Error("group a missing after refresh")
	}
}

func TestExecuteAggregateErrors(t *testing.T) {
	db, tb := aggDB(t)
	bad := algebra.NewAggregate(
		algebra.NewScan("T", tb.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "ghost")},
		[]algebra.Aggregation{{Func: algebra.AggCount, Alias: "n"}})
	if _, err := db.Execute(bad); err == nil {
		t.Error("bad group column executed")
	}
}
