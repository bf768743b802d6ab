package engine_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
)

func smallPaperDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := datagen.PaperDB(10, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func q1Plan(t *testing.T, db *engine.DB) algebra.Node {
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
	join := algebra.NewJoin(algebra.NewScan("Product", pd.Schema), sel,
		[]algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Division", "Did")}})
	return algebra.NewProject(join, []algebra.ColumnRef{algebra.Ref("Product", "name")})
}

func TestTableBasics(t *testing.T) {
	schema := algebra.NewSchema(
		algebra.Column{Relation: "R", Name: "a", Type: algebra.TypeInt},
		algebra.Column{Relation: "R", Name: "b", Type: algebra.TypeString},
	)
	tb := engine.NewTable("R", schema, 4)
	if err := tb.Insert([]algebra.Value{algebra.IntVal(1), algebra.StringVal("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert([]algebra.Value{algebra.IntVal(1)}); err == nil {
		t.Error("short row accepted")
	}
	for i := 0; i < 8; i++ {
		if err := tb.Insert([]algebra.Value{algebra.IntVal(int64(i)), algebra.StringVal("y")}); err != nil {
			t.Fatal(err)
		}
	}
	if tb.NumRows() != 9 {
		t.Errorf("rows = %d", tb.NumRows())
	}
	if tb.NumBlocks() != 3 { // ceil(9/4)
		t.Errorf("blocks = %d, want 3", tb.NumBlocks())
	}
}

func TestDBTableManagement(t *testing.T) {
	db := engine.NewDB(10)
	schema := algebra.NewSchema(algebra.Column{Relation: "R", Name: "a", Type: algebra.TypeInt})
	if _, err := db.CreateTable("R", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("R", schema); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table lookup succeeded")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "R" {
		t.Errorf("Tables = %v", got)
	}
}

func TestExecuteSelectCorrectness(t *testing.T) {
	db := smallPaperDB(t)
	div, _ := db.Table("Division")
	plan := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against a direct check.
	want := 0
	for i := 0; i < div.NumRows(); i++ {
		v, _ := div.Row(i).ColumnValue(algebra.Ref("Division", "city"))
		if v.Str == "LA" {
			want++
		}
	}
	if res.Table.NumRows() != want {
		t.Errorf("selected %d rows, want %d", res.Table.NumRows(), want)
	}
	// Reads = all input blocks.
	if res.TotalReads() != int64(div.NumBlocks()) {
		t.Errorf("reads = %d, want %d", res.TotalReads(), div.NumBlocks())
	}
}

func TestExecuteJoinMatchesNestedLoopSemantics(t *testing.T) {
	db := smallPaperDB(t)
	res, err := db.Execute(q1Plan(t, db))
	if err != nil {
		t.Fatal(err)
	}
	// Reference: count product rows whose division is in LA.
	pd, _ := db.Table("Product")
	div, _ := db.Table("Division")
	la := map[string]bool{}
	for i := 0; i < div.NumRows(); i++ {
		row := div.Row(i)
		city, _ := row.ColumnValue(algebra.Ref("Division", "city"))
		did, _ := row.ColumnValue(algebra.Ref("Division", "Did"))
		if city.Str == "LA" {
			la[did.String()] = true
		}
	}
	want := 0
	for i := 0; i < pd.NumRows(); i++ {
		did, _ := pd.Row(i).ColumnValue(algebra.Ref("Product", "Did"))
		if la[did.String()] {
			want++
		}
	}
	if res.Table.NumRows() != want {
		t.Errorf("join produced %d rows, want %d", res.Table.NumRows(), want)
	}
	if got := res.Table.Schema.Len(); got != 1 {
		t.Errorf("projected schema width = %d", got)
	}
}

// TestJoinBlockAccountingMatchesModel verifies the engine's counted reads
// equal the block nested-loop formula blocks(outer) +
// blocks(outer)·blocks(inner) exactly.
func TestJoinBlockAccountingMatchesModel(t *testing.T) {
	db := smallPaperDB(t)
	ord, _ := db.Table("Order")
	cust, _ := db.Table("Customer")
	join := algebra.NewJoin(
		algebra.NewScan("Order", ord.Schema),
		algebra.NewScan("Customer", cust.Schema),
		[]algebra.JoinCond{{Left: algebra.Ref("Order", "Cid"), Right: algebra.Ref("Customer", "Cid")}})
	res, err := db.Execute(join)
	if err != nil {
		t.Fatal(err)
	}
	bo, bi := int64(ord.NumBlocks()), int64(cust.NumBlocks())
	if len(res.Ops) != 1 {
		t.Fatalf("ops = %d", len(res.Ops))
	}
	if res.Ops[0].Reads != bo+bo*bi {
		t.Errorf("join reads = %d, want %d", res.Ops[0].Reads, bo+bo*bi)
	}
	if res.Ops[0].Writes != int64(res.Table.NumBlocks()) {
		t.Errorf("join writes = %d, want %d", res.Ops[0].Writes, res.Table.NumBlocks())
	}
}

// TestAnalyticCostTracksMeasuredIO is the cost-model validation: with a
// catalog derived from the actual data, the BlockNLJ analytic plan cost
// must be within a small factor of the engine's measured I/O.
func TestAnalyticCostTracksMeasuredIO(t *testing.T) {
	db := smallPaperDB(t)
	cat, err := db.CatalogFor()
	if err != nil {
		t.Fatal(err)
	}
	plan := q1Plan(t, db)
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(res.TotalReads() + res.TotalWrites())

	est := newEstimator(cat)
	analytic, err := est.planCost(plan)
	if err != nil {
		t.Fatal(err)
	}
	ratio := analytic / measured
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("analytic %v vs measured %v (ratio %.2f) — model diverges", analytic, measured, ratio)
	}
}

func TestMaterializeAndRewrite(t *testing.T) {
	db := smallPaperDB(t)
	pd, _ := db.Table("Product")
	div, _ := db.Table("Division")
	sel := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	tmp2 := algebra.NewJoin(algebra.NewScan("Product", pd.Schema), sel,
		[]algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Division", "Did")}})

	if _, err := db.Materialize("tmp2", tmp2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("tmp2", tmp2); err == nil {
		t.Error("duplicate view accepted")
	}

	q1 := algebra.NewProject(tmp2, []algebra.ColumnRef{algebra.Ref("Product", "name")})
	rewritten := db.RewriteForViewSet(q1).Plan
	// The join subtree must have been replaced by a view scan.
	joins := 0
	algebra.Walk(rewritten, func(n algebra.Node) {
		if _, ok := n.(*algebra.Join); ok {
			joins++
		}
	})
	if joins != 0 {
		t.Errorf("rewritten plan still contains %d joins:\n%s", joins, rewritten.Canonical())
	}

	// Running the rewritten plan gives the same rows much cheaper.
	direct, err := db.Execute(q1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := db.Execute(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Table.NumRows() != fast.Table.NumRows() {
		t.Errorf("rows differ: direct %d vs rewritten %d", direct.Table.NumRows(), fast.Table.NumRows())
	}
	if fast.TotalReads() >= direct.TotalReads() {
		t.Errorf("rewritten reads %d not below direct %d", fast.TotalReads(), direct.TotalReads())
	}
}

func TestRefreshRecomputes(t *testing.T) {
	db := smallPaperDB(t)
	div, _ := db.Table("Division")
	sel := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	if _, err := db.Materialize("laDivs", sel); err != nil {
		t.Fatal(err)
	}
	before, _ := db.View("laDivs")
	nBefore := before.Table().NumRows()

	// Mutate the base table: add one more LA division.
	if err := div.Insert([]algebra.Value{
		algebra.IntVal(999999), algebra.StringVal("division-new"), algebra.StringVal("LA"),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Refresh("laDivs")
	if err != nil {
		t.Fatal(err)
	}
	after, _ := db.View("laDivs")
	if after.Table().NumRows() != nBefore+1 {
		t.Errorf("refreshed view has %d rows, want %d", after.Table().NumRows(), nBefore+1)
	}
	if res.TotalReads() == 0 {
		t.Error("refresh reported no I/O")
	}
	if _, err := db.Refresh("ghost"); err == nil {
		t.Error("refresh of unknown view succeeded")
	}
}

func TestRefreshAllAndDrop(t *testing.T) {
	db := smallPaperDB(t)
	div, _ := db.Table("Division")
	a := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	b := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("SF")))
	if _, err := db.Materialize("la", a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("sf", b); err != nil {
		t.Fatal(err)
	}
	results, err := db.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Errorf("refreshed %d views", len(results))
	}
	if err := db.DropView("la"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropView("la"); err == nil {
		t.Error("double drop succeeded")
	}
	if got := db.Views(); len(got) != 1 || got[0] != "sf" {
		t.Errorf("Views = %v", got)
	}
}

func TestCounterAccumulates(t *testing.T) {
	db := smallPaperDB(t)
	db.Counter.Reset()
	div, _ := db.Table("Division")
	plan := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	if _, err := db.Execute(plan); err != nil {
		t.Fatal(err)
	}
	first := db.Counter.Reads()
	if first == 0 {
		t.Fatal("no reads counted")
	}
	if _, err := db.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if db.Counter.Reads() != 2*first {
		t.Errorf("reads = %d, want %d", db.Counter.Reads(), 2*first)
	}
}

func TestExecuteErrors(t *testing.T) {
	db := smallPaperDB(t)
	ghost := algebra.NewScan("Ghost", algebra.NewSchema(
		algebra.Column{Relation: "Ghost", Name: "x", Type: algebra.TypeInt}))
	if _, err := db.Execute(ghost); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("ghost scan error = %v", err)
	}
	// All three lookups fail with one matchable error and the old wording.
	_, scanErr := db.Execute(ghost)
	_, tableErr := db.Table("Ghost")
	deltaErr := db.InsertDelta("Ghost", []algebra.Value{algebra.IntVal(1)})
	for site, err := range map[string]error{"scan": scanErr, "Table": tableErr, "InsertDelta": deltaErr} {
		if !errors.Is(err, engine.ErrUnknownRelation) || err.Error() != `engine: unknown table "Ghost"` {
			t.Errorf("%s of an unknown relation: %v", site, err)
		}
	}
	div, _ := db.Table("Division")
	bad := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.IntVal(1)))
	if _, err := db.Execute(bad); err == nil {
		t.Error("type-mismatched predicate executed")
	}
}

func TestCatalogForDerivesExactStats(t *testing.T) {
	db := smallPaperDB(t)
	cat, err := db.CatalogFor()
	if err != nil {
		t.Fatal(err)
	}
	div, _ := db.Table("Division")
	rel, err := cat.Relation("Division")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows != float64(div.NumRows()) || rel.Blocks != float64(div.NumBlocks()) {
		t.Errorf("catalog %v/%v vs table %d/%d", rel.Rows, rel.Blocks, div.NumRows(), div.NumBlocks())
	}
	if rel.Attrs["Did"].DistinctValues != float64(div.NumRows()) {
		t.Errorf("NDV(Did) = %v, want %d (sequence column)", rel.Attrs["Did"].DistinctValues, div.NumRows())
	}
	// quantity stats: Min/Max present for Order.
	ordRel, err := cat.Relation("Order")
	if err != nil {
		t.Fatal(err)
	}
	q := ordRel.Attrs["quantity"]
	if !q.Min.IsValid() || !q.Max.IsValid() {
		t.Error("quantity bounds missing")
	}
	// Numeric attributes carry equi-depth histograms from the data.
	if len(q.Histogram) != engine.HistogramBuckets {
		t.Errorf("quantity histogram buckets = %d, want %d", len(q.Histogram), engine.HistogramBuckets)
	}
	// Uniform quantity in [1,200]: the median bucket boundary sits near
	// 100, so P(q ≤ 100) ≈ 0.5.
	if s, ok := q.Histogram, true; !ok || s[len(s)/2-1] < 60 || s[len(s)/2-1] > 140 {
		t.Errorf("median boundary = %v, want near 100", q.Histogram)
	}
	// String columns have no histogram.
	custRel, err := cat.Relation("Customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(custRel.Attrs["city"].Histogram) != 0 {
		t.Error("string column grew a histogram")
	}
}
