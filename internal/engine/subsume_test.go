package engine_test

import (
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// subsumeDB materializes a Figure-8 style view: the Product⋈Division join
// filtered by the disjunction of two cities.
func subsumeDB(t *testing.T) (*engine.DB, algebra.Node) {
	t.Helper()
	db := smallPaperDB(t)
	pd, _ := db.Table("Product")
	div, _ := db.Table("Division")
	join := algebra.NewJoin(
		algebra.NewScan("Product", pd.Schema),
		algebra.NewScan("Division", div.Schema),
		[]algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Division", "Did")}})
	shared := algebra.NewSelect(join, algebra.NewOr(
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("SF")),
	))
	if _, err := db.Materialize("laSf", shared); err != nil {
		t.Fatal(err)
	}
	return db, join
}

func TestSubsumptionRewriteAnswersStrongerFilter(t *testing.T) {
	db, join := subsumeDB(t)
	// Ad-hoc query: only LA — strictly stronger than the view's filter.
	q := algebra.NewProject(
		algebra.NewSelect(algebra.Clone(join), algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA"))),
		[]algebra.ColumnRef{algebra.Ref("Product", "name")})

	rewritten := db.RewriteForViewSet(algebra.Clone(q)).Plan
	if countJoinNodes(rewritten) != 0 {
		t.Fatalf("subsuming rewrite did not use the view:\n%s", rewritten.Canonical())
	}

	direct, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := db.Execute(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Table.NumRows() != fast.Table.NumRows() {
		t.Errorf("rows differ: direct %d, subsumed %d", direct.Table.NumRows(), fast.Table.NumRows())
	}
	if fast.TotalReads() >= direct.TotalReads() {
		t.Errorf("subsumed reads %d not below direct %d", fast.TotalReads(), direct.TotalReads())
	}
}

func TestSubsumptionRejectsWeakerFilter(t *testing.T) {
	db, join := subsumeDB(t)
	// A third city is NOT covered by the view; the rewrite must leave the
	// plan alone (and execution must stay correct).
	q := algebra.NewSelect(algebra.Clone(join),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("City07")))
	rewritten := db.RewriteForViewSet(algebra.Clone(q)).Plan
	if countJoinNodes(rewritten) == 0 {
		t.Fatal("unsound rewrite: City07 is not within the view's filter")
	}
	direct, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	re, err := db.Execute(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Table.NumRows() != re.Table.NumRows() {
		t.Error("rewrite changed results")
	}
}

func TestSubsumptionExactFilterUsesViewWithoutResidual(t *testing.T) {
	db, join := subsumeDB(t)
	// The exact disjunction: structural match → bare view scan.
	q := algebra.NewSelect(algebra.Clone(join), algebra.NewOr(
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("SF")),
	))
	rewritten := db.RewriteForViewSet(algebra.Clone(q)).Plan
	if _, ok := rewritten.(*algebra.Scan); !ok {
		t.Errorf("exact filter should collapse to a view scan, got %T", rewritten)
	}
}

func TestSubsumptionConjunctionResidual(t *testing.T) {
	db, join := subsumeDB(t)
	// LA plus an extra restriction on the product id: still implied (the
	// extra conjunct only strengthens), the whole filter re-applies above
	// the view.
	pred := algebra.NewAnd(
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")),
		algebra.Compare(algebra.ColOperand(algebra.Ref("Product", "Pid")), algebra.OpLt, algebra.LitOperand(algebra.IntVal(100))),
	)
	q := algebra.NewSelect(algebra.Clone(join), pred)
	rewritten := db.RewriteForViewSet(algebra.Clone(q)).Plan
	if countJoinNodes(rewritten) != 0 {
		t.Fatalf("conjunction not subsumed:\n%s", rewritten.Canonical())
	}
	direct, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	re, err := db.Execute(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Table.NumRows() != re.Table.NumRows() {
		t.Errorf("rows differ: %d vs %d", direct.Table.NumRows(), re.Table.NumRows())
	}
}

func countJoinNodes(n algebra.Node) int {
	count := 0
	algebra.Walk(n, func(m algebra.Node) {
		if _, ok := m.(*algebra.Join); ok {
			count++
		}
	})
	return count
}

// TestRewriteKeepsPlanColumnOrder: a view matches a subtree by structural
// key, which ignores join orientation, so a scan of it can come back in the
// view's column order. The rewriter then adds one π at the root, and only
// there, so the answer keeps the plan's columns in the plan's order.
func TestRewriteKeepsPlanColumnOrder(t *testing.T) {
	db := smallPaperDB(t)
	pd, _ := db.Table("Product")
	div, _ := db.Table("Division")
	sel := algebra.NewSelect(algebra.NewScan("Division", div.Schema),
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	cond := []algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Division", "Did")}}
	view := algebra.NewJoin(algebra.NewScan("Product", pd.Schema), sel, cond)
	if _, err := db.Materialize("tmp2", view); err != nil {
		t.Fatal(err)
	}

	// The view's own plan is answered by a bare scan: no π, no new charge.
	if rw := db.RewriteForViewSet(algebra.Clone(view)).Plan; !isScan(rw) {
		t.Fatalf("the view's own plan rewrote to\n%s", rw.Canonical())
	}

	flipped := algebra.NewJoin(algebra.Clone(sel), algebra.NewScan("Product", pd.Schema),
		[]algebra.JoinCond{{Left: algebra.Ref("Division", "Did"), Right: algebra.Ref("Product", "Did")}})
	rw := db.RewriteForViewSet(algebra.Clone(flipped))
	if len(rw.Views) != 1 || rw.Views[0] != "tmp2" {
		t.Fatalf("σ(Division) ⋈ Product read views %v, want [tmp2]", rw.Views)
	}
	if p, ok := rw.Plan.(*algebra.Project); !ok || !isScan(p.Input) {
		t.Fatalf("want one π over the scan of tmp2, got\n%s", rw.Plan.Canonical())
	}
	fast, err := db.Execute(rw.Plan)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Execute(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Table.Schema.Equal(flipped.Schema()) {
		t.Fatalf("rewritten answer has columns %s, the plan %s", fast.Table.Schema, flipped.Schema())
	}
	if tableKey(fast.Table) != tableKey(direct.Table) {
		t.Fatalf("rewritten answer differs from the plan's:\n%s\n%s", tableKey(fast.Table), tableKey(direct.Table))
	}
}

func isScan(n algebra.Node) bool {
	_, ok := n.(*algebra.Scan)
	return ok
}
