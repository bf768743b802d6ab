package engine_test

import (
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
)

func TestHashJoinMatchesNestedLoopResults(t *testing.T) {
	db := smallPaperDB(t)
	plan := q1Plan(t, db)

	db.SetJoinAlgorithm(engine.JoinNestedLoop)
	nlj, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	db.SetJoinAlgorithm(engine.JoinHash)
	hash, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if nlj.Table.NumRows() != hash.Table.NumRows() {
		t.Errorf("row counts differ: nlj %d, hash %d", nlj.Table.NumRows(), hash.Table.NumRows())
	}
	// Hash join reads each input once — far fewer block reads.
	if hash.TotalReads() >= nlj.TotalReads() {
		t.Errorf("hash join reads %d not below NLJ %d", hash.TotalReads(), nlj.TotalReads())
	}
}

func TestHashJoinReadAccounting(t *testing.T) {
	db := smallPaperDB(t)
	db.SetJoinAlgorithm(engine.JoinHash)
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
	want := int64(ord.NumBlocks() + cust.NumBlocks())
	if res.Ops[0].Reads != want {
		t.Errorf("hash join reads = %d, want %d", res.Ops[0].Reads, want)
	}
}

// TestHashJoinAblationMeasured demonstrates the analytic ablation finding
// physically: under hash joins the I/O gap between direct execution and
// view-based execution collapses relative to nested loops.
func TestHashJoinAblationMeasured(t *testing.T) {
	build := func(algo engine.JoinAlgorithm) (direct, withViews int64) {
		t.Helper()
		db, err := datagen.PaperDB(10, 0.01, 42)
		if err != nil {
			t.Fatal(err)
		}
		db.SetJoinAlgorithm(algo)
		plan := q1Plan(t, db)
		d, err := db.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		// Materialize the join subtree.
		proj := plan.(*algebra.Project)
		if _, err := db.Materialize("mv", proj.Input); err != nil {
			t.Fatal(err)
		}
		r, err := db.Execute(db.RewriteForViewSet(plan).Plan)
		if err != nil {
			t.Fatal(err)
		}
		return d.TotalReads(), r.TotalReads()
	}
	nljDirect, nljView := build(engine.JoinNestedLoop)
	hashDirect, hashView := build(engine.JoinHash)

	nljGain := float64(nljDirect) / float64(nljView)
	hashGain := float64(hashDirect) / float64(hashView)
	if nljGain <= hashGain {
		t.Errorf("view gain should shrink under hash joins: nlj %.1fx vs hash %.1fx", nljGain, hashGain)
	}
}
