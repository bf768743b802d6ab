package engine_test

import (
	"math/rand"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
)

// opTolerance is the stated per-operator agreement bound between the
// BlockNLJ analytic model and the engine's counted block accesses: each
// operator must agree within a factor of 2.5, with an absolute slack of 8
// blocks for tiny operators where rounding to whole blocks dominates.
const (
	opToleranceFactor = 2.5
	opToleranceSlack  = 8.0
)

// withinTolerance applies the stated bound.
func withinTolerance(predicted, measured float64) bool {
	diff := predicted - measured
	if diff < 0 {
		diff = -diff
	}
	if diff <= opToleranceSlack {
		return true
	}
	if measured == 0 || predicted == 0 {
		return false
	}
	ratio := predicted / measured
	return ratio >= 1/opToleranceFactor && ratio <= opToleranceFactor
}

// postOrderOps lists a plan's non-scan operators in execution (post)
// order, matching the order the engine accounts OpStats.
func postOrderOps(n algebra.Node) []algebra.Node {
	var out []algebra.Node
	var walk func(algebra.Node)
	walk = func(node algebra.Node) {
		for _, c := range node.Children() {
			walk(c)
		}
		if _, isScan := node.(*algebra.Scan); !isScan {
			out = append(out, node)
		}
	}
	walk(n)
	return out
}

// TestPerOperatorCostDifferential executes a battery of plans and checks
// every operator's estimator-predicted cost (BlockNLJ model over a catalog
// derived from the actual data) against the engine's measured block
// accesses, operator by operator.
func TestPerOperatorCostDifferential(t *testing.T) {
	db, err := datagen.PaperDB(10, 0.04, 7)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := db.CatalogFor()
	if err != nil {
		t.Fatal(err)
	}
	bridge := newEstimator(cat)

	ord, _ := db.Table("Order")
	cust, _ := db.Table("Customer")
	plans := map[string]algebra.Node{
		"select-join-project": q1Plan(t, db),
		"fk-join": algebra.NewJoin(
			algebra.NewScan("Order", ord.Schema),
			algebra.NewScan("Customer", cust.Schema),
			[]algebra.JoinCond{{Left: algebra.Ref("Order", "Cid"), Right: algebra.Ref("Customer", "Cid")}}),
		"aggregate": algebra.NewAggregate(
			algebra.NewScan("Order", ord.Schema),
			[]algebra.ColumnRef{algebra.Ref("Order", "Cid")},
			[]algebra.Aggregation{{Func: algebra.AggSum, Arg: algebra.Ref("Order", "quantity"), Alias: "total"}}),
	}
	for name, plan := range plans {
		res, err := db.Execute(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops := postOrderOps(plan)
		if len(ops) != len(res.Ops) {
			t.Fatalf("%s: %d plan operators vs %d measured ops", name, len(ops), len(res.Ops))
		}
		for i, node := range ops {
			predicted, err := bridge.est.OpCost(bridge.model, node)
			if err != nil {
				t.Fatalf("%s op %d: %v", name, i, err)
			}
			measured := float64(res.Ops[i].Reads + res.Ops[i].Writes)
			if !withinTolerance(predicted, measured) {
				t.Errorf("%s op %d (%s): predicted %.1f vs measured %.0f blocks",
					name, i, res.Ops[i].Label, predicted, measured)
			}
		}
	}
}

// sampleDeltas inserts round(fraction·rows) delta rows per relation, drawn
// from the existing rows so the deltas follow the base data's value
// distribution (the assumption under which the estimator scales sizes).
// Key columns that must stay unique get fresh values.
func sampleDeltas(t *testing.T, db *engine.DB, fraction float64, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	fresh := int64(1_000_000)
	// keyCol maps each relation to the index of its synthetic-key column.
	keyCol := map[string]int{"Product": 0, "Division": 0, "Customer": 0, "Part": 0}
	for _, name := range db.Tables() {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		n := int(fraction*float64(tb.NumRows()) + 0.5)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			src := tb.Row(r.Intn(tb.NumRows()))
			row := make([]algebra.Value, len(src.Values))
			copy(row, src.Values)
			if ki, ok := keyCol[name]; ok {
				fresh++
				row[ki] = algebra.IntVal(fresh)
			}
			if err := db.InsertDelta(name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDeltaMaintenanceDifferential closes the loop on the incremental
// maintenance cost model: the DeltaEstimator's predicted maintenance cost
// for a view must agree with the engine's measured delta-propagation I/O
// within a factor of 3, for both a join view and a root-aggregate view —
// and both sides must agree that incremental maintenance beats recompute.
func TestDeltaMaintenanceDifferential(t *testing.T) {
	const fraction = 0.05
	db, err := datagen.PaperDB(10, 0.04, 7)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := db.CatalogFor()
	if err != nil {
		t.Fatal(err)
	}
	bridge := newEstimator(cat)
	de := cost.NewDeltaEstimator(bridge.est, cost.DeltaSpec{DefaultFraction: fraction})

	ord, _ := db.Table("Order")
	views := map[string]algebra.Node{
		"tmp2": laJoinPlan(t, db),
		"ordersum": algebra.NewAggregate(
			algebra.NewScan("Order", ord.Schema),
			[]algebra.ColumnRef{algebra.Ref("Order", "Cid")},
			[]algebra.Aggregation{{Func: algebra.AggSum, Arg: algebra.Ref("Order", "quantity"), Alias: "total"}}),
	}
	for name, plan := range views {
		if _, err := db.Materialize(name, plan); err != nil {
			t.Fatal(err)
		}
	}
	sampleDeltas(t, db, fraction, 99)

	incMeasured := map[string]float64{}
	ep := db.BeginMaintenance()
	for name, plan := range views {
		predicted, ok, err := de.MaintenanceCost(bridge.model, plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Fatalf("%s: unexpectedly not incrementable", name)
		}
		res, err := ep.IncrementalRefresh(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		measured := float64(res.TotalReads() + res.TotalWrites())
		incMeasured[name] = measured
		if measured == 0 {
			t.Fatalf("%s: no measured I/O", name)
		}
		if ratio := predicted / measured; ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: predicted maintenance %.1f vs measured %.0f blocks (ratio %.2f) — delta model diverges",
				name, predicted, measured, ratio)
		}
	}

	// After folding the deltas in, a full recompute must measure far above
	// the incremental path — the engine-side counterpart of Cm(incremental)
	// < Cm(recompute) on this workload.
	if err := ep.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Commit(); err != nil {
		t.Fatal(err)
	}
	for name := range views {
		full, err := db.Refresh(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fullIO := float64(full.TotalReads() + full.TotalWrites())
		if incMeasured[name] >= fullIO {
			t.Errorf("%s: incremental %.0f blocks not below recompute %.0f", name, incMeasured[name], fullIO)
		}
	}
}
