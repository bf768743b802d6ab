package core_test

import (
	"math"
	"testing"

	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
)

// TestTable2StrategyOrdering verifies the paper's Table 2 qualitative
// findings on the Figure 3 MVPP:
//
//   - materializing all query results gives the best query cost and the
//     worst maintenance cost;
//   - leaving everything virtual gives the worst query cost and zero
//     maintenance;
//   - the shared intermediate set {tmp2, tmp4} beats both on total cost.
func TestTable2StrategyOrdering(t *testing.T) {
	m, model := figure3(t)

	allVirtual := m.AllVirtual(model)
	allQueries := m.AllQueriesMaterialized(model)
	mixed, err := m.EvaluateNames(model, []string{"tmp2", "tmp4"})
	if err != nil {
		t.Fatal(err)
	}

	if allVirtual.Maintenance != 0 {
		t.Errorf("all-virtual maintenance = %v, want 0", allVirtual.Maintenance)
	}
	if !(allQueries.Query < mixed.Query && mixed.Query < allVirtual.Query) {
		t.Errorf("query cost ordering violated: allQ=%v mixed=%v virtual=%v",
			allQueries.Query, mixed.Query, allVirtual.Query)
	}
	if !(allQueries.Maintenance > mixed.Maintenance) {
		t.Errorf("maintenance ordering violated: allQ=%v mixed=%v",
			allQueries.Maintenance, mixed.Maintenance)
	}
	if !(mixed.Total < allVirtual.Total && mixed.Total < allQueries.Total) {
		t.Errorf("{tmp2,tmp4} not the winner: mixed=%v virtual=%v allQ=%v",
			mixed.Total, allVirtual.Total, allQueries.Total)
	}
}

// TestTable2AllVirtualMagnitude pins the all-virtual total near the paper's
// 95.671m (our consistent cost model lands within ~15%; EXPERIMENTS.md
// discusses the gap, which stems from the paper's inconsistent tmp2 size).
func TestTable2AllVirtualMagnitude(t *testing.T) {
	m, model := figure3(t)
	got := m.AllVirtual(model).Total
	paperValue := 95.671e6
	if rel := math.Abs(got-paperValue) / paperValue; rel > 0.15 {
		t.Errorf("all-virtual total = %v, paper 95.671m, off by %.1f%%", got, rel*100)
	}
}

// TestTable2MixedMagnitude pins the {tmp2, tmp4} strategy near the paper's
// 37.577m.
func TestTable2MixedMagnitude(t *testing.T) {
	m, model := figure3(t)
	mixed, err := m.EvaluateNames(model, []string{"tmp2", "tmp4"})
	if err != nil {
		t.Fatal(err)
	}
	paperValue := 37.577e6
	if rel := math.Abs(mixed.Total-paperValue) / paperValue; rel > 0.35 {
		t.Errorf("{tmp2,tmp4} total = %v, paper 37.577m, off by %.1f%%", mixed.Total, rel*100)
	}
	// Maintenance component: paper says 12.065m.
	if rel := math.Abs(mixed.Maintenance-12.065e6) / 12.065e6; rel > 0.05 {
		t.Errorf("{tmp2,tmp4} maintenance = %v, paper 12.065m, off by %.1f%%", mixed.Maintenance, rel*100)
	}
}

func TestEvaluateQueryCostFromMaterializedIntermediate(t *testing.T) {
	m, model := figure3(t)
	c, err := m.EvaluateNames(model, []string{"tmp2"})
	if err != nil {
		t.Fatal(err)
	}
	// With tmp2 materialized, Q1 costs fq·(projection over tmp2's 5k
	// blocks) = 10 × 5k.
	if got := c.PerQuery["Q1"]; got != 50000 {
		t.Errorf("Q1 cost with tmp2 materialized = %v, want 50000", got)
	}
	// Maintenance of tmp2 alone = 35.25k.
	if got := c.PerView["tmp2"]; got != 35250 {
		t.Errorf("tmp2 maintenance = %v, want 35250", got)
	}
	if c.Maintenance != 35250 {
		t.Errorf("total maintenance = %v, want 35250", c.Maintenance)
	}
}

func TestEvaluateMaterializedRootReadCost(t *testing.T) {
	m, model := figure3(t)
	r1, err := m.VertexByName("result1")
	if err != nil {
		t.Fatal(err)
	}
	c := m.Evaluate(model, core.NewVertexSet(r1))
	// Q1 reads the stored result: fq · blocks(result1).
	want := m.Fq["Q1"] * model.ReadCost(r1.Est)
	if math.Abs(c.PerQuery["Q1"]-want) > 1e-9 {
		t.Errorf("Q1 cost = %v, want %v", c.PerQuery["Q1"], want)
	}
	// Other queries unaffected.
	virgin := m.AllVirtual(model)
	if c.PerQuery["Q2"] != virgin.PerQuery["Q2"] {
		t.Errorf("Q2 cost changed: %v vs %v", c.PerQuery["Q2"], virgin.PerQuery["Q2"])
	}
}

func TestEvaluateSharedMaintenance(t *testing.T) {
	m, model := figure3(t)
	// result1 and result2 both recompute through the (unmaterialized)
	// tmp1/tmp2 chain; refreshing them in the same epoch recomputes that
	// chain once, so the shared cost is below the sum of standalone costs.
	c, err := m.EvaluateNames(model, []string{"result1", "result2"})
	if err != nil {
		t.Fatal(err)
	}
	standaloneSum := c.PerView["result1"] + c.PerView["result2"]
	if !(c.Maintenance < standaloneSum) {
		t.Errorf("shared maintenance %v not below standalone sum %v", c.Maintenance, standaloneSum)
	}
	// Materializing tmp2 as well lets both results read it instead of
	// recomputing the chain; total maintenance grows by no more than
	// tmp2's own refresh.
	c3, err := m.EvaluateNames(model, []string{"result1", "result2", "tmp2"})
	if err != nil {
		t.Fatal(err)
	}
	tmp2Standalone, err := m.EvaluateNames(model, []string{"tmp2"})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Maintenance > c.Maintenance+tmp2Standalone.Maintenance+1e-9 {
		t.Errorf("adding tmp2 overcharged: %v vs %v + %v",
			c3.Maintenance, c.Maintenance, tmp2Standalone.Maintenance)
	}
}

func TestEvaluateMonotoneQueryCost(t *testing.T) {
	// Adding a materialized view can never increase any query's cost.
	m, model := figure3(t)
	base := m.AllVirtual(model)
	for _, v := range m.InnerVertices() {
		c := m.Evaluate(model, core.NewVertexSet(v))
		for q, qc := range c.PerQuery {
			if qc > base.PerQuery[q]+1e-9 {
				t.Errorf("materializing %s increased %s cost: %v > %v", v.Name, q, qc, base.PerQuery[q])
			}
		}
	}
}

func TestEvaluateNamesErrors(t *testing.T) {
	m, model := figure3(t)
	if _, err := m.EvaluateNames(model, []string{"nope"}); err == nil {
		t.Error("unknown vertex accepted")
	}
	if _, err := m.EvaluateNames(model, []string{"Division"}); err == nil {
		t.Error("base relation accepted as materialization candidate")
	}
}

func TestVertexSetHelpers(t *testing.T) {
	m, _ := figure3(t)
	tmp2, _ := m.VertexByName("tmp2")
	tmp4, _ := m.VertexByName("tmp4")
	s := core.NewVertexSet(tmp2, tmp4)
	names := s.Names(m)
	if len(names) != 2 || names[0] != "tmp2" || names[1] != "tmp4" {
		t.Errorf("Names = %v", names)
	}
	cl := s.Clone()
	delete(cl, tmp2.ID)
	if !s[tmp2.ID] {
		t.Error("Clone aliases the original set")
	}
}

// TestIncrementalMaintenancePolicy: the same MVPP, the same materialized views,
// priced with and without GenOptions.Delta. Small deltas make maintenance
// far cheaper and leave query costs alone; a full delta (δ = 1) never beats
// recomputation, so every view keeps the recompute plan and its price.
func TestIncrementalMaintenancePolicy(t *testing.T) {
	model := &cost.PaperModel{}
	first := func(delta *cost.DeltaSpec) *core.Candidate {
		t.Helper()
		est, plans := paperQueryPlans(t, cost.PaperOptions())
		cands, err := core.Generate(est, model, plans, core.GenOptions{Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		return cands[0]
	}
	base := first(nil)
	views := base.Selection.Materialized.Names(base.MVPP)
	if len(views) == 0 {
		t.Fatal("paper example selected no views")
	}
	recompute, err := base.MVPP.EvaluateNames(model, views)
	if err != nil {
		t.Fatal(err)
	}
	small := first(&cost.DeltaSpec{DefaultFraction: 0.01})
	incremental, err := small.MVPP.EvaluateNames(model, views)
	if err != nil {
		t.Fatal(err)
	}
	if incremental.Maintenance >= recompute.Maintenance {
		t.Errorf("incremental %v not below recompute %v", incremental.Maintenance, recompute.Maintenance)
	}
	if incremental.Query != recompute.Query {
		t.Errorf("query cost changed: %v vs %v", incremental.Query, recompute.Query)
	}
	whole := first(&cost.DeltaSpec{DefaultFraction: 1})
	for name, strat := range whole.MVPP.MaintenancePlans(whole.Selection.Materialized) {
		if strat != core.MaintRecompute {
			t.Errorf("δ=1: %s maintained by %v, want recompute", name, strat)
		}
	}
	full, err := whole.MVPP.EvaluateNames(model, views)
	if err != nil {
		t.Fatal(err)
	}
	if full.Maintenance != recompute.Maintenance {
		t.Errorf("δ=1 maintenance %v, want the recompute price %v", full.Maintenance, recompute.Maintenance)
	}
}

func TestEvaluateEmptyEqualsAllVirtual(t *testing.T) {
	m, model := figure3(t)
	a := m.Evaluate(model, core.VertexSet{})
	b := m.AllVirtual(model)
	if a.Total != b.Total || a.Query != b.Query {
		t.Errorf("empty set differs from AllVirtual: %+v vs %+v", a, b)
	}
}
