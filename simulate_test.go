package mvpp_test

import (
	"context"
	"strings"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
)

func TestSimulateDesignSpeedsUpWorkload(t *testing.T) {
	design, err := paperDesigner(t, mvpp.Options{}).Design()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := design.Simulate(mvpp.SimOptions{Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.PerQuery) != 4 {
		t.Fatalf("per-query entries = %d", len(sim.PerQuery))
	}
	for q, s := range sim.PerQuery {
		if s.DirectReads <= 0 {
			t.Errorf("%s: direct reads = %d", q, s.DirectReads)
		}
		if s.RewrittenReads > s.DirectReads {
			t.Errorf("%s: views made execution slower: %d > %d", q, s.RewrittenReads, s.DirectReads)
		}
	}
	if sim.Speedup() <= 1 {
		t.Errorf("workload speedup = %.2f, want > 1", sim.Speedup())
	}
	if sim.RefreshIO <= 0 || sim.MaterializeIO <= 0 {
		t.Errorf("maintenance I/O not measured: refresh=%d materialize=%d", sim.RefreshIO, sim.MaterializeIO)
	}
	if sim.WeightedTotal != sim.WeightedRewritten+float64(sim.RefreshIO) {
		t.Error("WeightedTotal mismatch")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	design, err := paperDesigner(t, mvpp.Options{}).Design()
	if err != nil {
		t.Fatal(err)
	}
	a, err := design.Simulate(mvpp.SimOptions{Scale: 0.005, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := design.Simulate(mvpp.SimOptions{Scale: 0.005, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.WeightedDirect != b.WeightedDirect || a.RefreshIO != b.RefreshIO {
		t.Error("simulation not deterministic for equal seeds")
	}
	for q := range a.PerQuery {
		if a.PerQuery[q] != b.PerQuery[q] {
			t.Errorf("%s differs between runs", q)
		}
	}
}

func TestSimulateQueriesReturnRows(t *testing.T) {
	// The synthetic generator must produce data the selections actually
	// match ('LA' appears in Division.city etc.) so queries are non-trivial.
	design, err := paperDesigner(t, mvpp.Options{}).Design()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := design.Simulate(mvpp.SimOptions{Scale: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, s := range sim.PerQuery {
		if s.Rows > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("only %d of 4 queries returned rows — generator domains do not match literals", nonEmpty)
	}
}

// TestSimulateReadsMatchServing: Simulate and the server rewrite with the
// same rewriter over the same generated warehouse, so every query's
// measured reads with views agree between the two — on the paper example
// and on a summary-table workload whose GROUP BY queries sit above a
// materialized join.
func TestSimulateReadsMatchServing(t *testing.T) {
	// Summaries queried more rarely than their base tables change: Figure 9
	// stores the join they share and leaves the GROUP BYs on top virtual.
	summaries := mvpp.NewDesigner(paperCatalog(t), mvpp.Options{})
	for _, q := range []mvpp.Query{
		{Name: "cityTotals", SQL: `SELECT Customer.city, SUM(quantity) AS total
			FROM Order, Customer WHERE Order.Cid = Customer.Cid GROUP BY Customer.city`},
		{Name: "cityCounts", SQL: `SELECT Customer.city, COUNT(*) AS n
			FROM Order, Customer WHERE Order.Cid = Customer.Cid GROUP BY Customer.city`},
		{Name: "cityPeak", SQL: `SELECT Customer.city, MAX(quantity) AS peak
			FROM Order, Customer WHERE Order.Cid = Customer.Cid GROUP BY Customer.city`},
		{Name: "detail", SQL: `SELECT Customer.name, quantity
			FROM Order, Customer WHERE quantity > 100 AND Order.Cid = Customer.Cid`},
	} {
		if err := summaries.AddQuery(q.Name, q.SQL, 0.6); err != nil {
			t.Fatalf("AddQuery(%s): %v", q.Name, err)
		}
	}
	for _, tc := range []struct {
		name     string
		designer *mvpp.Designer
		// aggregateOverView: some GROUP BY query must be served from a view
		// below its aggregate, or the comparison proves nothing about them.
		aggregateOverView bool
	}{
		{"paper", paperDesigner(t, mvpp.Options{}), false},
		{"summary-tables", summaries, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			design, err := tc.designer.Design()
			if err != nil {
				t.Fatal(err)
			}
			const scale, seed = 0.01, 9
			sim, err := design.Simulate(mvpp.SimOptions{Scale: scale, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := design.NewServer(mvpp.ServeOptions{Scale: scale, Seed: seed, CacheCapacity: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			aggregateOverView := false
			for _, q := range design.Queries() {
				res, err := srv.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if got := sim.PerQuery[q].RewrittenReads; got != res.Reads {
					t.Errorf("%s: Simulate read %d blocks with views, the server %d", q, got, res.Reads)
				}
				plan, err := srv.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if aggregateAboveViewScan(plan, srv.Views()) {
					aggregateOverView = true
				}
			}
			if tc.aggregateOverView && !aggregateOverView {
				t.Error("no GROUP BY query is served from a view below its aggregate")
			}
		})
	}
}

// aggregateAboveViewScan reports whether an Explain rendering has γ at the
// root and a scan of one of the views below it.
func aggregateAboveViewScan(explain string, views []string) bool {
	_, below, ok := strings.Cut(explain, "\nγ")
	if !ok {
		return false
	}
	for _, v := range views {
		if strings.Contains(below, "── "+v+" ") {
			return true
		}
	}
	return false
}
