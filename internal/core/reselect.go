package core

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/cost"
)

// ReselectFrequencies re-runs the Figure 9 view selection under a revised
// set of query access frequencies — the serving layer's advisor loop: the
// live warehouse measures the fq the workload actually exhibits and asks
// what the paper's heuristic would materialize for it. The frequencies are
// an argument of the selection, not an edit of the MVPP: the call reads the
// plan like any other and may run beside any other.
//
// Queries absent from fq keep frequency 0 (the workload stopped asking
// them); names in fq that are not workload queries are an error. The
// greedy result is safeguarded against the two trivial extremes exactly
// like the designer's initial selection.
func (m *MVPP) ReselectFrequencies(model cost.Model, fq map[string]float64, opts SelectOptions) (*SelectionResult, error) {
	if err := m.checkFrequencies(fq); err != nil {
		return nil, err
	}
	sel := m.selectViews(model, m.under(fq), opts)
	m.safeguard(model, fq, sel)
	return sel, nil
}

// EvaluateUnderFrequencies prices an arbitrary set of vertex names under a
// revised set of query frequencies — how much the *current* materialization
// would cost per period if the workload keeps behaving as observed.
func (m *MVPP) EvaluateUnderFrequencies(model cost.Model, fq map[string]float64, names []string) (Costs, error) {
	if err := m.checkFrequencies(fq); err != nil {
		return Costs{}, err
	}
	return m.evaluateNames(model, fq, names)
}

// checkFrequencies rejects frequencies for unknown queries and negative ones.
func (m *MVPP) checkFrequencies(fq map[string]float64) error {
	for name, f := range fq {
		if _, ok := m.Roots[name]; !ok {
			return fmt.Errorf("core: reselect: unknown query %q", name)
		}
		if f < 0 {
			return fmt.Errorf("core: reselect: negative frequency %g for %q", f, name)
		}
	}
	return nil
}

// safeguard replaces the greedy selection with a trivial extreme when one
// is cheaper — the same guard the designer applies to its initial
// selection, needed here because a drifted workload can push the greedy
// heuristic into the same skew it exhibits at design time.
func (m *MVPP) safeguard(model cost.Model, fq map[string]float64, sel *SelectionResult) {
	roots := make(VertexSet, len(m.Roots))
	for _, r := range m.Roots {
		roots[r.ID] = true
	}
	for _, alt := range []struct {
		name string
		mat  VertexSet
	}{
		{"all-virtual", VertexSet{}},
		{"all-query-results", roots},
	} {
		costs := m.evaluate(model, fq, m.bitsOf(alt.mat))
		if costs.Total < sel.Costs.Total {
			sel.Materialized = alt.mat
			sel.Costs = costs
			sel.Plans = m.MaintenancePlans(alt.mat)
			sel.Trace = append(sel.Trace, TraceStep{
				Vertex: "(reselect)",
				Action: ActionSafeguard,
				Note:   "baseline strategy " + alt.name + " beat the greedy choice",
			})
		}
	}
}
