package core

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/cost"
)

// ReselectFrequencies re-runs the Figure 9 view selection under a revised
// set of query access frequencies — the serving layer's advisor loop: the
// live warehouse measures the fq the workload actually exhibits and asks
// what the paper's heuristic would materialize for it. The MVPP's Fq map
// and vertex weights are swapped to the observed frequencies for the
// selection and restored afterwards, so the call leaves the MVPP exactly
// as it found it. Like every MVPP mutation this is not safe to run
// concurrently with other MVPP use; callers serialize (the serve package
// guards it with the advisor mutex).
//
// Queries absent from fq keep frequency 0 (the workload stopped asking
// them); names in fq that are not workload queries are an error. The
// greedy result is safeguarded against the two trivial extremes exactly
// like the designer's initial selection.
func (m *MVPP) ReselectFrequencies(model cost.Model, fq map[string]float64, opts SelectOptions) (*SelectionResult, error) {
	var sel *SelectionResult
	err := m.withFrequencies(fq, func() {
		sel = m.SelectViews(model, opts)
		m.safeguard(model, sel)
	})
	if err != nil {
		return nil, err
	}
	return sel, nil
}

// EvaluateUnderFrequencies prices an arbitrary set of vertex names under a
// revised set of query frequencies — how much the *current* materialization
// would cost per period if the workload keeps behaving as observed. Like
// ReselectFrequencies it restores the MVPP's frequencies and weights before
// returning and must be serialized with other MVPP use.
func (m *MVPP) EvaluateUnderFrequencies(model cost.Model, fq map[string]float64, names []string) (Costs, error) {
	var costs Costs
	var evalErr error
	err := m.withFrequencies(fq, func() {
		costs, evalErr = m.EvaluateNames(model, names)
	})
	if err != nil {
		return Costs{}, err
	}
	return costs, evalErr
}

// withFrequencies validates fq, swaps it in as the MVPP's query frequencies
// (recomputing every vertex weight), runs fn, and restores the original
// frequencies and weights.
func (m *MVPP) withFrequencies(fq map[string]float64, fn func()) error {
	for name, f := range fq {
		if _, ok := m.Roots[name]; !ok {
			return fmt.Errorf("core: reselect: unknown query %q", name)
		}
		if f < 0 {
			return fmt.Errorf("core: reselect: negative frequency %g for %q", f, name)
		}
	}

	savedFq := m.Fq
	savedWeights := make([]float64, len(m.Vertices))
	for i, v := range m.Vertices {
		savedWeights[i] = v.Weight
	}
	defer func() {
		m.setFrequencies(savedFq)
		for i, v := range m.Vertices {
			v.Weight = savedWeights[i]
		}
	}()

	next := make(map[string]float64, len(m.Roots))
	for name := range m.Roots {
		next[name] = fq[name]
	}
	m.setFrequencies(next)
	for _, v := range m.Vertices {
		v.Weight = m.WeightOf(v)
	}

	fn()
	return nil
}

// safeguard replaces the greedy selection with a trivial extreme when one
// is cheaper — the same guard the designer applies to its initial
// selection, needed here because a drifted workload can push the greedy
// heuristic into the same skew it exhibits at design time.
func (m *MVPP) safeguard(model cost.Model, sel *SelectionResult) {
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
		costs := m.Evaluate(model, alt.mat)
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
