package core

import (
	"sort"

	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/obs"
)

// MaintenanceStrategy is the per-vertex refresh plan behind the effective
// Cm: full recomputation from base relations, or insert-only delta
// propagation through the vertex's plan.
type MaintenanceStrategy int

// Maintenance strategies.
const (
	// MaintRecompute recomputes the view from base relations each epoch —
	// the paper's policy and the default.
	MaintRecompute MaintenanceStrategy = iota
	// MaintIncremental propagates base-relation deltas through the view's
	// plan and applies them to the stored view.
	MaintIncremental
)

// String returns the strategy's report spelling.
func (s MaintenanceStrategy) String() string {
	if s == MaintIncremental {
		return "incremental"
	}
	return "recompute"
}

// DeltaEnabled reports whether delta maintenance pricing is installed
// (GenOptions.Delta with a nonzero fraction): every inner vertex's Cm is
// then the cheaper of full recomputation and delta propagation, and the
// Figure 9 weights rank by that cheaper plan. Vertices whose plan is not
// incrementally maintainable (see algebra.Incrementable) keep
// CmIncremental = +Inf and the recompute plan.
func (m *MVPP) DeltaEnabled() bool { return m.delta != nil }

// DeltaSpec returns the installed delta fractions (zero value when delta
// maintenance is off).
func (m *MVPP) DeltaSpec() cost.DeltaSpec {
	if m.delta == nil {
		return cost.DeltaSpec{}
	}
	return *m.delta
}

// MaintenancePlans reports the winning maintenance strategy for each
// materialized view, keyed by vertex name.
func (m *MVPP) MaintenancePlans(mat VertexSet) map[string]MaintenanceStrategy {
	plans := make(map[string]MaintenanceStrategy, len(mat))
	for id, ok := range mat {
		if !ok || id >= len(m.Vertices) {
			continue
		}
		v := m.Vertices[id]
		if v.IsLeaf() {
			continue
		}
		plans[v.Name] = v.MaintStrategy
	}
	return plans
}

// emitMaintenancePlans surfaces the per-view strategy choice as events and
// bumps the incremental-wins counter. Called by SelectViews when delta
// maintenance is installed.
func (m *MVPP) emitMaintenancePlans(o obs.Observer, mat VertexSet) {
	if o == nil || m.delta == nil {
		return
	}
	wins := obs.CounterOf(o, obs.CtrIncrementalWins)
	names := mat.Names(m)
	sort.Strings(names)
	for _, name := range names {
		v, err := m.VertexByName(name)
		if err != nil {
			continue
		}
		obs.Emit(o, obs.EvMaintPlan,
			obs.String("vertex", v.Name),
			obs.String("strategy", v.MaintStrategy.String()),
			obs.Float("cm_recompute", v.CmRecompute),
			obs.Float("cm_incremental", v.CmIncremental))
		if v.MaintStrategy == MaintIncremental {
			wins.Add(1)
		}
	}
}

// deltaTransfer prices shipping one epoch's deltas of the base relations
// below v from their sites to the warehouse (the incremental analogue of
// shipping the full relations for a recompute epoch).
func (m *MVPP) deltaTransfer(v *Vertex) float64 {
	if len(m.Transfer) == 0 || m.delta == nil {
		return 0
	}
	total := 0.0
	for _, rel := range m.BaseRelationsUnder(v) {
		tc, ok := m.Transfer[rel]
		if !ok {
			continue
		}
		leaf := m.Leaves[rel]
		total += tc * leaf.Est.Blocks * m.delta.FractionOf(rel)
	}
	return total
}
