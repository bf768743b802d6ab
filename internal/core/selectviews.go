package core

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/obs"
)

// TraceAction records what the selection heuristic did with a vertex.
type TraceAction string

// Actions appearing in a selection trace.
const (
	ActionMaterialize  TraceAction = "materialize"   // Cs > 0, added to M
	ActionReject       TraceAction = "reject"        // Cs ≤ 0
	ActionPruneBranch  TraceAction = "prune-branch"  // removed with a rejected same-branch vertex
	ActionDropCovered  TraceAction = "drop-covered"  // step 9: all consumers materialized
	ActionSkipAncestor TraceAction = "skip-ancestor" // a materialized ancestor already covers it
	ActionSafeguard    TraceAction = "safeguard"     // a baseline strategy replaced the greedy choice
)

// TraceStep is one decision of the Figure 9 heuristic.
type TraceStep struct {
	Vertex string
	Weight float64
	Cs     float64
	Action TraceAction
	Note   string
}

// SelectionResult is the outcome of the view-selection heuristic.
type SelectionResult struct {
	Materialized VertexSet
	Costs        Costs
	Trace        []TraceStep
	// Plans maps each materialized view's name to the maintenance strategy
	// behind its Cm (all-recompute unless GenOptions.Delta priced delta propagation).
	Plans map[string]MaintenanceStrategy
}

// SelectOptions tunes the heuristic; the zero value is the paper algorithm.
type SelectOptions struct {
	// NoBranchPruning disables step 7 (removing same-branch successors of a
	// rejected vertex) — an ablation knob; the search then considers every
	// positive-weight vertex.
	NoBranchPruning bool
	// DiscountedMaintenance is an extension: the paper's Cs charges a
	// candidate its full from-base recompute cost even when its inputs are
	// already materialized, which makes the heuristic undervalue stacking a
	// cheap summary on top of a materialized join. With this option the
	// maintenance term is the recompute cost *given* the current M.
	DiscountedMaintenance bool
	// Obs receives the selection span, one EvSelectStep event per Figure 9
	// trace step, and the greedy-iterations counter. Nil disables
	// instrumentation.
	Obs obs.Observer
}

// SelectViews runs the greedy heuristic of paper Figure 9 on the MVPP:
// order candidate vertices by descending weight w(v); for each, compute the
// incremental gain Cs of materializing it given what is already in M;
// accept when Cs > 0; on rejection prune the not-yet-considered vertices on
// the same branch; finally drop vertices all of whose consumers are
// materialized.
func (m *MVPP) SelectViews(model cost.Model, opts SelectOptions) *SelectionResult {
	return m.selectViews(model, m.own, opts)
}

// selectViews is SelectViews under the given frequencies: the MVPP's own,
// or a live warehouse's observed ones (ReselectFrequencies).
func (m *MVPP) selectViews(model cost.Model, fr frequencies, opts SelectOptions) *SelectionResult {
	res := &SelectionResult{}
	w := fr.weight

	sp := obs.Start(opts.Obs, "select", obs.Int("vertices", int64(len(m.Vertices))))
	defer obs.End(sp)
	iterations := obs.CounterOf(opts.Obs, obs.CtrGreedyIterations)

	// Step 2: LV = positive-weight candidates in descending weight order.
	var lv []*Vertex
	for _, v := range m.Vertices {
		if !v.IsLeaf() && w[v.ID] > 0 {
			lv = append(lv, v)
		}
	}
	sort.SliceStable(lv, func(i, j int) bool { return w[lv[i].ID] > w[lv[j].ID] })

	mat := algebra.NewBits(len(m.Vertices))
	removed := algebra.NewBits(len(m.Vertices))
	for _, v := range lv {
		if removed.Has(v.ID) {
			continue
		}
		iterations.Add(1)
		// Skip-ancestor refinement (paper's tmp1-vs-tmp2 example: "since its
		// parent tmp2 is already in M, tmp1 is ignored"): a vertex whose
		// every consumer path is already covered by a materialized ancestor
		// contributes nothing.
		if anc := m.materializedAncestorCovers(v, mat); anc != nil {
			res.Trace = append(res.Trace, TraceStep{
				Vertex: v.Name, Weight: w[v.ID], Action: ActionSkipAncestor,
				Note: "covered by materialized " + anc.Name,
			})
			continue
		}
		cs := m.incrementalGain(fr.ordered, v, mat, opts.DiscountedMaintenance)
		if cs > 0 {
			mat.Set(v.ID)
			res.Trace = append(res.Trace, TraceStep{Vertex: v.Name, Weight: w[v.ID], Cs: cs, Action: ActionMaterialize})
			continue
		}
		res.Trace = append(res.Trace, TraceStep{Vertex: v.Name, Weight: w[v.ID], Cs: cs, Action: ActionReject})
		if opts.NoBranchPruning {
			continue
		}
		// Step 7: drop later vertices on the same branch.
		for _, u := range lv {
			sameBranch := m.anc[v.ID].Has(u.ID) || m.desc[v.ID].Has(u.ID)
			if w[u.ID] < w[v.ID] && sameBranch && !removed.Has(u.ID) && !mat.Has(u.ID) {
				removed.Set(u.ID)
				res.Trace = append(res.Trace, TraceStep{
					Vertex: u.Name, Weight: w[u.ID], Action: ActionPruneBranch,
					Note: "same branch as rejected " + v.Name,
				})
			}
		}
	}

	// Step 9: ∀v ∈ M, if D(v) ⊆ M then v is never read at query time nor
	// used for maintenance short-cuts — drop it.
	for changed := true; changed; {
		changed = false
		for id := mat.Next(0); id >= 0; id = mat.Next(id + 1) {
			v := m.Vertices[id]
			if v.IsRoot() {
				continue
			}
			all := len(v.Out) > 0
			for _, out := range v.Out {
				if !mat.Has(out.ID) {
					all = false
					break
				}
			}
			if all {
				mat.Clear(id)
				res.Trace = append(res.Trace, TraceStep{Vertex: v.Name, Action: ActionDropCovered,
					Note: "all consumers materialized"})
				changed = true
			}
		}
	}

	res.Materialized = make(VertexSet, mat.Count())
	for id := mat.Next(0); id >= 0; id = mat.Next(id + 1) {
		res.Materialized[id] = true
	}
	res.Costs = m.evaluate(model, fr.byName, mat)
	res.Plans = m.MaintenancePlans(res.Materialized)
	m.emitMaintenancePlans(obs.From(sp), res.Materialized)
	if sp != nil {
		for _, step := range res.Trace {
			sp.Event(obs.EvSelectStep,
				obs.String("vertex", step.Vertex),
				obs.String("action", string(step.Action)),
				obs.Float("weight", step.Weight),
				obs.Float("cs", step.Cs),
				obs.String("note", step.Note))
		}
		sp.Annotate(obs.Int("materialized", int64(len(res.Materialized))),
			obs.Float("total", res.Costs.Total))
	}
	return res
}

// IncrementalGain computes the paper's Cs for vertex v given the current
// materialized set M:
//
//	Cs = Σ_{q ∈ O_v} fq(q)·(Ca(v) − Σ_{u ∈ S_v ∩ M} Ca(u)) − fu(v)·Cm(v)
//
// i.e. the frequency-weighted saving of answering v's queries from a
// materialized v rather than from its already-materialized descendants,
// minus v's maintenance cost.
func (m *MVPP) IncrementalGain(v *Vertex, mat VertexSet) float64 {
	return m.incrementalGain(m.own.ordered, v, m.bitsOf(mat), false)
}

// incrementalGain is IncrementalGain on the bitset form of M, under fq in
// qnames order. With discounted set, the maintenance term is priced as
// recomputation given M (materialized descendants are read, not recomputed).
func (m *MVPP) incrementalGain(fq []float64, v *Vertex, mat algebra.Bits, discounted bool) float64 {
	replicated := 0.0
	desc := m.desc[v.ID]
	for id := desc.Next(0); id >= 0; id = desc.Next(id + 1) {
		if mat.Has(id) {
			replicated += m.Vertices[id].Ca
		}
	}
	saving := m.saving(fq, v, v.Ca-replicated)
	if !discounted {
		return saving - v.MaintFreq*v.Cm
	}
	// Recompute cost of v with mat's members readable.
	memo := make([]float64, len(m.Vertices))
	done := make([]bool, len(m.Vertices))
	var compute func(u *Vertex) float64
	compute = func(u *Vertex) float64 {
		if u.IsLeaf() || mat.Has(u.ID) {
			return 0
		}
		if done[u.ID] {
			return memo[u.ID]
		}
		c := u.CaSelf
		for _, in := range u.In {
			c += compute(in)
		}
		memo[u.ID], done[u.ID] = c, true
		return c
	}
	rc := v.CaSelf
	for _, in := range v.In {
		rc += compute(in)
	}
	// With delta maintenance installed, the vertex would be refreshed by
	// whichever plan is cheaper — discounted recomputation or delta
	// propagation.
	if v.CmIncremental < rc {
		rc = v.CmIncremental
	}
	return saving - v.MaintFreq*rc
}

// materializedAncestorCovers returns a materialized ancestor of v that is
// used by every query using v (so materializing v adds nothing), or nil.
func (m *MVPP) materializedAncestorCovers(v *Vertex, mat algebra.Bits) *Vertex {
	anc := m.anc[v.ID]
	for id := anc.Next(0); id >= 0; id = anc.Next(id + 1) {
		if mat.Has(id) && m.users[v.ID].SubsetOf(m.users[id]) {
			return m.Vertices[id]
		}
	}
	return nil
}

// MaxExhaustiveCandidates bounds the exhaustive search (2^n subsets).
const MaxExhaustiveCandidates = 22

// ExhaustiveResult is the outcome of the brute-force search.
type ExhaustiveResult struct {
	Materialized VertexSet
	Costs        Costs
	Subsets      int // how many subsets were evaluated
}

// ExhaustiveOptimal evaluates every subset of the inner vertices and
// returns a minimum-total-cost choice. It is exponential and refuses MVPPs
// with more than MaxExhaustiveCandidates inner vertices; it exists as the
// ground-truth baseline for the Figure 9 heuristic.
func (m *MVPP) ExhaustiveOptimal(model cost.Model) (*ExhaustiveResult, error) {
	cands := m.InnerVertices()
	if len(cands) > MaxExhaustiveCandidates {
		return nil, fmt.Errorf("core: %d candidates exceed the exhaustive-search bound %d",
			len(cands), MaxExhaustiveCandidates)
	}
	best := &ExhaustiveResult{}
	first := true
	total := uint32(1) << uint(len(cands))
	for mask := uint32(0); mask < total; mask++ {
		mat := make(VertexSet, bits.OnesCount32(mask))
		for i, v := range cands {
			if mask&(1<<uint(i)) != 0 {
				mat[v.ID] = true
			}
		}
		c := m.Evaluate(model, mat)
		if first || c.Total < best.Costs.Total {
			best.Materialized = mat
			best.Costs = c
			first = false
		}
	}
	best.Subsets = int(total)
	return best, nil
}

// AllVirtual returns the empty choice (paper Table 2 row 1: only base
// relations stored).
func (m *MVPP) AllVirtual(model cost.Model) Costs {
	return m.Evaluate(model, VertexSet{})
}

// AllQueriesMaterialized materializes every query root (Table 2 row 5).
func (m *MVPP) AllQueriesMaterialized(model cost.Model) Costs {
	mat := make(VertexSet, len(m.Roots))
	for _, r := range m.Roots {
		mat[r.ID] = true
	}
	return m.Evaluate(model, mat)
}
