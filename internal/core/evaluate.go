package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
)

// SetIndexedViews toggles §3.2's index argument: "while in our MVPP, if an
// intermediate result is materialized, we can establish a proper index on
// it afterwards". When enabled, a selection whose input is a materialized
// view is priced as an index lookup — traversal (log2 of the stored blocks)
// plus the matching fraction of the blocks — instead of a linear scan.
// Design-time: not safe to call once the MVPP is shared.
func (m *MVPP) SetIndexedViews(on bool) { m.indexedViews = on }

// VertexSet is a set of vertex IDs (a candidate materialization choice).
type VertexSet map[int]bool

// NewVertexSet builds a set from vertices.
func NewVertexSet(vs ...*Vertex) VertexSet {
	s := make(VertexSet, len(vs))
	for _, v := range vs {
		s[v.ID] = true
	}
	return s
}

// Clone copies the set.
func (s VertexSet) Clone() VertexSet {
	out := make(VertexSet, len(s))
	for id, ok := range s {
		if ok {
			out[id] = true
		}
	}
	return out
}

// Names renders the set as sorted vertex names for reporting.
func (s VertexSet) Names(m *MVPP) []string {
	var out []string
	for id, ok := range s {
		if ok && id < len(m.Vertices) {
			out = append(out, m.Vertices[id].Name)
		}
	}
	sort.Strings(out)
	return out
}

// Costs is the §4.1 cost breakdown of one materialization choice.
type Costs struct {
	// Query is Σ_i fq(qi)·C(mv→qi): total frequency-weighted query
	// processing cost.
	Query float64
	// Maintenance is Σ_j fu·C(base→mvj): total frequency-weighted view
	// maintenance cost, with recomputation streams shared between views
	// refreshed in the same epoch.
	Maintenance float64
	// Total = Query + Maintenance.
	Total float64
	// PerQuery breaks Query down by query name (frequency-weighted).
	PerQuery map[string]float64
	// PerView gives each materialized view's standalone maintenance cost
	// (frequency-weighted, without cross-view sharing); the sum can exceed
	// Maintenance when views share recomputation.
	PerView map[string]float64
}

// Evaluate prices a materialization choice on the MVPP.
//
// Query cost: a query rooted at a materialized vertex costs one read of the
// stored result; otherwise the root's operation cost plus the (recursive)
// compute cost of its non-materialized inputs — materialized inputs stream
// for free beyond the operator's own input-reading cost, which CaSelf
// already includes.
//
// Maintenance cost: views with the same maintenance frequency are refreshed
// in the same epoch and share recomputation of common sub-results; other
// materialized views are read, not recomputed. This is the accounting under
// which the paper's Table 2 numbers are internally consistent (see
// EXPERIMENTS.md).
func (m *MVPP) Evaluate(model cost.Model, mat VertexSet) Costs {
	return m.evaluate(model, m.Fq, m.bitsOf(mat))
}

// bitsOf converts a vertex set to the bitset form the evaluation and
// selection loops test membership on.
func (m *MVPP) bitsOf(mat VertexSet) algebra.Bits {
	set := algebra.NewBits(len(m.Vertices))
	for id, ok := range mat {
		if ok && id >= 0 && id < len(m.Vertices) {
			set.Set(id)
		}
	}
	return set
}

// evaluate prices mat with the queries asked fq[name] times per period.
func (m *MVPP) evaluate(model cost.Model, fq map[string]float64, mat algebra.Bits) Costs {
	m.evalCalls.Add(1)
	c := Costs{
		PerQuery: make(map[string]float64, len(m.Roots)),
		PerView:  make(map[string]float64, mat.Count()),
	}

	memo := make([]float64, len(m.Vertices))
	done := make([]bool, len(m.Vertices))
	var compute func(v *Vertex) float64
	compute = func(v *Vertex) float64 {
		if v.IsLeaf() || mat.Has(v.ID) {
			return 0
		}
		if done[v.ID] {
			return memo[v.ID]
		}
		total := m.opCost(v, mat)
		for _, in := range v.In {
			total += compute(in)
		}
		memo[v.ID], done[v.ID] = total, true
		return total
	}

	for _, q := range m.QueryOrder {
		r := m.Roots[q]
		var qc float64
		if mat.Has(r.ID) {
			qc = model.ReadCost(r.Est)
		} else {
			qc = compute(r) + m.transferForLeaves(m.reachedLeaves(r, mat))
		}
		weighted := fq[q] * qc
		c.PerQuery[q] = weighted
		c.Query += weighted
	}

	// Group recompute-maintained views by maintenance frequency; each group
	// shares one recomputation pass per epoch. Views whose winning plan is
	// delta propagation (GenOptions.Delta) are priced individually: each
	// epoch propagates the base deltas through the view's own plan and
	// applies them, so there is no shared recomputation to pool.
	var pooled []*Vertex
	for id := mat.Next(0); id >= 0; id = mat.Next(id + 1) {
		v := m.Vertices[id]
		if v.IsLeaf() {
			continue
		}
		f := v.MaintFreq
		if v.MaintStrategy == MaintIncremental {
			weighted := f * (v.CmIncremental + m.deltaTransfer(v))
			c.PerView[v.Name] = weighted
			c.Maintenance += weighted
			continue
		}
		pooled = append(pooled, v)
		// Standalone per-view cost for reporting.
		rc := v.CaSelf
		for _, in := range v.In {
			rc += compute(in)
		}
		c.PerView[v.Name] = f * rc
	}
	// Groups in ascending frequency, views within a group in ID order:
	// float summation is order-sensitive, so a fixed order keeps repeated
	// evaluations bit-identical.
	sort.SliceStable(pooled, func(i, j int) bool { return pooled[i].MaintFreq < pooled[j].MaintFreq })
	for len(pooled) > 0 {
		f, n := pooled[0].MaintFreq, 1
		for n < len(pooled) && pooled[n].MaintFreq == f {
			n++
		}
		views := pooled[:n]
		pooled = pooled[n:]
		epoch, leaves := m.sharedRecompute(views, mat)
		c.Maintenance += f * (epoch + m.transferForLeaves(leaves))
	}
	c.Total = c.Query + c.Maintenance
	return c
}

// opCost prices executing v's operation given the materialized set: with
// indexed views enabled, a selection reading a materialized input becomes
// an index lookup (tree traversal + matching blocks) instead of a scan.
func (m *MVPP) opCost(v *Vertex, mat algebra.Bits) float64 {
	if !m.indexedViews {
		return v.CaSelf
	}
	if _, isSelect := v.Op.(*algebra.Select); !isSelect || len(v.In) != 1 || !mat.Has(v.In[0].ID) {
		return v.CaSelf
	}
	in := v.In[0].Est
	traverse := 1.0
	if in.Blocks > 1 {
		traverse = math.Ceil(math.Log2(in.Blocks))
	}
	indexed := traverse + v.Est.Blocks
	if indexed < v.CaSelf {
		return indexed
	}
	return v.CaSelf
}

// sharedRecompute prices one refresh epoch for a group of views: every
// vertex in the union of their recomputation DAGs executes once;
// materialized vertices — of this group, refreshed in the same epoch and
// accounted by their own traversal, or outside it — are read, not
// recomputed. The second result is the set of leaf vertices the epoch reads
// (shipped once each when the warehouse is distributed); it is only
// collected for a distributed warehouse.
func (m *MVPP) sharedRecompute(views []*Vertex, mat algebra.Bits) (float64, algebra.Bits) {
	seen := algebra.NewBits(len(m.Vertices))
	var leaves algebra.Bits
	if len(m.Transfer) > 0 {
		leaves = algebra.NewBits(len(m.Vertices))
	}
	total := 0.0
	var acc func(v *Vertex)
	acc = func(v *Vertex) {
		if seen.Has(v.ID) {
			return
		}
		seen.Set(v.ID)
		if v.IsLeaf() {
			if leaves != nil {
				leaves.Set(v.ID)
			}
			return
		}
		total += v.CaSelf
		for _, in := range v.In {
			if !mat.Has(in.ID) {
				acc(in)
			}
		}
	}
	for _, v := range views {
		// The view itself is always recomputed, even though it is
		// materialized.
		acc(v)
	}
	return total, leaves
}

// EvaluateNames is Evaluate over vertex display names — convenient for
// reproducing the paper's Table 2 strategies.
func (m *MVPP) EvaluateNames(model cost.Model, names []string) (Costs, error) {
	return m.evaluateNames(model, m.Fq, names)
}

func (m *MVPP) evaluateNames(model cost.Model, fq map[string]float64, names []string) (Costs, error) {
	mat := algebra.NewBits(len(m.Vertices))
	for _, n := range names {
		v, err := m.VertexByName(n)
		if err != nil {
			return Costs{}, err
		}
		if v.IsLeaf() {
			return Costs{}, fmt.Errorf("core: %s is a base relation, not a materialization candidate", n)
		}
		mat.Set(v.ID)
	}
	return m.evaluate(model, fq, mat), nil
}
