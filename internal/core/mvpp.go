// Package core implements the paper's primary contribution: the Multiple
// View Processing Plan (MVPP) and the materialized-view design algorithms
// built on it.
//
// An MVPP is a labeled DAG M = (V, A, R, Ca, Cm, fq, fu) — paper §3.1 —
// whose leaf vertices are base relations annotated with update frequencies
// fu, whose root vertices are warehouse queries annotated with access
// frequencies fq, and whose inner vertices are relational operations.
// Ca(v) is the cost of computing v's relation from base relations and Cm(v)
// the cost of maintaining v if materialized.
//
// The package provides:
//
//   - Builder / MVPP: DAG construction over the estimator's expression
//     arena, where plan subtrees with the same structural identity — across
//     queries — are one vertex (§3.1 problem 1);
//   - Generate: the multiple-MVPP generation algorithm of Figure 4
//     (push-up, rotation merge on shared join patterns, push-down of common
//     selections and projections);
//   - SelectViews: the greedy view-selection heuristic of Figure 9, with a
//     step-by-step trace, plus an exhaustive-search baseline;
//   - Evaluate: the total-cost model Σ fq·C(query) + Σ fu·C(maintenance)
//     of §4.1 for any candidate set of materialized views.
package core

import (
	"fmt"
	"sort"
	"sync"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/obs"
)

// Vertex is one node of an MVPP.
type Vertex struct {
	// ID is the vertex's position in MVPP.Vertices (topological order:
	// every vertex appears after its inputs).
	ID int
	// Op is the relational operation computing the vertex's relation R(v);
	// a *algebra.Scan for leaves. Plans with the same structural identity
	// (algebra.StructuralKey) share one vertex; Op is the first of them the
	// DAG saw.
	Op algebra.Node
	// In lists the operand vertices (S(v)), in operand order.
	In []*Vertex
	// Out lists the consuming vertices (D(v)).
	Out []*Vertex
	// Queries lists the names of queries whose result this vertex is
	// (non-empty only for roots).
	Queries []string
	// Relation is the base relation name (non-empty only for leaves).
	Relation string
	// Name is the display label assigned at build time: the relation name
	// for leaves, "resultN" for query roots, "tmpN" for inner vertices.
	Name string

	// Est is the estimated size of R(v).
	Est cost.Estimate
	// CaSelf is the incremental cost of executing just this operation given
	// its inputs.
	CaSelf float64
	// Ca is the cumulative cost of computing R(v) from base relations
	// (each shared descendant counted once). Ca = 0 for leaves.
	Ca float64
	// Cm is the effective cost of maintaining the vertex if materialized:
	// the cheaper of CmRecompute and CmIncremental. Without delta
	// maintenance (GenOptions.Delta) it equals CmRecompute, the paper's
	// policy (§2: "re-computing is used whenever an update of involved base
	// relation occurs").
	Cm float64
	// CmRecompute is the from-base recomputation maintenance cost (= Ca).
	CmRecompute float64
	// CmIncremental is the delta-propagation maintenance cost, +Inf when
	// delta maintenance is off or the plan is not incrementally
	// maintainable (see algebra.Incrementable).
	CmIncremental float64
	// MaintStrategy records which maintenance plan Cm reflects.
	MaintStrategy MaintenanceStrategy
	// MaintFreq is how many times per period the vertex is recomputed if
	// materialized (derived from the fu of the base relations below it).
	MaintFreq float64
	// Weight is the paper's w(v) ranking value.
	Weight float64
}

// IsLeaf reports whether the vertex is a base relation.
func (v *Vertex) IsLeaf() bool { return v.Relation != "" }

// IsRoot reports whether the vertex is a query result.
func (v *Vertex) IsRoot() bool { return len(v.Queries) > 0 }

// Label returns a short human-readable description of the vertex.
func (v *Vertex) Label() string {
	if v.IsLeaf() {
		return v.Relation
	}
	return v.Name + ": " + v.Op.Label()
}

// MVPP is the multiple view processing plan DAG. It is read-only once built:
// Build, and the design-time setters SetObserver, SetIndexedViews and
// ApplyDistribution that the designer calls before it hands the plan out, are
// the only writers. Everything else — selection, evaluation, re-selection
// under other frequencies — reads it and may run concurrently.
type MVPP struct {
	// Vertices in topological order (inputs before consumers).
	Vertices []*Vertex
	// Roots maps query name to its root vertex.
	Roots map[string]*Vertex
	// Leaves maps base relation name to its leaf vertex.
	Leaves map[string]*Vertex
	// Fq maps query name to access frequency.
	Fq map[string]float64
	// Fu maps base relation name to update frequency.
	Fu map[string]float64
	// QueryOrder preserves the order queries were added in.
	QueryOrder []string
	// Transfer holds the per-block shipping cost of each base relation
	// whose site differs from the warehouse (nil when co-located). Set via
	// ApplyDistribution; used by Evaluate.
	Transfer map[string]float64

	// delta holds the fractions delta-propagation maintenance was priced
	// under (nil when delta maintenance is off).
	delta *cost.DeltaSpec
	// indexedViews prices selections over materialized views as index
	// lookups; see SetIndexedViews.
	indexedViews bool
	// evalCalls counts Evaluate invocations; see SetObserver. Nil (a no-op)
	// when observability is off.
	evalCalls *obs.Counter

	// Reachability, filled by one topological sweep each way when the DAG
	// is built. Row v of desc (anc) holds the IDs of the vertices reachable
	// from v over In (Out) edges — S*{v} and D*{v}; row v of users holds
	// O_v, the queries whose result depends on v, as positions in qnames.
	desc, anc, users []algebra.Bits
	// qnames lists the query names sorted, so that walking a users row in
	// bit order adds frequency terms in name order; own is Fq in the forms
	// the cost functions read.
	qnames []string
	own    frequencies

	byKey struct {
		once sync.Once
		m    map[string]*Vertex
	}
}

// frequencies is one assignment of access frequencies to the MVPP's queries,
// in the three forms the cost functions read: the designer's own (Fq) or the
// ones a live warehouse observed, handed to the same code as an argument.
type frequencies struct {
	byName  map[string]float64 // fq(q); a query that is absent has frequency 0
	ordered []float64          // the same in qnames order
	weight  []float64          // w(v) under them, by vertex ID
}

// under returns fq in those forms. Reachability, Ca and Cm must be in place.
func (m *MVPP) under(fq map[string]float64) frequencies {
	buf := make([]float64, len(m.qnames)+len(m.Vertices))
	fr := frequencies{byName: fq, ordered: buf[:len(m.qnames)], weight: buf[len(m.qnames):]}
	for i, q := range m.qnames {
		fr.ordered[i] = fq[q]
	}
	for _, v := range m.Vertices {
		fr.weight[v.ID] = m.weightUnder(fr.ordered, v)
	}
	return fr
}

// SetObserver wires the MVPP's evaluation counter into the observer's
// registry. A nil observer disables instrumentation again. Design-time: not
// safe to call once the MVPP is shared.
func (m *MVPP) SetObserver(o obs.Observer) {
	m.evalCalls = obs.CounterOf(o, obs.CtrEvaluateCalls)
}

// annotate computes what depends on the DAG as a whole: reachability, Ca,
// the effective maintenance plan and the weights. Vertices are already in
// topological order.
func (m *MVPP) annotate() {
	m.sweep()
	// Ca: cumulative cost, each shared descendant counted once, added in
	// depth-first operand order from the vertex down.
	seen := make([]int, len(m.Vertices))
	var total float64
	var acc func(u *Vertex, mark int)
	acc = func(u *Vertex, mark int) {
		if seen[u.ID] == mark {
			return
		}
		seen[u.ID] = mark
		total += u.CaSelf
		for _, in := range u.In {
			acc(in, mark)
		}
	}
	for _, v := range m.Vertices {
		v.MaintStrategy = MaintRecompute
		if v.IsLeaf() {
			v.Ca, v.Cm, v.CmRecompute = 0, 0, 0
			continue
		}
		total = 0
		acc(v, v.ID+1)
		v.Ca, v.CmRecompute, v.Cm = total, total, total
		if v.CmIncremental < v.CmRecompute {
			v.Cm, v.MaintStrategy = v.CmIncremental, MaintIncremental
		}
	}
	m.own = m.under(m.Fq)
	for _, v := range m.Vertices {
		v.Weight = m.own.weight[v.ID]
	}
}

// sweep fills the reachability rows: descendants in one pass up the
// topological order, ancestors and using queries in one pass down it.
func (m *MVPP) sweep() {
	n := len(m.Vertices)
	m.qnames = append([]string(nil), m.QueryOrder...)
	sort.Strings(m.qnames)
	rank := make(map[string]int, len(m.qnames))
	for i, q := range m.qnames {
		rank[q] = i
	}
	vw, qw := (n+63)/64, (len(m.qnames)+63)/64
	slab := make(algebra.Bits, n*(2*vw+qw))
	row := func(w int) algebra.Bits {
		r := slab[:w:w]
		slab = slab[w:]
		return r
	}
	m.desc, m.anc, m.users = make([]algebra.Bits, n), make([]algebra.Bits, n), make([]algebra.Bits, n)
	for i, v := range m.Vertices {
		m.desc[i], m.anc[i], m.users[i] = row(vw), row(vw), row(qw)
		for _, in := range v.In {
			m.desc[i].Or(m.desc[in.ID])
			m.desc[i].Set(in.ID)
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := m.Vertices[i]
		for _, q := range v.Queries {
			m.users[i].Set(rank[q])
		}
		for _, out := range v.Out {
			m.anc[i].Or(m.anc[out.ID])
			m.anc[i].Set(out.ID)
			m.users[i].Or(m.users[out.ID])
		}
	}
}

// MaintenanceFrequency returns how often per period a materialized v is
// recomputed: the maximum update frequency among the base relations below
// it.
func (m *MVPP) MaintenanceFrequency(v *Vertex) float64 { return v.MaintFreq }

// WeightOf computes the paper's ranking weight
//
//	w(v) = Σ_{q ∈ O_v} fq(q)·Ca(v) − fu(v)·Cm(v)
//
// where O_v is the set of queries using v and fu(v) is the vertex's
// maintenance frequency.
func (m *MVPP) WeightOf(v *Vertex) float64 { return m.weightUnder(m.own.ordered, v) }

func (m *MVPP) weightUnder(fq []float64, v *Vertex) float64 {
	if v.IsLeaf() {
		return 0
	}
	return m.saving(fq, v, v.Ca) - v.MaintFreq*v.Cm
}

// saving returns Σ_{q ∈ O_v} fq(q)·perQuery for fq in qnames order, adding
// the terms in that order.
func (m *MVPP) saving(fq []float64, v *Vertex, perQuery float64) float64 {
	total := 0.0
	users := m.users[v.ID]
	for q := users.Next(0); q >= 0; q = users.Next(q + 1) {
		total += fq[q] * perQuery
	}
	return total
}

// Ancestors returns D*{v}: every vertex reachable from v via out-edges, in
// ID order.
func (m *MVPP) Ancestors(v *Vertex) []*Vertex { return m.members(m.anc[v.ID]) }

// Descendants returns S*{v}: every vertex reachable from v via in-edges, in
// ID order.
func (m *MVPP) Descendants(v *Vertex) []*Vertex { return m.members(m.desc[v.ID]) }

func (m *MVPP) members(set algebra.Bits) []*Vertex {
	out := make([]*Vertex, 0, set.Count())
	for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
		out = append(out, m.Vertices[i])
	}
	return out
}

// QueriesUsing returns O_v: the names of queries whose result depends on v
// (including queries rooted at v itself), sorted.
func (m *MVPP) QueriesUsing(v *Vertex) []string {
	users := m.users[v.ID]
	out := make([]string, 0, users.Count())
	for q := users.Next(0); q >= 0; q = users.Next(q + 1) {
		out = append(out, m.qnames[q])
	}
	return out
}

// BaseRelationsUnder returns I_v: the base relations v is computed from,
// sorted. For a leaf this is the relation itself.
func (m *MVPP) BaseRelationsUnder(v *Vertex) []string {
	if v.IsLeaf() {
		return []string{v.Relation}
	}
	var out []string
	for _, d := range m.Descendants(v) {
		if d.IsLeaf() {
			out = append(out, d.Relation)
		}
	}
	sort.Strings(out)
	return out
}

// VertexByName finds a vertex by its display name ("tmp2", "result1",
// "Division", ...).
func (m *MVPP) VertexByName(name string) (*Vertex, error) {
	for _, v := range m.Vertices {
		if v.Name == name {
			return v, nil
		}
	}
	return nil, fmt.Errorf("core: no vertex named %q", name)
}

// VertexOf returns the vertex computing the plan node's relation under the
// DAG's sharing identity (algebra.StructuralKey), or nil. The key index is
// built on first use: only an MVPP that is rendered or explained pays for
// key strings.
func (m *MVPP) VertexOf(n algebra.Node) *Vertex {
	m.byKey.once.Do(func() {
		m.byKey.m = make(map[string]*Vertex, len(m.Vertices))
		for _, v := range m.Vertices {
			m.byKey.m[algebra.StructuralKey(v.Op)] = v
		}
	})
	return m.byKey.m[algebra.StructuralKey(n)]
}

// InnerVertices returns the non-leaf vertices (materialization candidates),
// in topological order. Query roots are included: materializing a whole
// query result is one of the paper's strategies.
func (m *MVPP) InnerVertices() []*Vertex {
	var out []*Vertex
	for _, v := range m.Vertices {
		if !v.IsLeaf() {
			out = append(out, v)
		}
	}
	return out
}

// Validate checks DAG invariants: topological order, edge symmetry, roots
// reachable, leaves are scans.
func (m *MVPP) Validate() error {
	member := func(v *Vertex) bool {
		return v.ID >= 0 && v.ID < len(m.Vertices) && m.Vertices[v.ID] == v
	}
	for i, v := range m.Vertices {
		if v.ID != i {
			return fmt.Errorf("core: vertex %s has ID %d at position %d", v.Name, v.ID, i)
		}
	}
	for _, v := range m.Vertices {
		for _, in := range v.In {
			if !member(in) {
				return fmt.Errorf("core: vertex %s has foreign input", v.Name)
			}
			if in.ID >= v.ID {
				return fmt.Errorf("core: vertex %s input %s violates topological order", v.Name, in.Name)
			}
			if !containsVertex(in.Out, v) {
				return fmt.Errorf("core: edge %s→%s missing reverse link", in.Name, v.Name)
			}
		}
		for _, out := range v.Out {
			if !containsVertex(out.In, v) {
				return fmt.Errorf("core: edge %s→%s missing forward link", v.Name, out.Name)
			}
		}
		if v.IsLeaf() {
			if len(v.In) != 0 {
				return fmt.Errorf("core: leaf %s has inputs", v.Name)
			}
		} else if len(v.In) == 0 {
			return fmt.Errorf("core: inner vertex %s has no inputs", v.Name)
		}
	}
	for q, r := range m.Roots {
		if !member(r) {
			return fmt.Errorf("core: root of %s not in vertex list", q)
		}
	}
	return nil
}

func containsVertex(vs []*Vertex, v *Vertex) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}
