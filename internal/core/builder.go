package core

import (
	"fmt"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
)

// layout orders the vertices of one DAG: each structural class once, in the
// post-order in which the query plans first reach it — inputs before
// consumers, operands in the plan node's own order. It is scratch space,
// reused from one DAG to the next.
type layout struct {
	arena *algebra.Arena
	order []placed
	// slot[c] is class c's position in order, valid while stamp[c] == epoch.
	slot  []int32
	stamp []uint32
	epoch uint32
}

// placed is one vertex-to-be: the first expression of its class the plans
// reached, and the positions of its operands (-1 when absent).
type placed struct {
	id   algebra.ExprID
	expr algebra.Expr
	kids [2]int32
}

func (l *layout) reset() {
	l.order = l.order[:0]
	l.epoch++
}

// add places the expression's class (and, first, its operands') and returns
// its position.
func (l *layout) add(id algebra.ExprID) int32 {
	x := l.arena.Expr(id)
	for int(x.Struct) >= len(l.slot) {
		l.slot = append(l.slot, 0)
		l.stamp = append(l.stamp, 0)
	}
	if l.stamp[x.Struct] == l.epoch {
		return l.slot[x.Struct]
	}
	kids := [2]int32{-1, -1}
	if x.Left != algebra.NoExpr {
		kids[0] = l.add(x.Left)
	}
	if x.Right != algebra.NoExpr {
		kids[1] = l.add(x.Right)
	}
	pos := int32(len(l.order))
	l.order = append(l.order, placed{id, x, kids})
	l.slot[x.Struct], l.stamp[x.Struct] = pos, l.epoch
	return pos
}

// signature identifies the DAG's vertex structure: the sorted structural
// classes of its vertices, exactly encoded.
func (l *layout) signature() string {
	classes := make([]int, len(l.order))
	for i, at := range l.order {
		classes[i] = int(at.expr.Struct)
	}
	sort.Ints(classes)
	return encodeIDs(classes)
}

// encodeIDs renders a list of interned IDs as an exact, comparable string.
func encodeIDs(ids []int) string {
	buf := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

// dagQuery is one query of a DAG under construction.
type dagQuery struct {
	name string
	freq float64
	root int32 // position of the root vertex in the layout
}

// newMVPP turns a layout and its query roots into an MVPP with every
// per-expression annotation filled in. The DAG-wide annotations (Ca,
// weights, reachability) are left to annotate, which only touches the
// MVPP's own memory and may therefore run on another goroutine.
func newMVPP(p *pricer, l *layout, queries []dagQuery) (*MVPP, error) {
	n := len(l.order)
	slab := make([]Vertex, n)
	m := &MVPP{
		Vertices:   make([]*Vertex, n),
		Roots:      make(map[string]*Vertex, len(queries)),
		Leaves:     make(map[string]*Vertex),
		Fq:         make(map[string]float64, len(queries)),
		Fu:         make(map[string]float64),
		QueryOrder: make([]string, len(queries)),
	}
	if p.delta != nil {
		spec := p.delta.Spec()
		m.delta = &spec
	}
	for i, at := range l.order {
		v := &slab[i]
		m.Vertices[i] = v
		v.ID, v.Op = i, at.expr.Node
		if s, ok := v.Op.(*algebra.Scan); ok {
			v.Relation = s.Relation
			m.Leaves[s.Relation] = v
			m.Fu[s.Relation] = p.est.Catalog().UpdateFrequency(s.Relation)
		}
		// In in operand order; Out in the order consumers are created.
		for _, k := range at.kids {
			if k >= 0 {
				v.In = append(v.In, m.Vertices[k])
				m.Vertices[k].Out = append(m.Vertices[k].Out, v)
			}
		}
	}
	for i, q := range queries {
		root := m.Vertices[q.root]
		root.Queries = append(root.Queries, q.name)
		m.Roots[q.name] = root
		m.Fq[q.name] = q.freq
		m.QueryOrder[i] = q.name
	}
	tmpN, resN := 0, 0
	for i, v := range m.Vertices {
		switch {
		case v.IsLeaf():
			v.Name = v.Relation
		case v.IsRoot():
			resN++
			v.Name = vertexName(&p.resultNames, "result", resN)
		default:
			tmpN++
			v.Name = vertexName(&p.tmpNames, "tmp", tmpN)
		}
		row, err := p.price(l.order[i].id, l.order[i].expr)
		if err != nil {
			return nil, err
		}
		v.Est, v.CaSelf, v.CmIncremental, v.MaintFreq = row.est, row.caSelf, row.cmInc, row.maintFreq
	}
	return m, nil
}

// Builder constructs an MVPP from per-query plans: subtrees with the same
// structural identity, within and across queries, become one vertex.
type Builder struct {
	p       *pricer
	roots   []algebra.ExprID
	queries []dagQuery
	names   map[string]bool
	err     error
}

// NewBuilder returns a builder that annotates vertices using the estimator
// and cost model.
func NewBuilder(est *cost.Estimator, model cost.Model) *Builder {
	return &Builder{p: newPricer(est, model, nil), names: make(map[string]bool)}
}

// AddQuery merges the plan for the named query into the DAG. Equal subtrees
// (by structural key) from different queries become shared vertices.
func (b *Builder) AddQuery(name string, freq float64, plan algebra.Node) error {
	if b.err != nil {
		return b.err
	}
	if name == "" {
		return fmt.Errorf("core: query must have a name")
	}
	if b.names[name] {
		return fmt.Errorf("core: duplicate query name %q", name)
	}
	if freq < 0 {
		return fmt.Errorf("core: query %s has negative frequency", name)
	}
	if err := algebra.Validate(plan); err != nil {
		return fmt.Errorf("core: query %s: %w", name, err)
	}
	root := b.p.arena.Intern(plan)
	if b.err = b.priceTree(root); b.err != nil {
		return b.err
	}
	b.names[name] = true
	b.roots = append(b.roots, root)
	b.queries = append(b.queries, dagQuery{name: name, freq: freq})
	return nil
}

// priceTree prices every expression of the plan, inputs first, so that a
// plan the catalog cannot size is rejected when it is added.
func (b *Builder) priceTree(id algebra.ExprID) error {
	x := b.p.arena.Expr(id)
	for _, child := range []algebra.ExprID{x.Left, x.Right} {
		if child != algebra.NoExpr {
			if err := b.priceTree(child); err != nil {
				return err
			}
		}
	}
	_, err := b.p.price(id, x)
	return err
}

// Build finalizes the DAG: orders the vertices, assigns IDs and names,
// pulls update frequencies from the catalog, and computes the
// cumulative-cost, reachability and weight annotations.
func (b *Builder) Build() (*MVPP, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.queries) == 0 {
		return nil, fmt.Errorf("core: MVPP has no queries")
	}
	l := &layout{arena: b.p.arena}
	l.reset()
	for i, root := range b.roots {
		b.queries[i].root = l.add(root)
	}
	m, err := newMVPP(b.p, l, b.queries)
	if err != nil {
		return nil, err
	}
	m.annotate()
	return m, nil
}
