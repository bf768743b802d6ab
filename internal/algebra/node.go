package algebra

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Node is a logical relational-algebra plan node. A plan is a tree; the MVPP
// layer merges equivalent subtrees from different queries into a DAG using
// the canonical keys defined here.
type Node interface {
	// Schema returns the output schema of the node.
	Schema() *Schema
	// Children returns the input nodes, left to right.
	Children() []Node
	// Canonical returns a canonical string encoding of the subtree that is
	// order-sensitive for join inputs (i.e. it identifies a particular
	// physical shape).
	Canonical() string
	// Label returns a short human-readable description of just this
	// operation (used by plan and MVPP renderers).
	Label() string
}

// lazySchema resolves a node's output schema on first use and publishes it
// through an atomic pointer: plan nodes are shared between the generator's
// rotation workers and the serving layer's concurrent misses, so nothing on a
// node may be written unsynchronised after construction. Concurrent first
// calls may both resolve; every caller sees the one that was stored first.
type lazySchema struct{ p atomic.Pointer[Schema] }

func (l *lazySchema) get(resolve func() *Schema) *Schema {
	if s := l.p.Load(); s != nil {
		return s
	}
	l.p.CompareAndSwap(nil, resolve())
	return l.p.Load()
}

// lazyLabel keeps a node's Label, rendered on first use, the way lazySchema
// keeps its schema: an executed σ, ⋈ or γ names its operator stats with it,
// so a plan run again renders nothing.
type lazyLabel struct{ p atomic.Pointer[string] }

func (l *lazyLabel) get(render func() string) string {
	if s := l.p.Load(); s != nil {
		return *s
	}
	s := render()
	l.p.CompareAndSwap(nil, &s)
	return *l.p.Load()
}

// validMark records that Validate accepted a node's whole subtree. It
// assumes what lazySchema does, that a node is immutable once built, so a
// plan validated once is validated for good; a plan Validate refuses is
// never marked and is checked, and refused, again on every call.
type validMark struct{ ok atomic.Bool }

// Scan reads a base relation.
type Scan struct {
	Relation string
	Rel      *Schema

	ident ident
	valid validMark
}

var _ Node = (*Scan)(nil)

// NewScan builds a scan over the named relation with the given schema.
func NewScan(relation string, schema *Schema) *Scan {
	return &Scan{Relation: relation, Rel: schema}
}

// Schema implements Node.
func (s *Scan) Schema() *Schema { return s.Rel }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Canonical implements Node.
func (s *Scan) Canonical() string { return "scan(" + s.Relation + ")" }

// Label implements Node.
func (s *Scan) Label() string { return s.Relation }

// Select filters its input by a predicate.
type Select struct {
	Input Node
	Pred  Predicate

	label lazyLabel
	ident ident
	valid validMark
}

var _ Node = (*Select)(nil)

// NewSelect builds a selection. A nil predicate is rejected at plan
// validation time (Validate); construction is permissive to keep rewrites
// simple.
func NewSelect(input Node, pred Predicate) *Select {
	return &Select{Input: input, Pred: pred}
}

// Schema implements Node.
func (s *Select) Schema() *Schema { return s.Input.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// Canonical implements Node.
func (s *Select) Canonical() string {
	return "select[" + predString(s.Pred) + "](" + s.Input.Canonical() + ")"
}

// Label implements Node.
func (s *Select) Label() string {
	return s.label.get(func() string { return "σ " + predString(s.Pred) })
}

// Project restricts its input to the referenced columns.
type Project struct {
	Input Node
	Cols  []ColumnRef

	schema   lazySchema
	resolved atomic.Pointer[Projection]
	ident    ident
	valid    validMark
}

var _ Node = (*Project)(nil)

// Projection is a projection resolved against one input schema: the
// output schema, the input position each output column reads, and the
// node's Label.
type Projection struct {
	in    *Schema
	Out   *Schema
	Idx   []int
	Label string
}

// NewProject builds a projection onto the given columns.
func NewProject(input Node, cols []ColumnRef) *Project {
	cp := make([]ColumnRef, len(cols))
	copy(cp, cols)
	return &Project{Input: input, Cols: cp}
}

// Schema implements Node. An unresolvable projection column yields a
// best-effort schema with the offending columns omitted; Validate reports
// the error properly.
func (p *Project) Schema() *Schema {
	return p.schema.get(func() *Schema {
		in := p.Input.Schema()
		cols := make([]Column, 0, len(p.Cols))
		for _, ref := range p.Cols {
			if i := in.IndexOf(ref); i >= 0 {
				cols = append(cols, in.Columns[i])
			}
		}
		return &Schema{Columns: cols}
	})
}

// Resolve resolves the projection against the schema of the input it
// executes on, failing when a column is missing or ambiguous. The node keeps
// its last resolution: a later call on an input with the same columns — the
// same stored relation, or a join's freshly concatenated schema — returns
// it without allocating, so a plan executed again resolves nothing.
func (p *Project) Resolve(in *Schema) (*Projection, error) {
	if r := p.resolved.Load(); r != nil && (r.in == in || r.in.Equal(in)) {
		return r, nil
	}
	out, err := in.Project(p.Cols)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(p.Cols))
	for i, ref := range p.Cols {
		idx[i] = in.IndexOf(ref) // Project resolved every ref: no miss, no ambiguity
	}
	r := &Projection{in: in, Out: out, Idx: idx, Label: p.Label()}
	p.resolved.Store(r)
	return r, nil
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Canonical implements Node. Column order is not semantically significant
// for view sharing, so the canonical form sorts columns.
func (p *Project) Canonical() string {
	return "project[" + refsString(p.Cols, true) + "](" + p.Input.Canonical() + ")"
}

// Label implements Node.
func (p *Project) Label() string { return "π " + refsString(p.Cols, false) }

// JoinCond is one equality condition of an equi-join.
type JoinCond struct {
	Left  ColumnRef // resolves against the left input
	Right ColumnRef // resolves against the right input
}

// String renders "left = right".
func (c JoinCond) String() string { return c.Left.String() + " = " + c.Right.String() }

// CanonicalString renders the condition with its sides ordered
// lexicographically, so that A⋈B and B⋈A conditions agree.
func (c JoinCond) CanonicalString() string {
	l, r := c.Left.String(), c.Right.String()
	if r < l {
		l, r = r, l
	}
	return l + " = " + r
}

// Join is an equi-join (the paper's framework is select-project-join).
type Join struct {
	Left  Node
	Right Node
	On    []JoinCond

	schema lazySchema
	label  lazyLabel
	ident  ident
	valid  validMark
}

var _ Node = (*Join)(nil)

// NewJoin builds an equi-join.
func NewJoin(left, right Node, on []JoinCond) *Join {
	cp := make([]JoinCond, len(on))
	copy(cp, on)
	return &Join{Left: left, Right: right, On: cp}
}

// Schema implements Node.
func (j *Join) Schema() *Schema {
	return j.schema.get(func() *Schema { return j.Left.Schema().Concat(j.Right.Schema()) })
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Canonical implements Node.
func (j *Join) Canonical() string {
	return "join[" + j.condString() + "](" + j.Left.Canonical() + ", " + j.Right.Canonical() + ")"
}

func (j *Join) condString() string {
	parts := make([]string, len(j.On))
	for i, c := range j.On {
		parts[i] = c.CanonicalString()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

// Label implements Node.
func (j *Join) Label() string {
	return j.label.get(func() string { return "⋈ " + j.condString() })
}

// predString renders a possibly nil predicate.
func predString(p Predicate) string {
	if p == nil {
		return "true"
	}
	return p.String()
}

// refsString renders column references, optionally in sorted canonical
// order.
func refsString(refs []ColumnRef, canonical bool) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	if canonical {
		sort.Strings(parts)
	}
	return strings.Join(parts, ", ")
}

// Leaves returns the sorted set of base-relation names under the node.
func Leaves(n Node) []string {
	seen := make(map[string]bool, 8)
	var out []string
	Walk(n, func(m Node) {
		if s, ok := m.(*Scan); ok && !seen[s.Relation] {
			seen[s.Relation] = true
			out = append(out, s.Relation)
		}
	})
	sort.Strings(out)
	return out
}

// Walk visits the subtree rooted at n in pre-order.
func Walk(n Node, visit func(Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// Transform rebuilds the tree bottom-up, applying f to every node after its
// children have been transformed. f may return the node unchanged.
func Transform(n Node, f func(Node) Node) Node {
	if n == nil {
		return nil
	}
	switch v := n.(type) {
	case *Scan:
		return f(v)
	case *Select:
		return f(NewSelect(Transform(v.Input, f), v.Pred))
	case *Project:
		return f(NewProject(Transform(v.Input, f), v.Cols))
	case *Join:
		return f(NewJoin(Transform(v.Left, f), Transform(v.Right, f), v.On))
	case *Aggregate:
		return f(NewAggregate(Transform(v.Input, f), v.GroupBy, v.Aggs))
	default:
		return f(n)
	}
}

// Clone deep-copies a plan tree.
func Clone(n Node) Node {
	return Transform(n, func(m Node) Node { return m })
}

// Equal reports canonical equality of two plans.
func Equal(a, b Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Canonical() == b.Canonical()
}

// Validate checks that the plan is well formed: predicates resolve against
// their input schemas, projections name existing columns, and join
// conditions resolve against the correct sides. A node it accepts keeps a
// mark (validMark), so validating the same plan again — a prepared plan run
// on every cache miss — costs one load per root.
func Validate(n Node) error {
	if n == nil {
		return fmt.Errorf("algebra: nil plan node")
	}
	mark := validMarkOf(n)
	if mark != nil && mark.ok.Load() {
		return nil
	}
	for _, c := range n.Children() {
		if err := Validate(c); err != nil {
			return err
		}
	}
	if err := ValidateOp(n); err != nil {
		return err
	}
	if mark != nil {
		mark.ok.Store(true)
	}
	return nil
}

// validMarkOf returns the node's validMark; nil for a node type defined
// outside this package.
func validMarkOf(n Node) *validMark {
	switch v := n.(type) {
	case *Scan:
		return &v.valid
	case *Select:
		return &v.valid
	case *Project:
		return &v.valid
	case *Join:
		return &v.valid
	case *Aggregate:
		return &v.valid
	}
	return nil
}

// ValidateOp checks the operation at n alone, given well-formed inputs —
// the step Validate applies bottom-up. Callers that keep plans hash-consed
// use it to check each distinct expression once.
func ValidateOp(n Node) error {
	switch v := n.(type) {
	case nil:
		return fmt.Errorf("algebra: nil plan node")
	case *Scan:
		if v.Relation == "" {
			return fmt.Errorf("algebra: scan with empty relation name")
		}
		if v.Rel == nil || v.Rel.Len() == 0 {
			return fmt.Errorf("algebra: scan of %s has no schema", v.Relation)
		}
		return nil
	case *Select:
		if v.Pred == nil {
			return fmt.Errorf("algebra: selection with nil predicate")
		}
		in := v.Input.Schema()
		for _, ref := range v.Pred.Columns() {
			if _, err := in.Resolve(ref); err != nil {
				return fmt.Errorf("algebra: selection %s: %w", v.Pred, err)
			}
		}
		return nil
	case *Project:
		if len(v.Cols) == 0 {
			return fmt.Errorf("algebra: projection with no columns")
		}
		in := v.Input.Schema()
		for _, ref := range v.Cols {
			if _, err := in.Resolve(ref); err != nil {
				return fmt.Errorf("algebra: projection: %w", err)
			}
		}
		return nil
	case *Join:
		if len(v.On) == 0 {
			return fmt.Errorf("algebra: join with no conditions (cartesian products are not supported)")
		}
		ls, rs := v.Left.Schema(), v.Right.Schema()
		for _, c := range v.On {
			if _, err := ls.Resolve(c.Left); err != nil {
				return fmt.Errorf("algebra: join condition %s: left side: %w", c, err)
			}
			if _, err := rs.Resolve(c.Right); err != nil {
				return fmt.Errorf("algebra: join condition %s: right side: %w", c, err)
			}
		}
		return nil
	case *Aggregate:
		return validateAggregate(v)
	default:
		return fmt.Errorf("algebra: unknown node type %T", n)
	}
}
