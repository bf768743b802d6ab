package algebra

import (
	"fmt"
)

// Decomposed is the "pushed-up" normal form of an SPJ plan used by the
// multiple-MVPP generation algorithm (paper Figure 4, step 2): a pure join
// skeleton over base-relation scans, with every selection conjunct and the
// final projection hoisted out. In this form two queries' join patterns can
// be compared and merged directly.
type Decomposed struct {
	// JoinTree contains only Join and Scan nodes, preserving the join order
	// of the source plan.
	JoinTree Node
	// Selections holds every selection conjunct from the plan.
	Selections []Predicate
	// Output is the final projection of the plan; nil means all columns.
	Output []ColumnRef
	// TopAgg records a top-level aggregation (GROUP BY + aggregate
	// functions), re-applied by Compose above the selections; nil for pure
	// SPJ plans.
	TopAgg *Aggregate
}

// Decompose splits an SPJ plan into its pushed-up normal form. The plan must
// be a tree of Scan/Select/Project/Join nodes; intermediate projections are
// discarded (they are recomputed by push-down), and all selections are
// collected as conjuncts.
func Decompose(n Node) (*Decomposed, error) {
	d := &Decomposed{}
	top := true
	var strip func(Node) (Node, error)
	strip = func(m Node) (Node, error) {
		switch v := m.(type) {
		case *Scan:
			top = false
			return v, nil
		case *Select:
			top = false
			d.Selections = append(d.Selections, Conjuncts(v.Pred)...)
			return strip(v.Input)
		case *Project:
			if top && d.Output == nil {
				cp := make([]ColumnRef, len(v.Cols))
				copy(cp, v.Cols)
				d.Output = cp
			}
			top = false
			return strip(v.Input)
		case *Join:
			top = false
			l, err := strip(v.Left)
			if err != nil {
				return nil, err
			}
			r, err := strip(v.Right)
			if err != nil {
				return nil, err
			}
			return NewJoin(l, r, v.On), nil
		case *Aggregate:
			if !top || d.TopAgg != nil {
				return nil, fmt.Errorf("algebra: aggregation below the plan root cannot be decomposed")
			}
			top = false
			d.TopAgg = v
			inner, err := strip(v.Input)
			if err != nil {
				return nil, err
			}
			top = false
			return inner, nil
		default:
			return nil, fmt.Errorf("algebra: cannot decompose node type %T", m)
		}
	}
	jt, err := strip(n)
	if err != nil {
		return nil, err
	}
	d.JoinTree = jt
	return d, nil
}

// Compose rebuilds a plan from the decomposition in select-on-top form: the
// join skeleton, then one conjunctive selection, then the top aggregation
// (if any) or the final projection. This is the shape Figure 4 step 2
// produces before merging.
func (d *Decomposed) Compose() Node {
	n := d.JoinTree
	if pred := NewAnd(d.Selections...); pred != nil {
		n = NewSelect(n, pred)
	}
	if d.TopAgg != nil {
		return NewAggregate(n, d.TopAgg.GroupBy, d.TopAgg.Aggs)
	}
	if d.Output != nil {
		n = NewProject(n, d.Output)
	}
	return n
}

// PushDownSelections returns an equivalent plan with every selection
// conjunct pushed to the lowest node whose schema resolves all its columns.
// Conjuncts referencing both sides of a join remain above the join;
// single-relation conjuncts (including disjunctions over one relation) land
// directly above the scan.
func PushDownSelections(n Node) Node {
	return pushSel(n, nil)
}

func pushSel(n Node, preds []Predicate) Node {
	switch v := n.(type) {
	case *Scan:
		return wrapSelect(v, preds)
	case *Select:
		return pushSel(v.Input, append(preds, Conjuncts(v.Pred)...))
	case *Project:
		// Every pushed predicate resolves against the projection's output,
		// hence also against its input, so the swap is always legal.
		return NewProject(pushSel(v.Input, preds), v.Cols)
	case *Aggregate:
		// Predicates above an aggregation reference its outputs (groups or
		// aggregate results) and cannot move below it.
		agg := NewAggregate(pushSel(v.Input, nil), v.GroupBy, v.Aggs)
		return wrapSelect(agg, preds)
	case *Join:
		ls, rs := v.Left.Schema(), v.Right.Schema()
		var leftP, rightP, here []Predicate
		for _, p := range preds {
			switch {
			case ResolvesAll(ls, p):
				leftP = append(leftP, p)
			case ResolvesAll(rs, p):
				rightP = append(rightP, p)
			default:
				here = append(here, p)
			}
		}
		j := NewJoin(pushSel(v.Left, leftP), pushSel(v.Right, rightP), v.On)
		return wrapSelect(j, here)
	default:
		return wrapSelect(n, preds)
	}
}

func wrapSelect(n Node, preds []Predicate) Node {
	if p := NewAnd(preds...); p != nil {
		return NewSelect(n, p)
	}
	return n
}

// ResolvesAll reports whether every column of the predicate resolves in the
// schema.
func ResolvesAll(s *Schema, p Predicate) bool {
	for _, ref := range p.Columns() {
		if !s.Has(ref) {
			return false
		}
	}
	return true
}

// PruneColumns returns an equivalent plan that projects away unused columns
// as early as possible: above each scan, the plan keeps only the columns
// required by selections, join conditions, and the final output (paper
// Figure 4 step 6: "the union of the projection attributes ... plus the join
// attributes"). required lists the columns needed from n by its consumers;
// nil means every column is needed.
func PruneColumns(n Node, required []ColumnRef) Node {
	switch v := n.(type) {
	case *Scan:
		if required == nil || len(required) == v.Rel.Len() {
			return v
		}
		return NewProject(v, orderBySchema(v.Rel, required))
	case *Select:
		// A selection directly over a scan stays on the scan (the shape the
		// paper's optimized MVPPs have); the projection goes above it and
		// keeps only what consumers need — the predicate's own columns are
		// consumed by the selection itself.
		if sc, ok := v.Input.(*Scan); ok {
			sel := NewSelect(sc, v.Pred)
			if required == nil || len(required) >= sc.Rel.Len() {
				return sel
			}
			return NewProject(sel, orderBySchema(sc.Rel, required))
		}
		need := addRefs(required, v.Pred.Columns())
		return NewSelect(PruneColumns(v.Input, need), v.Pred)
	case *Project:
		cols := v.Cols
		if required != nil {
			cols = intersectRefs(v.Cols, required, v.Input.Schema())
		}
		inner := PruneColumns(v.Input, cols)
		// The recursive call may already narrow to exactly these columns;
		// drop the now-redundant projection in that case.
		if inner.Schema().Len() == len(cols) {
			match := true
			for i, ref := range cols {
				if !ref.Matches(inner.Schema().Columns[i]) {
					match = false
					break
				}
			}
			if match {
				return inner
			}
		}
		return NewProject(inner, cols)
	case *Aggregate:
		// The aggregation consumes exactly its group and argument columns;
		// what the consumer needs from the aggregate's output is fixed.
		return NewAggregate(PruneColumns(v.Input, v.RequiredByAggregate()), v.GroupBy, v.Aggs)
	case *Join:
		condRefs := make([]ColumnRef, 0, 2*len(v.On))
		for _, c := range v.On {
			condRefs = append(condRefs, c.Left, c.Right)
		}
		need := addRefs(required, condRefs)
		ls, rs := v.Left.Schema(), v.Right.Schema()
		var leftNeed, rightNeed []ColumnRef
		if need == nil {
			leftNeed, rightNeed = nil, nil
		} else {
			for _, r := range need {
				if ls.Has(r) {
					leftNeed = append(leftNeed, r)
				}
				if rs.Has(r) {
					rightNeed = append(rightNeed, r)
				}
			}
			leftNeed = canonicalRefs(leftNeed)
			rightNeed = canonicalRefs(rightNeed)
		}
		return NewJoin(PruneColumns(v.Left, leftNeed), PruneColumns(v.Right, rightNeed), v.On)
	default:
		return n
	}
}

// addRefs unions required with extra; nil required stays nil (everything).
func addRefs(required, extra []ColumnRef) []ColumnRef {
	if required == nil {
		return nil
	}
	out := make([]ColumnRef, 0, len(required)+len(extra))
	out = append(out, required...)
	out = append(out, extra...)
	return canonicalRefs(out)
}

// intersectRefs keeps the refs of cols that appear in required, resolving
// both against schema so that qualified and unqualified spellings match.
func intersectRefs(cols, required []ColumnRef, schema *Schema) []ColumnRef {
	want := make(map[int]bool, len(required))
	for _, r := range required {
		if i := schema.IndexOf(r); i >= 0 {
			want[i] = true
		}
	}
	var out []ColumnRef
	for _, c := range cols {
		if i := schema.IndexOf(c); i >= 0 && want[i] {
			out = append(out, c)
		}
	}
	return out
}

// orderBySchema orders refs by their column position in schema, producing a
// stable projection order for canonical comparison.
func orderBySchema(schema *Schema, refs []ColumnRef) []ColumnRef {
	idx := make([]int, 0, len(refs))
	seen := make(map[int]bool, len(refs))
	for _, r := range refs {
		if i := schema.IndexOf(r); i >= 0 && !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := make([]ColumnRef, len(idx))
	for i, k := range idx {
		c := schema.Columns[k]
		out[i] = ColumnRef{Relation: c.Relation, Name: c.Name}
	}
	return out
}

// Normalize applies the standard cleanup pass used after rewrites: merges
// stacked selections, collapses stacked projections, and removes projections
// that keep every column in order.
func Normalize(n Node) Node {
	return Transform(n, func(m Node) Node {
		switch v := m.(type) {
		case *Select:
			if inner, ok := v.Input.(*Select); ok {
				return NewSelect(inner.Input, NewAnd(v.Pred, inner.Pred))
			}
			return v
		case *Project:
			if inner, ok := v.Input.(*Project); ok {
				return NewProject(inner.Input, v.Cols)
			}
			in := v.Input.Schema()
			if len(v.Cols) == in.Len() {
				identity := true
				for i, ref := range v.Cols {
					if !ref.Matches(in.Columns[i]) {
						identity = false
						break
					}
				}
				if identity {
					return v.Input
				}
			}
			return v
		default:
			return v
		}
	})
}
