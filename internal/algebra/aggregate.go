package algebra

import (
	"fmt"
	"sort"
	"strings"
)

// AggFunc is an aggregate function. Aggregation queries are the paper's
// first stated piece of future work ("we are working on materialized view
// design for more complicated queries such as query with aggregation
// functions"); this extension carries them through the whole stack —
// parsing, estimation, execution, and MVPP design — so summary tables can
// be materialized like any other vertex.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota + 1
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL spelling.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AGG(%d)", int(f))
	}
}

// Aggregation is one aggregate expression in an Aggregate node.
type Aggregation struct {
	Func AggFunc
	// Arg is the aggregated column; the zero ColumnRef means COUNT(*).
	Arg ColumnRef
	// Alias names the output column; must be unique within the node.
	Alias string
}

// String renders e.g. `SUM(Order.quantity) AS total`.
func (a Aggregation) String() string {
	arg := "*"
	if a.Arg != (ColumnRef{}) {
		arg = a.Arg.String()
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Func, arg, a.Alias)
}

// Aggregate groups its input and computes aggregate functions per group.
// An empty GroupBy produces a single global row.
type Aggregate struct {
	Input   Node
	GroupBy []ColumnRef
	Aggs    []Aggregation

	schema lazySchema
	label  lazyLabel
	ident  ident
	valid  validMark
}

var _ Node = (*Aggregate)(nil)

// NewAggregate builds an aggregation node.
func NewAggregate(input Node, groupBy []ColumnRef, aggs []Aggregation) *Aggregate {
	g := make([]ColumnRef, len(groupBy))
	copy(g, groupBy)
	a := make([]Aggregation, len(aggs))
	copy(a, aggs)
	return &Aggregate{Input: input, GroupBy: g, Aggs: a}
}

// Schema implements Node: group columns (with their input identity)
// followed by one column per aggregate, unqualified and named by alias.
func (g *Aggregate) Schema() *Schema {
	return g.schema.get(func() *Schema {
		in := g.Input.Schema()
		cols := make([]Column, 0, len(g.GroupBy)+len(g.Aggs))
		for _, ref := range g.GroupBy {
			if i := in.IndexOf(ref); i >= 0 {
				cols = append(cols, in.Columns[i])
			}
		}
		for _, a := range g.Aggs {
			cols = append(cols, Column{Name: a.Alias, Type: g.aggType(a, in)})
		}
		return &Schema{Columns: cols}
	})
}

func (g *Aggregate) aggType(a Aggregation, in *Schema) Type {
	switch a.Func {
	case AggCount:
		return TypeInt
	case AggAvg:
		return TypeFloat
	default:
		if i := in.IndexOf(a.Arg); i >= 0 {
			return in.Columns[i].Type
		}
		return TypeFloat
	}
}

// Children implements Node.
func (g *Aggregate) Children() []Node { return []Node{g.Input} }

// Canonical implements Node.
func (g *Aggregate) Canonical() string {
	return "aggregate[" + g.spec() + "](" + g.Input.Canonical() + ")"
}

// spec renders group-by columns (sorted) and aggregations (sorted) — the
// identity for view sharing.
func (g *Aggregate) spec() string {
	groups := make([]string, len(g.GroupBy))
	for i, r := range g.GroupBy {
		groups[i] = r.String()
	}
	sort.Strings(groups)
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.String()
	}
	sort.Strings(aggs)
	return strings.Join(groups, ", ") + " | " + strings.Join(aggs, ", ")
}

// Label implements Node.
func (g *Aggregate) Label() string {
	return g.label.get(func() string {
		var parts []string
		for _, a := range g.Aggs {
			parts = append(parts, a.String())
		}
		label := "γ " + strings.Join(parts, ", ")
		if len(g.GroupBy) > 0 {
			label += " BY " + refsString(g.GroupBy, false)
		}
		return label
	})
}

// aggregateStructuralKey supports StructuralKey/SemanticKey for Aggregate.
func (g *Aggregate) structuralKey(inner string) string {
	return "aggregate[" + g.spec() + "](" + inner + ")"
}

// validateAggregate checks the node (called from ValidateOp).
func validateAggregate(g *Aggregate) error {
	if len(g.Aggs) == 0 {
		return fmt.Errorf("algebra: aggregate with no aggregation functions")
	}
	in := g.Input.Schema()
	for _, ref := range g.GroupBy {
		if _, err := in.Resolve(ref); err != nil {
			return fmt.Errorf("algebra: GROUP BY: %w", err)
		}
	}
	seen := make(map[string]bool, len(g.Aggs))
	for _, a := range g.Aggs {
		if a.Alias == "" {
			return fmt.Errorf("algebra: aggregation %s(%s) has no alias", a.Func, a.Arg)
		}
		if seen[a.Alias] {
			return fmt.Errorf("algebra: duplicate aggregation alias %q", a.Alias)
		}
		seen[a.Alias] = true
		if a.Arg == (ColumnRef{}) {
			if a.Func != AggCount {
				return fmt.Errorf("algebra: %s requires an argument column", a.Func)
			}
			continue
		}
		i, err := in.Resolve(a.Arg)
		if err != nil {
			return fmt.Errorf("algebra: aggregation %s: %w", a.Func, err)
		}
		if a.Func != AggCount && a.Func != AggMin && a.Func != AggMax {
			switch in.Columns[i].Type {
			case TypeInt, TypeFloat:
			default:
				return fmt.Errorf("algebra: %s over non-numeric column %s", a.Func, a.Arg)
			}
		}
	}
	return nil
}

// RequiredByAggregate returns the input columns the node consumes.
func (g *Aggregate) RequiredByAggregate() []ColumnRef {
	out := make([]ColumnRef, 0, len(g.GroupBy)+len(g.Aggs))
	out = append(out, g.GroupBy...)
	for _, a := range g.Aggs {
		if a.Arg != (ColumnRef{}) {
			out = append(out, a.Arg)
		}
	}
	return canonicalRefs(out)
}

// Incrementable reports whether the plan rooted at n can be maintained by
// insert-only delta propagation, and if not, why. The supported shape is
// select-project-join with at most one aggregation, at the root, using
// mergeable aggregate functions (COUNT, SUM, MIN, MAX — monotone under
// inserts). AVG is not mergeable from stored values, and an aggregate
// below other operators would emit group *updates*, not inserts. It is the
// one gate both the designer's maintenance pricing and the engine's
// IncrementalRefresh consult, so a view priced as incremental is one the
// engine will maintain that way.
func Incrementable(n Node) (bool, string) {
	if agg, ok := n.(*Aggregate); ok {
		for _, a := range agg.Aggs {
			if a.Func == AggAvg {
				return false, "AVG is not mergeable under insert-only deltas"
			}
		}
		n = agg.Input
	}
	below := false
	Walk(n, func(node Node) {
		if _, ok := node.(*Aggregate); ok {
			below = true
		}
	})
	if below {
		return false, "aggregate below the plan root emits group updates, not inserts"
	}
	return true, ""
}
