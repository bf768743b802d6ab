// Package viz renders query plans and MVPPs as ASCII trees and Graphviz
// DOT, reproducing the paper's figures in text form: per-vertex cost labels
// (Figure 3), individual plan trees (Figures 2 and 5), and materialized-set
// highlighting.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
)

// PlanASCII renders a plan tree with box-drawing indentation:
//
//	π Product.name
//	└── ⋈ Division.Did = Product.Did
//	    ├── Product
//	    └── σ Division.city = "LA"
//	        └── Division
func PlanASCII(n algebra.Node) string {
	var b strings.Builder
	b.WriteString(n.Label())
	b.WriteByte('\n')
	writeChildren(&b, n, "")
	return b.String()
}

func writeChildren(b *strings.Builder, n algebra.Node, prefix string) {
	children := n.Children()
	for i, c := range children {
		last := i == len(children)-1
		branch, cont := "├── ", "│   "
		if last {
			branch, cont = "└── ", "    "
		}
		b.WriteString(prefix)
		b.WriteString(branch)
		b.WriteString(c.Label())
		b.WriteByte('\n')
		writeChildren(b, c, prefix+cont)
	}
}

// QueryTreeASCII renders one query's plan inside the MVPP, marking each
// node that is a shared vertex (annotated with its vertex name) and each
// materialized vertex with ●. It is the "explain" view for a single query
// under a design.
func QueryTreeASCII(m *core.MVPP, query string, materialized core.VertexSet) (string, error) {
	root, ok := m.Roots[query]
	if !ok {
		return "", fmt.Errorf("viz: unknown query %q", query)
	}
	var render func(n algebra.Node) string
	render = func(n algebra.Node) string {
		label := n.Label()
		if v := m.VertexOf(n); v != nil && !v.IsLeaf() {
			mark := ""
			if materialized != nil && materialized[v.ID] {
				mark = " ●"
				if len(m.QueriesUsing(v)) > 1 {
					mark = " ● shared"
				}
			} else if len(m.QueriesUsing(v)) > 1 {
				mark = " (shared)"
			}
			label = fmt.Sprintf("%s [%s]%s", label, v.Name, mark)
		}
		return label
	}
	var b strings.Builder
	var walk func(n algebra.Node, prefix string)
	b.WriteString(render(root.Op))
	b.WriteByte('\n')
	walk = func(n algebra.Node, prefix string) {
		children := n.Children()
		for i, c := range children {
			last := i == len(children)-1
			branch, cont := "├── ", "│   "
			if last {
				branch, cont = "└── ", "    "
			}
			b.WriteString(prefix)
			b.WriteString(branch)
			b.WriteString(render(c))
			b.WriteByte('\n')
			walk(c, prefix+cont)
		}
	}
	walk(root.Op, "")
	return b.String(), nil
}

// FormatCost renders block-access costs the way the paper labels them:
// "35.25k", "12.035m".
func FormatCost(v float64) string {
	if v < 0 {
		return "-" + FormatCost(-v)
	}
	switch {
	case v >= 1e6:
		return trimZero(fmt.Sprintf("%.3f", v/1e6)) + "m"
	case v >= 1e3:
		return trimZero(fmt.Sprintf("%.3f", v/1e3)) + "k"
	default:
		return trimZero(fmt.Sprintf("%.2f", v))
	}
}

func trimZero(s string) string {
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// MVPPASCII renders the DAG as a topologically ordered vertex table with
// the paper's annotations: inputs, cost Ca, weight, the queries using each
// vertex, and a ● marker on materialized vertices.
func MVPPASCII(m *core.MVPP, materialized core.VertexSet) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%-3s %-10s %-42s %-12s %-12s %s\n",
		"", "vertex", "operation (inputs)", "Ca", "weight", "queries"))
	for _, v := range m.Vertices {
		mark := " "
		if materialized != nil && materialized[v.ID] {
			mark = "●"
		}
		var ins []string
		for _, in := range v.In {
			ins = append(ins, in.Name)
		}
		op := v.Op.Label()
		if len(ins) > 0 {
			op += " (" + strings.Join(ins, ", ") + ")"
		}
		if len(op) > 42 {
			op = op[:39] + "..."
		}
		ca, w := "-", "-"
		if !v.IsLeaf() {
			ca = FormatCost(v.Ca)
			w = FormatCost(v.Weight)
		}
		queries := strings.Join(m.QueriesUsing(v), ",")
		if v.IsRoot() {
			fq := m.Fq[v.Queries[0]]
			queries += fmt.Sprintf(" (fq=%g)", fq)
		}
		b.WriteString(fmt.Sprintf("%-3s %-10s %-42s %-12s %-12s %s\n", mark, v.Name, op, ca, w, queries))
	}
	return b.String()
}

// MVPPDOT renders the DAG in Graphviz DOT: leaves as boxes, queries as
// double circles, materialized vertices filled.
func MVPPDOT(m *core.MVPP, materialized core.VertexSet) string {
	var b strings.Builder
	b.WriteString("digraph mvpp {\n  rankdir=BT;\n  node [fontsize=10];\n")
	for _, v := range m.Vertices {
		attrs := []string{fmt.Sprintf("label=\"%s\"", dotEscape(dotLabel(m, v)))}
		switch {
		case v.IsLeaf():
			attrs = append(attrs, "shape=box")
		case v.IsRoot():
			attrs = append(attrs, "shape=doublecircle")
		default:
			attrs = append(attrs, "shape=ellipse")
		}
		if materialized != nil && materialized[v.ID] {
			attrs = append(attrs, "style=filled", "fillcolor=lightblue")
		}
		b.WriteString(fmt.Sprintf("  v%d [%s];\n", v.ID, strings.Join(attrs, ", ")))
	}
	for _, v := range m.Vertices {
		for _, in := range v.In {
			b.WriteString(fmt.Sprintf("  v%d -> v%d;\n", in.ID, v.ID))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// dotEscape escapes double quotes for a DOT quoted string while leaving
// intentional \n line-break sequences intact.
func dotEscape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}

func dotLabel(m *core.MVPP, v *core.Vertex) string {
	if v.IsLeaf() {
		return v.Relation
	}
	label := v.Name + "\\n" + v.Op.Label()
	if v.IsRoot() {
		label += fmt.Sprintf("\\nfq=%g", m.Fq[v.Queries[0]])
	} else {
		label += "\\nCa=" + FormatCost(v.Ca)
	}
	return label
}

// PlanDOT renders a single plan tree as DOT.
func PlanDOT(n algebra.Node) string {
	var b strings.Builder
	b.WriteString("digraph plan {\n  rankdir=BT;\n  node [fontsize=10];\n")
	ids := map[algebra.Node]int{}
	var number func(algebra.Node)
	number = func(m algebra.Node) {
		if _, ok := ids[m]; ok {
			return
		}
		ids[m] = len(ids)
		for _, c := range m.Children() {
			number(c)
		}
	}
	number(n)
	type pair struct {
		node algebra.Node
		id   int
	}
	ordered := make([]pair, 0, len(ids))
	for node, id := range ids {
		ordered = append(ordered, pair{node, id})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].id < ordered[j].id })
	for _, p := range ordered {
		shape := "ellipse"
		if _, ok := p.node.(*algebra.Scan); ok {
			shape = "box"
		}
		b.WriteString(fmt.Sprintf("  n%d [label=%q, shape=%s];\n", p.id, p.node.Label(), shape))
	}
	for _, p := range ordered {
		for _, c := range p.node.Children() {
			b.WriteString(fmt.Sprintf("  n%d -> n%d;\n", ids[c], p.id))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// CostTable renders a strategy-comparison table in the shape of the paper's
// Table 2.
func CostTable(rows []CostRow) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%-38s %14s %14s %14s\n",
		"Materialized views", "Query cost", "Maintenance", "Total"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-38s %14s %14s %14s\n",
			r.Strategy, FormatCost(r.Costs.Query), FormatCost(r.Costs.Maintenance), FormatCost(r.Costs.Total)))
	}
	return b.String()
}

// CostRow is one strategy's evaluation.
type CostRow struct {
	Strategy string
	Costs    core.Costs
}

// TraceASCII renders a selection-heuristic trace in the style of the
// paper's §4.3 walk-through.
func TraceASCII(trace []core.TraceStep) string {
	var b strings.Builder
	for _, s := range trace {
		switch s.Action {
		case core.ActionMaterialize:
			b.WriteString(fmt.Sprintf("%-8s w=%-10s Cs=%-10s > 0  → materialize\n",
				s.Vertex, FormatCost(s.Weight), FormatCost(s.Cs)))
		case core.ActionReject:
			b.WriteString(fmt.Sprintf("%-8s w=%-10s Cs=%-10s ≤ 0  → reject\n",
				s.Vertex, FormatCost(s.Weight), FormatCost(s.Cs)))
		case core.ActionPruneBranch, core.ActionSkipAncestor, core.ActionDropCovered:
			b.WriteString(fmt.Sprintf("%-8s %s (%s)\n", s.Vertex, s.Action, s.Note))
		default:
			b.WriteString(fmt.Sprintf("%-8s %s\n", s.Vertex, s.Action))
		}
	}
	return b.String()
}
