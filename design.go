package mvpp

import (
	"fmt"
	"sort"
	"strings"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/serve"
	"github.com/warehousekit/mvpp/internal/sqlparse"
	"github.com/warehousekit/mvpp/internal/viz"
)

// Design is the outcome of Designer.Design: a chosen MVPP and the set of
// views to materialize.
type Design struct {
	mvpp      *core.MVPP
	model     cost.Model
	selection *core.SelectionResult
	// candidates is how many distinct MVPPs were generated. Only the count
	// is kept: the losing candidates' DAGs and plan trees are garbage once
	// the best one is chosen.
	candidates int
	queries    []Query
	// bound holds the workload's parsed-and-bound queries (parallel to
	// queries), carried over from the designer so Simulate never re-parses.
	bound   []*sqlparse.Query
	catalog *Catalog
	// obsv is the designer's observer, carried over so Simulate can report
	// engine I/O. Nil when observability is off.
	obsv obs.Observer
	// policies maps view name → refresh-policy spec set via
	// SetRefreshPolicy; views not listed take the serve-time default.
	policies map[string]string
}

// View describes one recommended materialized view.
type View struct {
	// Name is the vertex name in the MVPP ("tmp2", "result1", ...).
	Name string
	// Operation is the view's top operation, human-readable.
	Operation string
	// Definition is the canonical relational-algebra definition.
	Definition string
	// Rows and Blocks are the estimated stored size.
	Rows, Blocks float64
	// MaintenanceCost is the frequency-weighted standalone refresh cost.
	MaintenanceCost float64
	// MaintenanceStrategy is how the design maintains the view:
	// "recompute" (the paper's policy) or "incremental" when
	// Options.Delta made delta propagation the cheaper plan.
	MaintenanceStrategy string
	// RefreshPolicy is when the view refreshes: "manual", "on-commit",
	// "scheduled:<interval>", or "streaming". Set with SetRefreshPolicy;
	// defaults to "on-commit".
	RefreshPolicy string
	// UsedBy lists the queries answered (fully or partly) from the view.
	UsedBy []string
}

// SetRefreshPolicy tags one of the design's materialized views with a
// refresh policy ("manual", "on-commit", "scheduled:<duration>",
// "streaming"). The policy travels with the design into NewServer, where
// ServeOptions.Policies can still override it per view.
func (d *Design) SetRefreshPolicy(view, policy string) error {
	if _, err := serve.ParsePolicy(policy); err != nil {
		return fmt.Errorf("mvpp: %w", err)
	}
	for _, v := range d.mvpp.Vertices {
		if v.Name == view && d.selection.Materialized[v.ID] {
			if d.policies == nil {
				d.policies = make(map[string]string)
			}
			d.policies[view] = policy
			return nil
		}
	}
	return fmt.Errorf("mvpp: %q is not one of the design's materialized views", view)
}

// RefreshPolicyOf returns the design-time refresh policy of a view —
// "on-commit" unless SetRefreshPolicy chose otherwise.
func (d *Design) RefreshPolicyOf(view string) string {
	if p, ok := d.policies[view]; ok && p != "" {
		return p
	}
	return "on-commit"
}

// Views returns the recommended materialized views, in MVPP order.
func (d *Design) Views() []View {
	var out []View
	for _, v := range d.mvpp.Vertices {
		if !d.selection.Materialized[v.ID] {
			continue
		}
		out = append(out, View{
			Name:                v.Name,
			Operation:           v.Op.Label(),
			Definition:          v.Op.Canonical(),
			Rows:                v.Est.Rows,
			Blocks:              v.Est.Blocks,
			MaintenanceCost:     d.selection.Costs.PerView[v.Name],
			MaintenanceStrategy: d.selection.Plans[v.Name].String(),
			RefreshPolicy:       d.RefreshPolicyOf(v.Name),
			UsedBy:              d.mvpp.QueriesUsing(v),
		})
	}
	return out
}

// CostSummary compares the design against the two extreme strategies.
type CostSummary struct {
	// QueryCost is the frequency-weighted query processing cost of the
	// design.
	QueryCost float64
	// MaintenanceCost is the frequency-weighted view maintenance cost.
	MaintenanceCost float64
	// TotalCost = QueryCost + MaintenanceCost.
	TotalCost float64
	// AllVirtualTotal is the total with nothing materialized.
	AllVirtualTotal float64
	// AllMaterializedTotal is the total with every query result stored.
	AllMaterializedTotal float64
	// PerQuery breaks QueryCost down by query.
	PerQuery map[string]float64
}

// Costs summarizes the design's predicted costs.
func (d *Design) Costs() CostSummary {
	virtual := d.mvpp.AllVirtual(d.model)
	allMat := d.mvpp.AllQueriesMaterialized(d.model)
	perQuery := make(map[string]float64, len(d.selection.Costs.PerQuery))
	for q, c := range d.selection.Costs.PerQuery {
		perQuery[q] = c
	}
	return CostSummary{
		QueryCost:            d.selection.Costs.Query,
		MaintenanceCost:      d.selection.Costs.Maintenance,
		TotalCost:            d.selection.Costs.Total,
		AllVirtualTotal:      virtual.Total,
		AllMaterializedTotal: allMat.Total,
		PerQuery:             perQuery,
	}
}

// EvaluateStrategy prices an arbitrary set of vertex names (e.g. a DBA's
// hand-picked alternative) under the design's MVPP and cost model.
func (d *Design) EvaluateStrategy(viewNames []string) (query, maintenance, total float64, err error) {
	c, err := d.mvpp.EvaluateNames(d.model, viewNames)
	if err != nil {
		return 0, 0, 0, err
	}
	return c.Query, c.Maintenance, c.Total, nil
}

// VertexNames lists all materialization candidates (non-leaf vertices) of
// the chosen MVPP, in topological order.
func (d *Design) VertexNames() []string {
	var out []string
	for _, v := range d.mvpp.InnerVertices() {
		out = append(out, v.Name)
	}
	return out
}

// Candidates reports how many distinct MVPPs were generated and evaluated.
func (d *Design) Candidates() int { return d.candidates }

// Queries lists the workload's query names in the order they were added.
func (d *Design) Queries() []string {
	out := make([]string, len(d.queries))
	for i, q := range d.queries {
		out[i] = q.Name
	}
	return out
}

// ASCII renders the chosen MVPP with materialized vertices marked.
func (d *Design) ASCII() string {
	return viz.MVPPASCII(d.mvpp, d.selection.Materialized)
}

// DOT renders the chosen MVPP in Graphviz DOT.
func (d *Design) DOT() string {
	return viz.MVPPDOT(d.mvpp, d.selection.Materialized)
}

// Trace renders the selection heuristic's decision trace.
func (d *Design) Trace() string {
	return viz.TraceASCII(d.selection.Trace)
}

// ExplainQuery renders one query's plan inside the chosen MVPP, marking
// shared vertices and the design's materialized views.
func (d *Design) ExplainQuery(name string) (string, error) {
	out, err := viz.QueryTreeASCII(d.mvpp, name, d.selection.Materialized)
	if err != nil {
		return "", fmt.Errorf("mvpp: %w", err)
	}
	return out, nil
}

// Explain renders the named query's priced plan tree: every operator with
// its estimated output size, its per-operator §4.1 block cost, and — for
// vertices the design materializes — the view name, maintenance strategy
// and per-period maintenance cost. This is the design-time prediction; the
// serving layer's Server.Explain shows the same tree joined against
// measured actuals.
func (d *Design) Explain(name string) (string, error) {
	root, ok := d.mvpp.Roots[name]
	if !ok {
		return "", fmt.Errorf("mvpp: unknown query %q", name)
	}
	line := func(n algebra.Node) string {
		lbl := n.Label()
		v := d.mvpp.VertexOf(n)
		if v == nil {
			return lbl
		}
		if v.IsLeaf() {
			return fmt.Sprintf("%s  — est %.0f rows / %.1f blocks", lbl, v.Est.Rows, v.Est.Blocks)
		}
		lbl = fmt.Sprintf("%s [%s]  — op %.1f blocks, est %.0f rows / %.1f blocks",
			lbl, v.Name, v.CaSelf, v.Est.Rows, v.Est.Blocks)
		if d.selection.Materialized[v.ID] {
			lbl += fmt.Sprintf("  ● materialized (%s, Cm %.1f)",
				d.selection.Plans[v.Name], d.selection.Costs.PerView[v.Name])
		}
		return lbl
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query %s  — Ca %.1f blocks under the design\n", name, d.selection.Costs.PerQuery[name])
	b.WriteString(line(root.Op))
	b.WriteByte('\n')
	var walk func(n algebra.Node, prefix string)
	walk = func(n algebra.Node, prefix string) {
		children := n.Children()
		for i, c := range children {
			branch, next := "├── ", prefix+"│   "
			if i == len(children)-1 {
				branch, next = "└── ", prefix+"    "
			}
			b.WriteString(prefix + branch + line(c) + "\n")
			walk(c, next)
		}
	}
	walk(root.Op, "")
	return b.String(), nil
}

// Report renders a complete human-readable design report.
func (d *Design) Report() string {
	var b strings.Builder
	costs := d.Costs()

	b.WriteString("MATERIALIZED VIEW DESIGN\n")
	b.WriteString("========================\n\n")
	b.WriteString(fmt.Sprintf("workload: %d queries, %d candidate MVPPs evaluated\n\n",
		len(d.queries), d.candidates))

	views := d.Views()
	if len(views) == 0 {
		b.WriteString("recommendation: materialize nothing (all views virtual)\n\n")
	} else {
		b.WriteString("recommended materialized views:\n")
		for _, v := range views {
			strategy := ""
			if v.MaintenanceStrategy == core.MaintIncremental.String() {
				strategy = "; maintained incrementally"
			}
			if v.RefreshPolicy != "on-commit" {
				strategy += "; refresh " + v.RefreshPolicy
			}
			b.WriteString(fmt.Sprintf("  %-10s %-40s ~%s rows, %s blocks; used by %s%s\n",
				v.Name, v.Operation, viz.FormatCost(v.Rows), viz.FormatCost(v.Blocks),
				strings.Join(v.UsedBy, ","), strategy))
		}
		b.WriteString("\n")
	}

	b.WriteString("predicted cost per period (block accesses):\n")
	b.WriteString(fmt.Sprintf("  query processing:   %s\n", viz.FormatCost(costs.QueryCost)))
	b.WriteString(fmt.Sprintf("  view maintenance:   %s\n", viz.FormatCost(costs.MaintenanceCost)))
	b.WriteString(fmt.Sprintf("  total:              %s\n", viz.FormatCost(costs.TotalCost)))
	b.WriteString(fmt.Sprintf("  vs all-virtual:     %s (%.1f%% saved)\n",
		viz.FormatCost(costs.AllVirtualTotal), saving(costs.AllVirtualTotal, costs.TotalCost)))
	b.WriteString(fmt.Sprintf("  vs all-materialized:%s (%.1f%% saved)\n\n",
		viz.FormatCost(costs.AllMaterializedTotal), saving(costs.AllMaterializedTotal, costs.TotalCost)))

	b.WriteString("per-query cost (frequency-weighted):\n")
	var qnames []string
	for q := range costs.PerQuery {
		qnames = append(qnames, q)
	}
	sort.Strings(qnames)
	for _, q := range qnames {
		b.WriteString(fmt.Sprintf("  %-8s %s\n", q, viz.FormatCost(costs.PerQuery[q])))
	}
	b.WriteString("\nMVPP (● = materialized):\n")
	b.WriteString(d.ASCII())
	return b.String()
}

func saving(baseline, actual float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return 100 * (baseline - actual) / baseline
}
