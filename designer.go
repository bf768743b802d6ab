package mvpp

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/optimizer"
	"github.com/warehousekit/mvpp/internal/sqlparse"
)

// ModelKind selects the cost model.
type ModelKind int

// Cost models.
const (
	// ModelPaperNLJ is the paper's model: half-scan linear-search
	// selection, nested-loop join at blocks(outer)·blocks(inner) plus
	// output. The default.
	ModelPaperNLJ ModelKind = iota
	// ModelBlockNLJ is the textbook block nested-loop model.
	ModelBlockNLJ
	// ModelHashJoin prices joins as Grace hash joins.
	ModelHashJoin
	// ModelSortMerge prices joins as sort-merge joins.
	ModelSortMerge
)

func (k ModelKind) model() (cost.Model, error) {
	switch k {
	case ModelPaperNLJ:
		return &cost.PaperModel{}, nil
	case ModelBlockNLJ:
		return &cost.BlockNLJModel{}, nil
	case ModelHashJoin:
		return &cost.HashJoinModel{}, nil
	case ModelSortMerge:
		return &cost.SortMergeModel{}, nil
	default:
		return nil, fmt.Errorf("mvpp: unknown cost model %d", int(k))
	}
}

// Options configures the designer; the zero value follows the paper's
// algorithms with statistics-derived sizes.
type Options struct {
	// Model selects the cost model (default ModelPaperNLJ).
	Model ModelKind
	// PaperSizes pins join-result sizes to the catalog's PinJoinSize
	// entries, reproducing the paper's arithmetic.
	PaperSizes bool
	// Rotations limits how many merge-order rotations the MVPP generator
	// tries; 0 means one rotation per query (the paper's full rotation).
	Rotations int
	// PushDisjunctions pushes disjunctive filters onto shared scans when
	// queries restrict a relation differently.
	PushDisjunctions bool
	// PushProjections inserts column-pruning projections above scans.
	PushProjections bool
	// NoPushdown leaves all selections above the joins (diagnostic).
	NoPushdown bool
	// LeftDeepPlans restricts single-query optimization to left-deep join
	// trees.
	LeftDeepPlans bool
	// Exhaustive selects the materialized set by exhaustive search instead
	// of the Figure 9 heuristic (exponential; refused for large MVPPs).
	Exhaustive bool
	// DiscountedMaintenance improves the greedy heuristic's maintenance
	// term: a candidate's refresh is priced given the views already chosen
	// (the paper's formula always charges a full from-base recompute, which
	// undervalues summary tables stacked on materialized joins).
	DiscountedMaintenance bool
	// IndexedViews prices selective filters over materialized views as
	// index lookups instead of scans (§3.2's "we can establish a proper
	// index on it afterwards").
	IndexedViews bool
	// Delta enables incremental (delta-propagation) maintenance pricing:
	// each candidate view's maintenance cost becomes the cheaper of a full
	// recompute and propagating the configured per-relation insert deltas
	// through its plan. Nil — the default — keeps the paper's
	// recompute-only policy.
	Delta *DeltaOptions
	// Distribution places tables on remote sites; nil means co-located.
	Distribution *Distribution
	// Observer receives spans, events, and counters from the whole design
	// pipeline (see NewLogObserver, NewTraceRecorder, TeeObservers). Nil —
	// the default — disables instrumentation entirely: the pipeline then
	// pays only nil checks.
	Observer Observer
}

// DeltaOptions describes the insert volume of one maintenance epoch for
// incremental maintenance pricing: each base relation is expected to gain
// about fraction · rows new tuples per epoch.
type DeltaOptions struct {
	// DefaultFraction applies to every relation without a PerRelation
	// entry. A typical warehouse value is small, e.g. 0.01.
	DefaultFraction float64
	// PerRelation overrides the fraction per relation name.
	PerRelation map[string]float64
}

func (o *DeltaOptions) spec() *cost.DeltaSpec {
	if o == nil {
		return nil
	}
	return &cost.DeltaSpec{DefaultFraction: o.DefaultFraction, PerRelation: o.PerRelation}
}

// Distribution describes a distributed warehouse: base tables live on
// member sites and shipping one block to the warehouse costs
// BlockTransferCost.
type Distribution struct {
	// SiteOf maps table name to site name; unlisted tables are co-located
	// with the warehouse.
	SiteOf map[string]string
	// BlockTransferCost is the per-block shipping cost between any two
	// distinct sites.
	BlockTransferCost float64
}

// Query is one warehouse query with its access frequency.
type Query struct {
	Name      string
	SQL       string
	Frequency float64
}

// Designer accumulates a workload and produces a Design.
type Designer struct {
	cat     *Catalog
	opts    Options
	queries []Query
	// bound caches each query's parse-and-bind result from AddQuery, so
	// Design and Simulate never re-parse SQL already validated at
	// registration. bound[i] corresponds to queries[i].
	bound []*sqlparse.Query
}

// NewDesigner creates a designer over the catalog.
func NewDesigner(cat *Catalog, opts Options) *Designer {
	return &Designer{cat: cat, opts: opts}
}

// AddQuery registers a query. The SQL is parsed and bound immediately so
// errors surface at registration; the bound form is cached for Design.
func (d *Designer) AddQuery(name, sql string, frequency float64) error {
	if frequency < 0 {
		return fmt.Errorf("mvpp: query %s has negative frequency", name)
	}
	for _, q := range d.queries {
		if q.Name == name {
			return fmt.Errorf("mvpp: duplicate query name %q", name)
		}
	}
	bound, err := sqlparse.BindQuery(d.cat.inner, name, sql)
	if err != nil {
		return fmt.Errorf("mvpp: %w", err)
	}
	d.queries = append(d.queries, Query{Name: name, SQL: sql, Frequency: frequency})
	d.bound = append(d.bound, bound)
	return nil
}

// Queries returns the registered workload.
func (d *Designer) Queries() []Query {
	out := make([]Query, len(d.queries))
	copy(out, d.queries)
	return out
}

// Design runs the full pipeline: per-query optimization, multiple-MVPP
// generation, and view selection on every candidate; the best candidate
// becomes the design.
func (d *Designer) Design() (*Design, error) {
	if len(d.queries) == 0 {
		return nil, fmt.Errorf("mvpp: no queries registered")
	}
	model, err := d.opts.Model.model()
	if err != nil {
		return nil, err
	}
	dsp := obs.Start(d.opts.Observer, "design",
		obs.Int("queries", int64(len(d.queries))))
	defer obs.End(dsp)
	dobs := obs.From(dsp)

	estOpts := cost.DefaultOptions()
	if d.opts.PaperSizes {
		estOpts = cost.PaperOptions()
	}
	est := cost.NewEstimator(d.cat.inner, estOpts)
	est.Instrument(obs.RegistryOf(dobs))

	osp := obs.Start(dobs, "optimize")
	opt := optimizer.New(est, model, optimizer.Options{
		LeftDeepOnly: d.opts.LeftDeepPlans,
		Obs:          obs.From(osp),
	})
	plans := make([]core.QueryPlan, len(d.queries))
	for i, q := range d.queries {
		plan, _, err := opt.Optimize(d.bound[i])
		if err != nil {
			obs.End(osp)
			return nil, fmt.Errorf("mvpp: %w", err)
		}
		plans[i] = core.QueryPlan{Name: q.Name, Freq: q.Frequency, Plan: plan}
	}
	obs.End(osp)

	selOpts := core.SelectOptions{DiscountedMaintenance: d.opts.DiscountedMaintenance}
	cands, err := core.Generate(est, model, plans, core.GenOptions{
		MaxRotations:     d.opts.Rotations,
		PushDisjunctions: d.opts.PushDisjunctions,
		PushProjections:  d.opts.PushProjections,
		NoPushdown:       d.opts.NoPushdown,
		Delta:            d.opts.Delta.spec(),
		Select:           selOpts,
		Obs:              dobs,
	})
	if err != nil {
		return nil, fmt.Errorf("mvpp: %w", err)
	}

	// Apply the distribution (if any) to every candidate, then re-select on
	// the final cost structure.
	esp := obs.Start(dobs, "evaluate", obs.Int("candidates", int64(len(cands))))
	eobs := obs.From(esp)
	selOpts.Obs = eobs
	for _, c := range cands {
		c.MVPP.SetObserver(eobs)
		if d.opts.IndexedViews {
			c.MVPP.SetIndexedViews(true)
			// Re-select so the heuristic's evaluation sees indexed costs.
			c.Selection = c.MVPP.SelectViews(model, selOpts)
		}
		if d.opts.Distribution != nil {
			dist := core.Distribution{
				SiteOf:    d.opts.Distribution.SiteOf,
				Warehouse: "warehouse",
				CostPerBlock: func(_, _ string) float64 {
					return d.opts.Distribution.BlockTransferCost
				},
			}
			if err := c.MVPP.ApplyDistribution(dist); err != nil {
				obs.End(esp)
				return nil, fmt.Errorf("mvpp: %w", err)
			}
		}
		if d.opts.Exhaustive {
			opt, err := c.MVPP.ExhaustiveOptimal(model)
			if err != nil {
				obs.End(esp)
				return nil, fmt.Errorf("mvpp: %w", err)
			}
			c.Selection = &core.SelectionResult{
				Materialized: opt.Materialized,
				Costs:        opt.Costs,
				Plans:        c.MVPP.MaintenancePlans(opt.Materialized),
			}
		} else if d.opts.Distribution != nil {
			// Re-run the heuristic so its evaluation reflects transfer
			// costs.
			c.Selection = c.MVPP.SelectViews(model, selOpts)
		}
		safeguardSelection(c, model, eobs)
	}
	obs.End(esp)

	best := core.Best(cands)
	if dsp != nil {
		virtual := best.MVPP.AllVirtual(model)
		allMat := best.MVPP.AllQueriesMaterialized(model)
		dsp.Annotate(obs.Int("views", int64(len(best.Selection.Materialized))),
			obs.Float("total", best.Selection.Costs.Total))
		dsp.Event(obs.EvCosts,
			obs.Float("query_cost", best.Selection.Costs.Query),
			obs.Float("maintenance_cost", best.Selection.Costs.Maintenance),
			obs.Float("total", best.Selection.Costs.Total),
			obs.Float("all_virtual", virtual.Total),
			obs.Float("all_materialized", allMat.Total))
	}
	return &Design{
		mvpp:       best.MVPP,
		model:      model,
		selection:  best.Selection,
		candidates: len(cands),
		queries:    d.Queries(),
		bound:      append([]*sqlparse.Query(nil), d.bound...),
		catalog:    d.cat,
		obsv:       d.opts.Observer,
	}, nil
}

// safeguardSelection is an extension over the paper: the greedy Figure 9
// heuristic can underperform the trivial extremes on skewed workloads
// (e.g. materializing a huge shared unfiltered join), so the designer also
// prices "materialize nothing" and "materialize every query result" and
// keeps the cheapest. The selection trace records the substitution.
func safeguardSelection(c *core.Candidate, model cost.Model, o obs.Observer) {
	m := c.MVPP
	subs := obs.CounterOf(o, obs.CtrSafeguardSubs)
	type alt struct {
		name string
		mat  core.VertexSet
	}
	roots := make(core.VertexSet, len(m.Roots))
	for _, r := range m.Roots {
		roots[r.ID] = true
	}
	for _, a := range []alt{
		{"all-virtual", core.VertexSet{}},
		{"all-query-results", roots},
	} {
		costs := m.Evaluate(model, a.mat)
		if costs.Total < c.Selection.Costs.Total {
			subs.Add(1)
			obs.Emit(o, obs.EvSafeguard,
				obs.String("strategy", a.name),
				obs.Float("greedy_total", c.Selection.Costs.Total),
				obs.Float("baseline_total", costs.Total))
			c.Selection.Materialized = a.mat
			c.Selection.Costs = costs
			c.Selection.Plans = m.MaintenancePlans(a.mat)
			c.Selection.Trace = append(c.Selection.Trace, core.TraceStep{
				Vertex: "(design)",
				Action: core.ActionSafeguard,
				Note:   "baseline strategy " + a.name + " beat the greedy choice",
			})
		}
	}
}
