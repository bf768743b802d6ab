package mvpp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
)

// SimOptions configures Design.Simulate.
type SimOptions struct {
	// Scale shrinks (or grows) every table's cardinality relative to the
	// catalog statistics; 0 defaults to 0.01 so the nested-loop engine
	// stays fast. Key-like integer domains scale with the data; string and
	// bounded-integer domains do not (categorical attributes keep their
	// selectivities).
	Scale float64
	// Seed drives the deterministic data generator.
	Seed int64
	// DeltaFraction, when positive, appends one maintenance epoch's worth
	// of synthetic inserts — about DeltaFraction · rows per base table —
	// and measures maintaining the views by delta propagation
	// (IncrementalRefreshIO) for comparison with the full-recompute
	// RefreshIO.
	DeltaFraction float64
}

// QuerySim is the measured execution of one query with and without the
// design's materialized views.
type QuerySim struct {
	// DirectReads is the block reads of running the query from base tables.
	DirectReads int64
	// RewrittenReads is the block reads after rewriting over the
	// materialized views.
	RewrittenReads int64
	// Rows is the result cardinality (identical either way — checked).
	Rows int
}

// Simulation reports a design executed on synthetic data in the embedded
// block-counting engine.
type Simulation struct {
	// PerQuery maps query name to its measured execution.
	PerQuery map[string]QuerySim
	// MaterializeIO is the one-time I/O of building the views.
	MaterializeIO int64
	// RefreshIO is the I/O of one maintenance epoch (refreshing every view
	// from base tables).
	RefreshIO int64
	// DeltaRows and IncrementalRefreshIO report the delta epoch run when
	// SimOptions.DeltaFraction > 0: how many rows were inserted across the
	// base tables and the measured I/O of maintaining every view by delta
	// propagation (recomputation for views that are not incrementally
	// maintainable).
	DeltaRows            int
	IncrementalRefreshIO int64
	// WeightedDirect and WeightedRewritten are Σ fq · reads for the two
	// execution modes; WeightedTotal adds one refresh epoch to the
	// rewritten cost, mirroring the paper's total-cost objective.
	WeightedDirect, WeightedRewritten, WeightedTotal float64
}

// Speedup is the ratio of direct to rewritten frequency-weighted query
// I/O — how much faster the workload runs with the design's views.
func (s *Simulation) Speedup() float64 {
	if s.WeightedRewritten == 0 {
		return math.Inf(1)
	}
	return s.WeightedDirect / s.WeightedRewritten
}

// Simulate generates synthetic data consistent with the catalog statistics,
// executes every workload query directly and through the design's
// materialized views, and measures actual block I/O. It validates the
// design end-to-end: results must match between the two execution modes,
// and the measured I/O shows the real effect of materialization.
func (d *Design) Simulate(opts SimOptions) (*Simulation, error) {
	if d.catalog == nil {
		return nil, fmt.Errorf("mvpp: design has no catalog attached")
	}
	scale := opts.Scale
	if scale <= 0 {
		scale = 0.01
	}
	db, err := d.buildSyntheticDB(scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	ssp := obs.Start(d.obsv, "simulate", obs.Float("scale", scale))
	defer obs.End(ssp)
	db.SetObserver(obs.From(ssp))

	sim := &Simulation{PerQuery: make(map[string]QuerySim, len(d.queries))}

	// Direct execution from base tables.
	type direct struct {
		reads int64
		rows  int
	}
	directByQuery := make(map[string]direct, len(d.queries))
	for _, q := range d.queries {
		root := d.mvpp.Roots[q.Name]
		res, err := db.Execute(root.Op)
		if err != nil {
			return nil, fmt.Errorf("mvpp: simulating %s: %w", q.Name, err)
		}
		directByQuery[q.Name] = direct{reads: res.TotalReads(), rows: res.Table.NumRows()}
		sim.WeightedDirect += q.Frequency * float64(res.TotalReads())
	}

	// Materialize the design's views (largest last so views-over-views
	// compose if present; topological order guarantees that).
	db.Counter.Reset()
	for _, v := range d.mvpp.Vertices {
		if !d.selection.Materialized[v.ID] {
			continue
		}
		if _, err := db.Materialize(v.Name, v.Op); err != nil {
			return nil, fmt.Errorf("mvpp: materializing %s: %w", v.Name, err)
		}
	}
	sim.MaterializeIO = db.Counter.Reads() + db.Counter.Writes()

	// Rewritten execution.
	for _, q := range d.queries {
		root := d.mvpp.Roots[q.Name]
		plan := db.RewriteForViewSet(root.Op).Plan
		res, err := db.Execute(plan)
		if err != nil {
			return nil, fmt.Errorf("mvpp: simulating %s with views: %w", q.Name, err)
		}
		dd := directByQuery[q.Name]
		if res.Table.NumRows() != dd.rows {
			return nil, fmt.Errorf("mvpp: %s returned %d rows with views, %d without — rewrite bug",
				q.Name, res.Table.NumRows(), dd.rows)
		}
		sim.PerQuery[q.Name] = QuerySim{
			DirectReads:    dd.reads,
			RewrittenReads: res.TotalReads(),
			Rows:           dd.rows,
		}
		sim.WeightedRewritten += q.Frequency * float64(res.TotalReads())
	}

	// One maintenance epoch.
	db.Counter.Reset()
	if _, err := db.RefreshAll(); err != nil {
		return nil, err
	}
	sim.RefreshIO = db.Counter.Reads() + db.Counter.Writes()
	sim.WeightedTotal = sim.WeightedRewritten + float64(sim.RefreshIO)

	// Delta epoch: insert a fraction of each table's rows, maintain the
	// views incrementally, and validate that the maintained views still
	// answer every query correctly.
	if opts.DeltaFraction > 0 {
		n, err := d.insertSyntheticDeltas(db, scale, opts.DeltaFraction, opts.Seed+1)
		if err != nil {
			return nil, err
		}
		sim.DeltaRows = n
		db.Counter.Reset()
		if _, err := db.IncrementalRefreshAll(); err != nil {
			return nil, err
		}
		sim.IncrementalRefreshIO = db.Counter.Reads() + db.Counter.Writes()
		for _, q := range d.queries {
			root := d.mvpp.Roots[q.Name]
			direct, err := db.Execute(root.Op)
			if err != nil {
				return nil, fmt.Errorf("mvpp: re-running %s after deltas: %w", q.Name, err)
			}
			rewritten, err := db.Execute(db.RewriteForViewSet(root.Op).Plan)
			if err != nil {
				return nil, fmt.Errorf("mvpp: re-running %s over maintained views: %w", q.Name, err)
			}
			if direct.Table.NumRows() != rewritten.Table.NumRows() {
				return nil, fmt.Errorf("mvpp: %s returned %d rows over maintained views, %d from base tables — incremental maintenance bug",
					q.Name, rewritten.Table.NumRows(), direct.Table.NumRows())
			}
		}
	}
	return sim, nil
}

// insertSyntheticDeltas stages fraction·rows pending inserts per base
// table, generated by the same per-column generators as the initial data
// (row indices continue past the existing rows, so key-like columns keep
// extending their domain).
func (d *Design) insertSyntheticDeltas(db *engine.DB, scale, fraction float64, seed int64) (int, error) {
	rows, total, err := d.syntheticDeltaRows(db, scale, fraction, seed)
	if err != nil {
		return 0, err
	}
	for _, name := range d.catalog.inner.Relations() {
		if len(rows[name]) == 0 {
			continue
		}
		if err := db.InsertDelta(name, rows[name]...); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// syntheticDeltaRows generates one delta epoch's rows per base table —
// about fraction·rows·scale rows each, from the same per-column generators
// as the initial data — without applying them anywhere. Simulate feeds them
// to InsertDelta; the serving layer's InjectDeltas feeds them to the
// maintenance scheduler.
func (d *Design) syntheticDeltaRows(db *engine.DB, scale, fraction float64, seed int64) (map[string][][]algebra.Value, int, error) {
	literals := d.collectLiterals()
	out := make(map[string][][]algebra.Value)
	total := 0
	for ti, name := range d.catalog.inner.Relations() {
		rel, err := d.catalog.inner.Relation(name)
		if err != nil {
			return nil, 0, err
		}
		t, err := db.Table(name)
		if err != nil {
			return nil, 0, err
		}
		n := int(math.Max(1, math.Round(rel.Rows*scale*fraction)))
		base := t.NumRows()
		r := rand.New(rand.NewSource(seed + 7919*int64(ti)))
		gens := make([]func(int) algebra.Value, rel.Schema.Len())
		for ci, col := range rel.Schema.Columns {
			gens[ci] = columnGenerator(col, rel.Attrs[col.Name], literals[name+"."+col.Name], base+n, scale, r)
		}
		rows := make([][]algebra.Value, 0, n)
		for j := 0; j < n; j++ {
			row := make([]algebra.Value, len(gens))
			for ci, g := range gens {
				row[ci] = g(base + j)
			}
			rows = append(rows, row)
		}
		out[name] = rows
		total += n
	}
	return out, total, nil
}

// buildSyntheticDB generates data for every catalog table.
func (d *Design) buildSyntheticDB(scale float64, seed int64) (*engine.DB, error) {
	db := engine.NewDB(engine.DefaultBlockRows)
	literals := d.collectLiterals()
	for ti, name := range d.catalog.inner.Relations() {
		rel, err := d.catalog.inner.Relation(name)
		if err != nil {
			return nil, err
		}
		rows := int(math.Max(1, math.Round(rel.Rows*scale)))
		blockRows := engine.DefaultBlockRows
		if rel.Blocks > 0 {
			if w := int(math.Round(rel.Rows / rel.Blocks)); w >= 1 {
				blockRows = w
			}
		}
		t, err := db.CreateSizedTable(name, rel.Schema, blockRows)
		if err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(seed + int64(ti)))
		gens := make([]func(int) algebra.Value, rel.Schema.Len())
		for ci, col := range rel.Schema.Columns {
			gens[ci] = columnGenerator(col, rel.Attrs[col.Name], literals[name+"."+col.Name], rows, scale, r)
		}
		for i := 0; i < rows; i++ {
			row := make([]algebra.Value, len(gens))
			for ci, g := range gens {
				row[ci] = g(i)
			}
			if err := t.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// collectLiterals gathers the comparison literals each column is tested
// against in the workload, so generated domains contain them.
func (d *Design) collectLiterals() map[string][]algebra.Value {
	out := make(map[string][]algebra.Value)
	var fromPred func(p algebra.Predicate)
	fromPred = func(p algebra.Predicate) {
		switch v := p.(type) {
		case *algebra.Comparison:
			if v.Left.IsColumn && !v.Right.IsColumn {
				key := v.Left.Col.String()
				out[key] = append(out[key], v.Right.Lit)
			}
		case *algebra.And:
			for _, q := range v.Preds {
				fromPred(q)
			}
		case *algebra.Or:
			for _, q := range v.Preds {
				fromPred(q)
			}
		case *algebra.Not:
			fromPred(v.Pred)
		}
	}
	for _, bound := range d.bound {
		for _, p := range bound.Selections {
			fromPred(p)
		}
	}
	for key, vals := range out {
		sort.Slice(vals, func(i, j int) bool { return vals[i].String() < vals[j].String() })
		dedup := vals[:0]
		for i, v := range vals {
			if i == 0 || v.String() != vals[i-1].String() {
				dedup = append(dedup, v)
			}
		}
		out[key] = dedup
	}
	return out
}

// columnGenerator builds a per-column value generator consistent with the
// catalog statistics and the workload's literals.
func columnGenerator(col algebra.Column, stats catalog.AttrStats, lits []algebra.Value, rows int, scale float64, r *rand.Rand) func(int) algebra.Value {
	switch col.Type {
	case algebra.TypeString:
		// Categorical: domain size does not scale. Literals occupy the
		// first slots of the value pool.
		n := int(stats.DistinctValues)
		if n < len(lits)+1 {
			n = len(lits) + 1
		}
		pool := make([]algebra.Value, n)
		for i := range pool {
			if i < len(lits) {
				pool[i] = lits[i]
			} else {
				pool[i] = algebra.StringVal(fmt.Sprintf("%s-v%04d", col.Name, i))
			}
		}
		return func(int) algebra.Value { return pool[r.Intn(len(pool))] }
	case algebra.TypeDate:
		lo, hi := int64(9496), int64(9861) // 1996 by default
		if loF, ok := numericBound(stats.Min); ok {
			lo = int64(loF)
		}
		if hiF, ok := numericBound(stats.Max); ok {
			hi = int64(hiF)
		}
		if hi <= lo {
			hi = lo + 1
		}
		return func(int) algebra.Value { return algebra.DateVal(lo + r.Int63n(hi-lo+1)) }
	case algebra.TypeFloat:
		return func(int) algebra.Value { return algebra.FloatVal(r.Float64() * 1000) }
	default: // TypeInt
		// Bounded domains (explicit ranges) stay fixed; key-like domains
		// scale with the data.
		if loF, okLo := numericBound(stats.Min); okLo {
			if hiF, okHi := numericBound(stats.Max); okHi && hiF > loF {
				lo, hi := int64(loF), int64(hiF)
				return func(int) algebra.Value { return algebra.IntVal(lo + r.Int63n(hi-lo+1)) }
			}
		}
		n := int64(math.Max(1, math.Round(stats.DistinctValues*scale)))
		if stats.DistinctValues == 0 {
			n = int64(rows)
		}
		if n >= int64(rows) {
			// Dense key: one distinct value per row.
			return func(i int) algebra.Value { return algebra.IntVal(int64(i)) }
		}
		return func(int) algebra.Value { return algebra.IntVal(r.Int63n(n)) }
	}
}

func numericBound(v algebra.Value) (float64, bool) {
	switch v.Kind {
	case algebra.TypeInt, algebra.TypeDate:
		return float64(v.Int), true
	case algebra.TypeFloat:
		return v.Float, true
	default:
		return 0, false
	}
}
