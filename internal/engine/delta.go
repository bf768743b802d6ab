package engine

import (
	"errors"
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
)

// ErrNotIncremental reports that a view's plan cannot be maintained by
// insert-only delta propagation (AVG aggregates, or an aggregate below the
// plan root); callers fall back to recomputation (Refresh).
var ErrNotIncremental = errors.New("engine: plan is not incrementally maintainable")

// InsertDelta records pending inserted rows for a base table. The rows are
// not yet visible to queries or refreshes: they form the delta that
// IncrementalRefresh propagates through view plans, and they join the base
// table when ApplyDeltas runs. Multiple calls accumulate; each call
// appends its whole batch column-at-a-time.
func (db *DB) InsertDelta(table string, rows ...[]algebra.Value) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	d, ok := db.deltas[table]
	if !ok {
		d = NewTable(table+"+Δ", t.Schema, t.BlockRows)
		db.deltas[table] = d
	}
	return d.Insert(rows...)
}

// PendingDeltaRows returns how many inserted rows are pending for a table.
func (db *DB) PendingDeltaRows(table string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if d, ok := db.deltas[table]; ok {
		return d.NumRows()
	}
	return 0
}

// ApplyDeltas folds every pending delta into its base table and clears the
// delta buffers, along with every view's propagation watermark (the rows
// are base state from now on). The fold is copy-on-write: each affected
// base table is republished as a fresh table — one columnar payload copy
// plus the delta appended — in one successor set, so concurrent readers
// keep scanning the set they hold. Base-table writes are not metered: the
// warehouse pays them under every maintenance policy, so they cancel out
// of any recompute-vs-incremental comparison.
func (db *DB) ApplyDeltas() error {
	if err := db.inj.Hit(fault.SiteEngineApplyDeltas); err != nil {
		return err
	}
	db.publish(func(next *RelationSet) {
		for name, d := range db.deltas {
			next.tables[name] = next.tables[name].cloneAppendTable(d)
		}
		db.deltas = make(map[string]*Table)
		db.propagated = make(map[string]map[string]int)
	})
	return nil
}

// deltaState is one view's frozen picture of the pending deltas: the rows
// it has not propagated yet (fresh), the rows it already folded in during
// an earlier refresh this epoch (oldExtra — part of the view's old state),
// and every pending row (allPending — the new state each join delta pairs
// against). seen records the per-table watermark to commit on success.
type deltaState struct {
	fresh      map[string]*Table
	oldExtra   map[string]*Table
	allPending map[string]*Table
	seen       map[string]int
}

// deltaSnapshot freezes the pending deltas and the view's watermarks under
// the maintainer lock. The slices are capacity-capped column views, so later
// InsertDelta appends never leak into a propagation already underway.
func (db *DB) deltaSnapshot(view string) *deltaState {
	ds := &deltaState{
		fresh:      make(map[string]*Table),
		oldExtra:   make(map[string]*Table),
		allPending: make(map[string]*Table),
		seen:       make(map[string]int),
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	marks := db.propagated[view]
	for name, d := range db.deltas {
		n := d.NumRows()
		k := marks[name]
		if k > n {
			k = n
		}
		ds.seen[name] = n
		ds.allPending[name] = d.sliceRows(0, n)
		ds.oldExtra[name] = d.sliceRows(0, k)
		ds.fresh[name] = d.sliceRows(k, n)
	}
	return ds
}

// IncrementalRefresh maintains one view by delta propagation: the pending
// base-table deltas flow through the view's plan (Δσ(S) = σ(ΔS), Δπ(S) =
// π(ΔS), Δ(L⋈R) = ΔL⋈R_new ∪ L_old⋈ΔR) and the resulting Δview is applied
// to the stored view — appended for select-project-join plans, merged
// group-by-group for a root aggregate. The apply publishes a successor
// view over a new table (together with its watermark), so concurrent
// readers never see a half-applied delta. A per-view watermark records how
// much of the pending delta has been folded in, so calling
// IncrementalRefresh again before ApplyDeltas propagates only rows that
// arrived since. Only the delta-path operators and the apply step are
// metered; the full operand relations a join delta pairs against are
// assumed available, the same convention under which the cost model's Ca
// and delta-propagation formulas charge operators. Returns
// ErrNotIncremental when the plan cannot be maintained this way.
func (db *DB) IncrementalRefresh(name string) (*Result, error) {
	rs := db.Relations()
	v, err := rs.View(name)
	if err != nil {
		return nil, err
	}
	if ok, why := algebra.Incrementable(v.Plan); !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotIncremental, why)
	}
	// The injection site sits after the incrementability gate, so injected
	// failures model delta application going wrong — ErrNotIncremental still
	// reaches callers undisturbed for their design-time fallback.
	if err := db.inj.Hit(fault.SiteEngineIncrementalRefresh); err != nil {
		return nil, err
	}
	ds := db.deltaSnapshot(name)
	res := &Result{}
	if agg, isAgg := v.Plan.(*algebra.Aggregate); isAgg {
		din, err := rs.deltaExec(agg.Input, ds, res)
		if err != nil {
			return nil, err
		}
		dagg, err := db.ops.aggregate(db, agg, din, res)
		if err != nil {
			return nil, err
		}
		res.Table, err = db.mergeAggregate(v, agg, dagg, res)
		if err != nil {
			return nil, err
		}
	} else {
		droot, err := rs.deltaExec(v.Plan, ds, res)
		if err != nil {
			return nil, err
		}
		res.Table = v.table.cloneAppendTable(droot)
		db.account(res, OpStats{
			Label:     "append " + name,
			Writes:    int64(droot.NumBlocks()),
			OutRows:   res.Table.NumRows(),
			OutBlocks: res.Table.NumBlocks(),
		})
	}
	db.swapView(v, res.Table, ds.seen)
	return res, nil
}

// IncrementalRefreshAll maintains every view for the pending deltas:
// incrementally maintainable plans refresh by delta propagation against
// the old base state; the rest recompute after the deltas are applied.
// Afterwards the deltas are part of the base tables and every view is
// consistent with the new state. Returns the per-view refresh I/O.
func (db *DB) IncrementalRefreshAll() (map[string]*Result, error) {
	names := db.Views()
	out := make(map[string]*Result, len(names))
	var recompute []string
	for _, name := range names {
		res, err := db.IncrementalRefresh(name)
		if errors.Is(err, ErrNotIncremental) {
			recompute = append(recompute, name)
			continue
		}
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	if err := db.ApplyDeltas(); err != nil {
		return nil, err
	}
	for _, name := range recompute {
		res, err := db.Refresh(name)
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	return out, nil
}

// deltaExec computes the delta table of the relation at n under the
// snapshot ds. Select/project/join work on the delta stream is metered
// into res; operand relations (the full sides a delta joins against) are
// produced unmetered. Joins on the delta path are always block
// nested-loop — the delta-propagation cost formulas assume BlockNLJ — in
// both execution modes.
func (rs *RelationSet) deltaExec(n algebra.Node, ds *deltaState, res *Result) (*Table, error) {
	db := rs.db
	switch v := n.(type) {
	case *algebra.Scan:
		if d, ok := ds.fresh[v.Relation]; ok {
			return d, nil
		}
		// No pending inserts: an empty delta with the scan's schema.
		return NewTable("", v.Schema(), db.BlockRows), nil
	case *algebra.Select:
		din, err := rs.deltaExec(v.Input, ds, res)
		if err != nil {
			return nil, err
		}
		return db.ops.sel(db, v, din, res)
	case *algebra.Project:
		din, err := rs.deltaExec(v.Input, ds, res)
		if err != nil {
			return nil, err
		}
		return db.ops.project(db, v, din, res)
	case *algebra.Join:
		dl, err := rs.deltaExec(v.Left, ds, res)
		if err != nil {
			return nil, err
		}
		dr, err := rs.deltaExec(v.Right, ds, res)
		if err != nil {
			return nil, err
		}
		rightNew, err := rs.execUnmetered(v.Right, ds.allPending)
		if err != nil {
			return nil, err
		}
		leftOld, err := rs.execUnmetered(v.Left, ds.oldExtra)
		if err != nil {
			return nil, err
		}
		part1, err := db.ops.nlJoin(db, v, dl, rightNew, res)
		if err != nil {
			return nil, err
		}
		part2, err := db.ops.nlJoin(db, v, leftOld, dr, res)
		if err != nil {
			return nil, err
		}
		part1.appendTable(part2)
		return part1, nil
	default:
		return nil, fmt.Errorf("engine: cannot propagate deltas through node type %T", n)
	}
}

// execUnmetered evaluates a subplan without block accounting against the
// set extended by the given extra base-table rows (the already-propagated
// extras = the view's old state; the all-pending extras = the new state).
// The extended set is never published, so concurrent readers are
// undisturbed.
func (rs *RelationSet) execUnmetered(n algebra.Node, extra map[string]*Table) (*Table, error) {
	ext := *rs
	ext.tables = make(map[string]*Table, len(rs.tables))
	for name, t := range rs.tables {
		if x := extra[name]; x != nil && x.NumRows() > 0 {
			t = t.cloneAppendTable(x)
		}
		ext.tables[name] = t
	}
	return ext.exec(n, nil)
}

// mergeAggregate folds the aggregated delta groups into the stored view:
// the stored view is read, matching groups combine (COUNT/SUM add, MIN/MAX
// compare), new groups append, and the merged table is returned for
// publication. The merge itself is executor-independent: the stored view
// and the delta groups are both materialized once, combined row-wise, and
// re-ingested as one batch.
func (db *DB) mergeAggregate(v *MaterializedView, agg *algebra.Aggregate, dagg *Table, res *Result) (*Table, error) {
	nKeys := len(agg.GroupBy)
	keyOf := func(row []algebra.Value) string {
		key := ""
		for i := 0; i < nKeys; i++ {
			key += row[i].String() + "|"
		}
		return key
	}
	cur := v.table
	rows := cur.materializeRows()
	byKey := make(map[string]int, len(rows))
	for i, row := range rows {
		byKey[keyOf(row)] = i
	}
	for _, drow := range dagg.materializeRows() {
		key := keyOf(drow)
		idx, ok := byKey[key]
		if !ok {
			byKey[key] = len(rows)
			rows = append(rows, drow)
			continue
		}
		stored := rows[idx]
		for i, a := range agg.Aggs {
			col := nKeys + i
			combined, err := combineAgg(a.Func, stored[col], drow[col])
			if err != nil {
				return nil, err
			}
			stored[col] = combined
		}
	}
	out := NewTable("", cur.Schema, cur.BlockRows)
	if err := out.Insert(rows...); err != nil {
		return nil, err
	}
	stats := OpStats{
		Label:     "merge " + v.Name,
		Reads:     int64(cur.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// combineAgg merges a delta group's aggregate value into the stored one.
func combineAgg(fn algebra.AggFunc, stored, delta algebra.Value) (algebra.Value, error) {
	switch fn {
	case algebra.AggCount, algebra.AggSum:
		if stored.Kind == algebra.TypeFloat || delta.Kind == algebra.TypeFloat {
			return algebra.FloatVal(numeric(stored) + numeric(delta)), nil
		}
		return algebra.IntVal(stored.Int + delta.Int), nil
	case algebra.AggMin:
		c, err := delta.Compare(stored)
		if err != nil {
			return algebra.Value{}, err
		}
		if c < 0 {
			return delta, nil
		}
		return stored, nil
	case algebra.AggMax:
		c, err := delta.Compare(stored)
		if err != nil {
			return algebra.Value{}, err
		}
		if c > 0 {
			return delta, nil
		}
		return stored, nil
	default:
		return algebra.Value{}, fmt.Errorf("%w: cannot merge %s", ErrNotIncremental, fn)
	}
}

func numeric(v algebra.Value) float64 {
	if v.Kind == algebra.TypeFloat {
		return v.Float
	}
	return float64(v.Int)
}
