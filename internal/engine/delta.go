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
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("engine: %w %q", ErrUnknownRelation, table)
	}
	d, ok := db.deltas[table]
	if !ok {
		d = NewTable(table+"+Δ", t.Schema, t.BlockRows)
		db.deltas[table] = d
	}
	return d.Insert(rows...)
}

// PendingDeltaRows returns how many inserted rows are pending for a table.
func (db *DB) PendingDeltaRows(table string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if d, ok := db.deltas[table]; ok {
		return d.NumRows()
	}
	return 0
}

// ApplyDeltas folds every pending delta into its base table and clears the
// delta buffers, along with every view's propagation watermark (the rows
// are base state from now on). The fold is copy-on-write: each affected
// base table is republished as a fresh table — one columnar payload copy
// plus the delta appended — so concurrent readers keep scanning the
// snapshot they resolved. Base-table writes are not metered: the
// warehouse pays them under every maintenance policy, so they cancel out
// of any recompute-vs-incremental comparison.
func (db *DB) ApplyDeltas() error {
	if err := db.inj.Hit(fault.SiteEngineApplyDeltas); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, d := range db.deltas {
		db.tables[name] = db.tables[name].cloneAppendTable(d)
	}
	db.deltas = make(map[string]*Table)
	db.propagated = make(map[string]map[string]int)
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
// the read lock. The slices are capacity-capped column views, so later
// InsertDelta appends never leak into a propagation already underway.
func (db *DB) deltaSnapshot(view string) *deltaState {
	ds := &deltaState{
		fresh:      make(map[string]*Table),
		oldExtra:   make(map[string]*Table),
		allPending: make(map[string]*Table),
		seen:       make(map[string]int),
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
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

// markPropagated commits a successful propagation's watermarks.
func (db *DB) markPropagated(view string, seen map[string]int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	m := db.propagated[view]
	if m == nil {
		m = make(map[string]int, len(seen))
		db.propagated[view] = m
	}
	for name, n := range seen {
		m[name] = n
	}
}

// IncrementalRefresh maintains one view by delta propagation: the pending
// base-table deltas flow through the view's plan (Δσ(S) = σ(ΔS), Δπ(S) =
// π(ΔS), Δ(L⋈R) = ΔL⋈R_new ∪ L_old⋈ΔR) and the resulting Δview is applied
// to the stored view — appended for select-project-join plans, merged
// group-by-group for a root aggregate. The apply is an epoch swap: a new
// table replaces the stored one, so concurrent readers never see a
// half-applied delta. A per-view watermark records how much of the pending
// delta has been folded in, so calling IncrementalRefresh again before
// ApplyDeltas propagates only rows that arrived since. Only the delta-path
// operators and the apply step are metered; the full operand relations a
// join delta pairs against are assumed available, the same convention
// under which the cost model's Ca and delta-propagation formulas charge
// operators. Returns ErrNotIncremental when the plan cannot be maintained
// this way.
func (db *DB) IncrementalRefresh(name string) (*Result, error) {
	v, err := db.View(name)
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
	plan := v.Plan
	if agg, isAgg := plan.(*algebra.Aggregate); isAgg {
		din, err := db.deltaExec(agg.Input, ds, res)
		if err != nil {
			return nil, err
		}
		dagg, err := db.ops.aggregate(db, agg, din, res)
		if err != nil {
			return nil, err
		}
		merged, err := db.mergeAggregate(v, agg, dagg, res)
		if err != nil {
			return nil, err
		}
		merged.Name = name
		v.setTable(merged)
		db.markPropagated(name, ds.seen)
		res.Table = merged
		return res, nil
	}
	droot, err := db.deltaExec(plan, ds, res)
	if err != nil {
		return nil, err
	}
	cur := v.Table()
	next := cur.cloneAppendTable(droot)
	next.Name = name
	stats := OpStats{
		Label:     "append " + name,
		Writes:    int64(droot.NumBlocks()),
		OutRows:   next.NumRows(),
		OutBlocks: next.NumBlocks(),
	}
	db.account(stats)
	res.Ops = append(res.Ops, stats)
	v.setTable(next)
	db.markPropagated(name, ds.seen)
	res.Table = next
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
func (db *DB) deltaExec(n algebra.Node, ds *deltaState, res *Result) (*Table, error) {
	switch v := n.(type) {
	case *algebra.Scan:
		if d, ok := ds.fresh[v.Relation]; ok {
			return d, nil
		}
		// No pending inserts: an empty delta with the scan's schema.
		return NewTable("", v.Schema(), db.BlockRows), nil
	case *algebra.Select:
		din, err := db.deltaExec(v.Input, ds, res)
		if err != nil {
			return nil, err
		}
		return db.ops.sel(db, v, din, res)
	case *algebra.Project:
		din, err := db.deltaExec(v.Input, ds, res)
		if err != nil {
			return nil, err
		}
		return db.ops.project(db, v, din, res)
	case *algebra.Join:
		dl, err := db.deltaExec(v.Left, ds, res)
		if err != nil {
			return nil, err
		}
		dr, err := db.deltaExec(v.Right, ds, res)
		if err != nil {
			return nil, err
		}
		rightNew, err := db.execUnmetered(v.Right, ds.allPending)
		if err != nil {
			return nil, err
		}
		leftOld, err := db.execUnmetered(v.Left, ds.oldExtra)
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
// base tables extended by the given extra rows (nil extras = the old
// state; the all-pending extras = the new state). It runs on a shadow
// database value — the receiver is never mutated, so concurrent readers
// of the real DB are undisturbed.
func (db *DB) execUnmetered(n algebra.Node, extra map[string]*Table) (*Table, error) {
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		x := extra[name]
		if x == nil || x.NumRows() == 0 {
			tables[name] = t
			continue
		}
		tables[name] = t.cloneAppendTable(x)
	}
	views := db.views
	db.mu.RUnlock()
	shadow := &DB{
		BlockRows:  db.BlockRows,
		Counter:    &Counter{},
		tables:     tables,
		views:      views,
		deltas:     make(map[string]*Table),
		propagated: make(map[string]map[string]int),
		joinAlgo:   db.joinAlgo,
		ops:        db.ops,
	}
	var scratch Result
	return shadow.exec(n, &scratch)
}

// mergeAggregate folds the aggregated delta groups into the stored view:
// the stored view is read, matching groups combine (COUNT/SUM add, MIN/MAX
// compare), new groups append, and the merged table is returned for the
// epoch swap. The merge itself is executor-independent: the stored view
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
	cur := v.Table()
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
	db.account(stats)
	res.Ops = append(res.Ops, stats)
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
