package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
)

// ErrNotIncremental reports that a view's plan cannot be maintained by
// insert-only delta propagation (AVG aggregates, or an aggregate below the
// plan root); callers fall back to recomputation (Refresh).
var ErrNotIncremental = errors.New("engine: plan is not incrementally maintainable")

// InsertDelta records pending inserted rows for a base table. The rows are
// not yet visible to queries or refreshes: they form the delta the next
// maintenance epoch propagates through view plans and folds into the base
// table. Multiple calls accumulate; each call appends its whole batch
// column-at-a-time.
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

// MaintenanceEpoch is the maintainer's one unit of change. BeginMaintenance
// freezes the rows pending in each delta buffer and copies the published
// set's two maps into a private successor; IncrementalRefresh, ApplyDeltas,
// Refresh, Materialize and DropView write only into that successor; Commit
// stores it — the epoch's one publication — and trims the frozen rows off the
// delta buffers. An epoch that is let go instead (ApplyDeltas kept failing, a
// refresh panicked) has published and consumed nothing: the next epoch
// freezes the same rows, and whatever arrived since.
//
// The epoch's state is fixed at Begin: a relation's old state is what the
// published set stores (read in place), a dirty base table's new state is
// the stored rows followed by the frozen ones (built at most once — it is the
// table ApplyDeltas installs), Δ of a base table is the frozen rows. Within
// that state the propagations share their work: every relation one of them
// derives — the full operand a join delta pairs against, the Δ of a
// subexpression — is evaluated once and read by every view whose plan
// contains it (Mistry et al., shared maintenance plans: common results are
// computed once, kept transiently, and the views installed together). A
// derived relation is identified by value numbering: the subexpression,
// interned in the epoch's arena, plus the identities of the relations it was
// derived from (immutable tables, so pointer = value); a subexpression over
// clean tables is one entry for the old and the new state alike.
//
// An epoch holds every table it derived: keep it a local of the maintainer,
// from Begin to Commit, never a field of something that outlives the epoch.
type MaintenanceEpoch struct {
	db *DB
	// base is the published set the epoch began on; next its private
	// successor, which Commit publishes.
	base, next *RelationSet
	// frozen is each dirty base table's pending rows as of Begin (a
	// capacity-capped view of the delta buffer: later InsertDelta appends
	// never leak in); grown the new-state tables built from it so far.
	frozen, grown map[string]*Table
	// refreshed: a view took the frozen rows in; applied: so did the base
	// tables. Commit refuses the first without the second.
	refreshed, applied bool
	dropped            []string // by DropView; Commit deletes their snapshots

	arena *algebra.Arena
	memo  map[epochKey]epochEntry
	// evaluated and reused count the unmetered relations (new-state tables,
	// operands): derived here, or found already derived.
	evaluated, reused int
}

// relState says which relation of a subexpression a propagation wants.
type relState uint8

const (
	deltaRows relState = iota // Δ: what the frozen pending rows add
	oldState                  // the published set's rows
	newState                  // the published set's rows plus the frozen pending ones
)

type epochKey struct {
	expr  algebra.ExprID
	delta bool
	in    [4]*Table // the relations derived from; memoised tables are immutable, so identity is value
}

// epochEntry is one derived relation and, on the Δ path, the metered
// operators that produced it.
type epochEntry struct {
	table *Table
	ops   []OpStats
}

// BeginMaintenance opens a maintenance epoch; see MaintenanceEpoch.
func (db *DB) BeginMaintenance() *MaintenanceEpoch {
	db.mu.Lock()
	defer db.mu.Unlock()
	base := db.rels.Load()
	ep := &MaintenanceEpoch{
		db: db, base: base,
		next:   &RelationSet{db: db, gen: base.gen, tables: maps.Clone(base.tables), views: maps.Clone(base.views)},
		frozen: make(map[string]*Table, len(db.deltas)), grown: make(map[string]*Table, len(db.deltas)),
		arena: algebra.NewArena(), memo: make(map[epochKey]epochEntry),
	}
	for name, d := range db.deltas {
		if n := d.NumRows(); n > 0 {
			ep.frozen[name] = d.Slice(0, n)
		}
	}
	return ep
}

// Pending reports how many pending rows the epoch froze per dirty base
// table: its Δ, and what its ApplyDeltas folds in.
func (ep *MaintenanceEpoch) Pending() map[string]int {
	rows := make(map[string]int, len(ep.frozen))
	for name, f := range ep.frozen {
		rows[name] = f.NumRows()
	}
	return rows
}

// Relations returns the epoch's successor as it stands: what Commit will
// publish, private until then.
func (ep *MaintenanceEpoch) Relations() *RelationSet { return ep.next }

// Operands reports how many unmetered relations the epoch evaluated and how
// many requests it answered from one already evaluated.
func (ep *MaintenanceEpoch) Operands() (evaluated, reused int) { return ep.evaluated, ep.reused }

// grownTable is a dirty base table in the epoch's new state.
func (ep *MaintenanceEpoch) grownTable(name string) *Table {
	t, ok := ep.grown[name]
	if !ok {
		t = ep.base.tables[name].cloneAppendTable(ep.frozen[name])
		ep.grown[name] = t
	}
	return t
}

// ApplyDeltas folds the frozen rows into their base tables, in the epoch's
// successor: each dirty table is replaced by its new state — one columnar
// payload copy plus the delta, the very table the propagations paired
// against. Base-table writes are not metered: the warehouse pays them under
// every maintenance policy, so they cancel out of any recompute-vs-
// incremental comparison. A failed call changes nothing and may be retried.
func (ep *MaintenanceEpoch) ApplyDeltas() error {
	if err := ep.db.inj.Hit(fault.SiteEngineApplyDeltas); err != nil {
		return err
	}
	for name := range ep.frozen {
		ep.next.tables[name] = ep.grownTable(name)
	}
	ep.applied = true
	return nil
}

// Commit publishes the epoch's successor — readers see all of the epoch or
// none of it — and, if the epoch applied the deltas, trims the frozen rows off
// the delta buffers (rows that arrived since Begin stay pending). It refuses
// an epoch that refreshed a view with the frozen rows without applying them
// (the next epoch would add them again) and one whose base is no longer the
// published set: maintainers are one at a time. After the publication it
// deletes the dropped views' snapshot segments; a failure there is returned,
// the publication stands.
func (ep *MaintenanceEpoch) Commit() error {
	db := ep.db
	if ep.refreshed && !ep.applied {
		return errors.New("engine: commit of incrementally refreshed views without ApplyDeltas")
	}
	db.mu.Lock()
	if !db.rels.CompareAndSwap(ep.base, ep.next) {
		db.mu.Unlock()
		return errors.New("engine: the published relation set changed under the maintenance epoch")
	}
	if ep.applied {
		for name, f := range ep.frozen {
			d := db.deltas[name]
			db.deltas[name] = d.Slice(f.NumRows(), d.NumRows())
		}
	}
	snap := db.snapStore
	db.mu.Unlock()
	if snap != nil {
		for _, name := range ep.dropped {
			if err := snap.DropViewSnapshot(name); err != nil {
				return fmt.Errorf("engine: dropping snapshot of view %s: %w", name, err)
			}
		}
	}
	return nil
}

// IncrementalRefresh maintains one view by delta propagation: the frozen
// base-table deltas flow through the view's plan (Δσ(S) = σ(ΔS), Δπ(S) =
// π(ΔS), Δ(L⋈R) = ΔL⋈R_new ∪ L_old⋈ΔR) and the resulting Δview is applied
// to the view's published rows — appended for select-project-join plans,
// merged group-by-group for a root aggregate — into a new table that takes
// the view's place in the epoch's successor. Refreshing a view again in the
// same epoch starts from the same published rows and the same Δ, so it
// changes nothing. Only the delta-path operators and the apply step are
// metered; the full operand relations a join delta pairs against are assumed
// available, the same convention under which the cost model's Ca and
// delta-propagation formulas charge operators. A Δ-subexpression another
// view of the epoch already evaluated is not evaluated again: its recorded
// operators are accounted to this view as if it had been, so the Result, the
// Counter and the operator events are those of a view maintained alone.
// Returns ErrNotIncremental when the plan cannot be maintained this way.
func (ep *MaintenanceEpoch) IncrementalRefresh(name string) (*Result, error) {
	db := ep.db
	v, err := ep.base.View(name)
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
	res := &Result{}
	dview, err := ep.rel(v.Plan, deltaRows, res)
	if err != nil {
		return nil, err
	}
	if agg, isAgg := v.Plan.(*algebra.Aggregate); isAgg {
		if res.Table, err = db.mergeAggregate(v, agg, dview, res); err != nil {
			return nil, err
		}
	} else {
		res.Table = v.table.cloneAppendTable(dview)
		db.account(res, OpStats{
			Label:     "append " + v.Name,
			Writes:    int64(dview.NumBlocks()),
			OutRows:   res.Table.NumRows(),
			OutBlocks: res.Table.NumBlocks(),
		})
	}
	ep.setView(v, res.Table)
	ep.refreshed = true
	return res, nil
}

// IncrementalRefreshAll maintains every view for the pending deltas in one
// epoch: incrementally maintainable plans refresh by delta propagation
// against the old base state; the rest recompute after the deltas are
// applied. Afterwards the deltas are part of the base tables and every view
// is consistent with the new state. Returns the per-view refresh I/O.
func (db *DB) IncrementalRefreshAll() (map[string]*Result, error) {
	ep := db.BeginMaintenance()
	names := ep.base.Views()
	out := make(map[string]*Result, len(names))
	var recompute []string
	for _, name := range names {
		res, err := ep.IncrementalRefresh(name)
		if errors.Is(err, ErrNotIncremental) {
			recompute = append(recompute, name)
			continue
		}
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	if err := ep.ApplyDeltas(); err != nil {
		return nil, err
	}
	for _, name := range recompute {
		res, err := ep.Refresh(name)
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	return out, ep.Commit()
}

// rel returns the relation at n in state st: its Δ under the epoch's frozen
// pending rows, or one of the two full relations a join delta pairs
// against. The walk visits every node of the view's plan — that is how a
// node learns the identities of its inputs — but evaluates only what no
// earlier walk of the epoch has. Select, project, aggregate and join work
// on the delta stream is metered into the view's Result; the old- and
// new-state relations are produced unmetered. The two legs of a join delta
// are always block nested-loop, whatever db.joinAlgo says: the
// delta-propagation cost formulas assume BlockNLJ.
func (ep *MaintenanceEpoch) rel(n algebra.Node, st relState, res *Result) (*Table, error) {
	db := ep.db
	key := epochKey{expr: ep.arena.Intern(n), delta: st == deltaRows}
	if st != deltaRows {
		res = nil
	}
	// The inputs first: the same state of every child, except that a join
	// delta pairs each side's Δ with the other side's full relation.
	type input struct {
		n  algebra.Node
		st relState
	}
	var inputs []input
	if j, ok := n.(*algebra.Join); ok && st == deltaRows {
		inputs = []input{{j.Left, deltaRows}, {j.Right, deltaRows}, {j.Right, newState}, {j.Left, oldState}}
	} else {
		for _, c := range n.Children() {
			inputs = append(inputs, input{c, st})
		}
	}
	for i, in := range inputs {
		var err error
		if key.in[i], err = ep.rel(in.n, in.st, res); err != nil {
			return nil, err
		}
	}
	in := key.in
	var eval func() (*Table, error)
	switch v := n.(type) {
	case *algebra.Scan:
		frozen := ep.frozen[v.Relation]
		if st == deltaRows {
			if frozen != nil {
				return frozen, nil
			}
			// No pending inserts: an empty delta with the scan's schema.
			eval = func() (*Table, error) { return NewTable("", v.Schema(), db.BlockRows), nil }
			break
		}
		stored, err := ep.base.relation(v.Relation)
		if err != nil || st == oldState || frozen == nil {
			return stored, err
		}
		key.in[0], key.in[1] = stored, frozen
		eval = func() (*Table, error) { return ep.grownTable(v.Relation), nil }
	case *algebra.Select:
		eval = func() (*Table, error) { return db.ops.sel(db, v, in[0], res) }
	case *algebra.Project:
		eval = func() (*Table, error) { return db.ops.project(db, v, in[0], res) }
	case *algebra.Aggregate:
		eval = func() (*Table, error) { return db.ops.aggregate(db, v, in[0], res) }
	case *algebra.Join:
		if st != deltaRows {
			eval = func() (*Table, error) { return db.opJoin(v, in[0], in[1], nil) }
			break
		}
		eval = func() (*Table, error) {
			dl, dr, rightNew, leftOld := in[0], in[1], in[2], in[3]
			part1, err := db.ops.nlJoin(db, v, dl, rightNew, res)
			if err != nil {
				return nil, err
			}
			part2, err := db.ops.nlJoin(db, v, leftOld, dr, res)
			if err != nil {
				return nil, err
			}
			// part1 is this call's own join output; nothing stored is touched.
			part1.appendTable(part2)
			return part1, nil
		}
	default:
		return nil, fmt.Errorf("engine: cannot propagate deltas through node type %T", n)
	}
	if e, ok := ep.memo[key]; ok {
		if res == nil {
			ep.reused++
		}
		for _, s := range e.ops {
			// Equal expressions may write a conjunction in different orders.
			s.Label = n.Label()
			db.account(res, s)
		}
		return e.table, nil
	}
	first := 0
	if res != nil {
		first = len(res.Ops)
	}
	t, err := eval()
	if err != nil {
		return nil, err
	}
	e := epochEntry{table: t}
	if res != nil {
		e.ops = slices.Clone(res.Ops[first:])
	} else {
		ep.evaluated++
	}
	ep.memo[key] = e
	return t, nil
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
