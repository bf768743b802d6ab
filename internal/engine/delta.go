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
// that state the propagations share their work: the Δ of a subexpression is
// evaluated once and read by every view whose plan contains it (Mistry et
// al., shared maintenance plans: common results are computed once, kept
// transiently, and the views installed together). A subexpression is
// identified by its ExprID in the DB's maintenance arena, which lives as long
// as the DB.
//
// No full operand is built. A join delta's legs ΔL ⋈ R_new and L_old ⋈ ΔR
// evaluate only the rows of the full side that the Δ side's join keys reach
// (see operand), and a leg is metered as the block nested loop over the full
// side, for which a row count is all it needs: the count of every maintained
// subexpression is carried from one committed epoch to the next as
// |e_new| = |e_old| + |Δe|, and taken once, by evaluating it whole, when no
// count is carried.
//
// An epoch holds every Δ it derived: keep it a local of the maintainer, from
// Begin to Commit, never a field of something that outlives the epoch.
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

	// memo holds the Δ of every subexpression evaluated so far.
	memo map[algebra.ExprID]epochEntry
	// carriedIn is the old-state row counts the last committed epoch handed
	// this one (read only; nil when another publication came between), rows
	// the ones this epoch has used, carried or taken by evaluating an operand
	// whole.
	carriedIn, rows map[algebra.ExprID]int
	// whole counts the operands evaluated whole, carried the carried row
	// counts used.
	whole, carried int
}

// relState says which full relation of a subexpression an operand is.
type relState uint8

const (
	oldState relState = iota // the published set's rows
	newState                 // the published set's rows plus the frozen pending ones
)

// epochEntry is the Δ of one subexpression and the metered operators that
// produced it. overView marks a Δ that scans a materialized view: a view is
// not a base table, its Δ reads as empty, and its rows change by refresh, so
// no row count is carried for such a subexpression.
type epochEntry struct {
	table    *Table
	ops      []OpStats
	overView bool
}

// carriedCounts is what a committed maintenance epoch hands the next: the
// old-state row count of every maintained subexpression, valid for the
// publication numbered seq and for no other.
type carriedCounts struct {
	seq  uint64
	rows map[algebra.ExprID]int
}

// BeginMaintenance opens a maintenance epoch; see MaintenanceEpoch.
func (db *DB) BeginMaintenance() *MaintenanceEpoch {
	db.mu.Lock()
	defer db.mu.Unlock()
	base := db.rels.Load()
	ep := &MaintenanceEpoch{
		db: db, base: base,
		next:   &RelationSet{db: db, seq: base.seq + 1, gen: base.gen, tables: maps.Clone(base.tables), views: maps.Clone(base.views)},
		frozen: make(map[string]*Table, len(db.deltas)), grown: make(map[string]*Table, len(db.deltas)),
		memo: make(map[algebra.ExprID]epochEntry), rows: make(map[algebra.ExprID]int),
	}
	if db.carried.seq == base.seq {
		ep.carriedIn = db.carried.rows
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

// Operands reports how many operands of join deltas the epoch evaluated whole
// — to take a row count no committed epoch carried, or because a Δ's join
// keys cannot be probed exactly — and how many carried row counts it used
// instead.
func (ep *MaintenanceEpoch) Operands() (whole, carried int) { return ep.whole, ep.carried }

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
// the delta buffers (rows that arrived since Begin stay pending) and hands
// the next epoch its row counts (see carry). It refuses
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
	carried := carriedCounts{seq: ep.next.seq, rows: ep.carry()}
	db.mu.Lock()
	if !db.rels.CompareAndSwap(ep.base, ep.next) {
		db.mu.Unlock()
		return errors.New("engine: the published relation set changed under the maintenance epoch")
	}
	db.carried = carried
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
// delta-propagation formulas charge operators — each leg is charged as the
// block nested loop over the full operand, of which only the rows the Δ can
// reach are evaluated. A Δ-subexpression another
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
	d, err := ep.delta(v.Plan, res)
	if err != nil {
		return nil, err
	}
	dview := d.table
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

// delta returns the Δ of n under the epoch's frozen pending rows. The walk
// visits every node of the view's plan, children first, but evaluates only
// what no earlier walk of the epoch has; a Δ found in the memo replays the
// operators recorded with it. Select, project, aggregate and join work on the
// delta stream is metered into res.
func (ep *MaintenanceEpoch) delta(n algebra.Node, res *Result) (epochEntry, error) {
	db := ep.db
	id := db.arena.Intern(n)
	children := n.Children()
	in := make([]*Table, len(children))
	overView := false
	for i, c := range children {
		e, err := ep.delta(c, res)
		if err != nil {
			return epochEntry{}, err
		}
		in[i], overView = e.table, overView || e.overView
	}
	if e, ok := ep.memo[id]; ok {
		for _, s := range e.ops {
			// Equal expressions may write a conjunction in different orders.
			s.Label = n.Label()
			db.account(res, s)
		}
		return e, nil
	}
	first := len(res.Ops)
	var t *Table
	var err error
	switch v := n.(type) {
	case *algebra.Scan:
		_, overView = ep.base.views[v.Relation]
		if t = ep.frozen[v.Relation]; t == nil {
			// No pending inserts: an empty delta with the scan's schema.
			t = NewTable("", v.Schema(), db.BlockRows)
		}
	case *algebra.Select:
		t, err = db.denseSel(v, in[0], res)
	case *algebra.Project:
		t, err = db.ops.project(db, v, in[0], res)
	case *algebra.Aggregate:
		t, err = db.ops.aggregate(db, v, in[0], res)
	case *algebra.Join:
		t, err = ep.joinDelta(v, in[0], in[1], res)
	default:
		err = fmt.Errorf("engine: cannot propagate deltas through node type %T", n)
	}
	if err != nil {
		return epochEntry{}, err
	}
	e := epochEntry{table: t, ops: slices.Clone(res.Ops[first:]), overView: overView}
	ep.memo[id] = e
	return e, nil
}

// joinDelta is Δ(L⋈R) = ΔL⋈R_new ∪ L_old⋈ΔR, the two legs in that order.
func (ep *MaintenanceEpoch) joinDelta(j *algebra.Join, dl, dr *Table, res *Result) (*Table, error) {
	leftOld, err := ep.oldRows(j.Left)
	if err != nil {
		return nil, err
	}
	rightOld, err := ep.oldRows(j.Right)
	if err != nil {
		return nil, err
	}
	part1, err := ep.leg(j, dl, true, newState, rightOld+dr.NumRows(), res)
	if err != nil {
		return nil, err
	}
	part2, err := ep.leg(j, dr, false, oldState, leftOld, res)
	switch {
	case err != nil:
		return nil, err
	case part1 == nil && part2 == nil:
		return NewTable("", j.Schema(), ep.db.BlockRows), nil
	case part1 == nil:
		return part2, nil
	case part2 != nil:
		// part1 is this call's own join output; nothing stored is touched.
		part1.appendTable(part2)
	}
	return part1, nil
}

// leg joins d, the Δ of one side of j (the left when deltaLeft), with the
// other side's full relation in state st, which holds rows rows. Only the
// full side's rows that d's join keys reach are evaluated — none when d is
// empty — and joined by the block nested loop, whatever db.joinAlgo says:
// the delta-propagation cost formulas assume BlockNLJ. The leg is metered as
// that loop over the whole full side: blocks(outer) + blocks(outer) ·
// blocks(inner) reads, then the output's writes, rows and blocks. A leg
// that joins nothing returns nil.
func (ep *MaintenanceEpoch) leg(j *algebra.Join, d *Table, deltaLeft bool, st relState, rows int, res *Result) (*Table, error) {
	db := ep.db
	full := j.Right
	if !deltaLeft {
		full = j.Left
	}
	var out *Table
	if d.NumRows() > 0 {
		f := probeBy(j, d, deltaLeft)
		if f == nil {
			ep.whole++
		}
		operand, err := ep.operand(full, st, f)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			left, right := d, operand
			if !deltaLeft {
				left, right = operand, d
			}
			if out, err = db.ops.nlJoin(db, j, left, right, nil); err != nil {
				return nil, err
			}
		}
	}
	outer, inner := int64(d.NumBlocks()), int64(blocks(rows, ep.blockRows(full)))
	if !deltaLeft {
		outer, inner = inner, outer
	}
	stats := OpStats{Label: j.Label(), Reads: outer + outer*inner}
	if out != nil {
		stats.Writes, stats.OutRows, stats.OutBlocks = int64(out.NumBlocks()), out.NumRows(), out.NumBlocks()
	}
	db.account(res, stats)
	return out, nil
}

// blocks is how many blocks rows rows occupy at blockRows rows per block.
func blocks(rows, blockRows int) int { return (rows + blockRows - 1) / blockRows }

// blockRows is the blocking factor of n's relation: a stored table's own,
// the DB's for every operator output.
func (ep *MaintenanceEpoch) blockRows(n algebra.Node) int {
	if s, ok := n.(*algebra.Scan); ok {
		if t, err := ep.base.relation(s.Relation); err == nil {
			return t.BlockRows
		}
	}
	return ep.db.BlockRows
}

// oldRows is the row count of n in the old state: a stored table's own, a
// count carried from the last committed epoch, or — once, when none is — the
// count of n evaluated whole.
func (ep *MaintenanceEpoch) oldRows(n algebra.Node) (int, error) {
	if s, ok := n.(*algebra.Scan); ok {
		t, err := ep.base.relation(s.Relation)
		if err != nil {
			return 0, err
		}
		return t.NumRows(), nil
	}
	id := ep.db.arena.Intern(n)
	if rows, ok := ep.rows[id]; ok {
		return rows, nil
	}
	if rows, ok := ep.carriedIn[id]; ok {
		ep.carried++
		ep.rows[id] = rows
		return rows, nil
	}
	t, err := ep.operand(n, oldState, nil)
	if err != nil {
		return 0, err
	}
	ep.whole++
	rows := 0
	if t != nil {
		rows = t.NumRows()
	}
	ep.rows[id] = rows
	return rows, nil
}

// carry returns the row counts the epoch hands the next one if it commits:
// for every subexpression with a known old-state count, that count plus its
// Δ when the epoch evaluated the Δ, the count alone when no table under it is
// dirty. Only an epoch that applied its deltas and left the set of views as
// it was carries anything: every other publication — Materialize, DropView,
// RestoreView, a recomputation outside an epoch of deltas — drops the counts.
func (ep *MaintenanceEpoch) carry() map[algebra.ExprID]int {
	if !ep.applied || ep.next.gen != ep.base.gen {
		return nil
	}
	out := make(map[algebra.ExprID]int, len(ep.carriedIn)+len(ep.rows))
	add := func(id algebra.ExprID, rows int) {
		if e, ok := ep.memo[id]; ok {
			if !e.overView {
				out[id] = rows + e.table.NumRows()
			}
		} else if ep.clean(id) {
			out[id] = rows
		}
	}
	for id, rows := range ep.carriedIn {
		add(id, rows)
	}
	for id, rows := range ep.rows {
		add(id, rows)
	}
	return out
}

// clean reports whether no relation under the subexpression took rows in
// the epoch: no dirty base table, and no view.
func (ep *MaintenanceEpoch) clean(id algebra.ExprID) bool {
	arena := ep.db.arena
	leaves := arena.Expr(id).Leaves
	for i := leaves.Next(0); i >= 0; i = leaves.Next(i + 1) {
		name := arena.RelName(i)
		if _, view := ep.next.views[name]; view || ep.frozen[name] != nil {
			return false
		}
	}
	return true
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
// The null — SUM, MIN or MAX of a group whose values are all null — is the
// identity on either side.
func combineAgg(fn algebra.AggFunc, stored, delta algebra.Value) (algebra.Value, error) {
	if fn != algebra.AggAvg { // AVG does not merge: see below
		if delta == (algebra.Value{}) {
			return stored, nil
		}
		if stored == (algebra.Value{}) {
			return delta, nil
		}
	}
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
