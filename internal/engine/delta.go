package engine

import (
	"errors"
	"fmt"
	"slices"

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

// pending is one base table's pending rows as one view sees them, frozen
// under the maintainer lock: rows [0,k) the view folded in during an earlier
// refresh this epoch (part of its old state), rows [k,n) its delta, and all n
// the new state every join delta pairs against.
type pending struct {
	// buf is the DB's delta buffer — the rows' identity across snapshots;
	// rows is its first n rows as a capacity-capped view, so later
	// InsertDelta appends never leak into a propagation already underway.
	buf, rows *Table
	k, n      int
}

// deltaSnapshot freezes the pending deltas and the view's watermarks.
func (db *DB) deltaSnapshot(view string) map[string]pending {
	db.mu.Lock()
	defer db.mu.Unlock()
	marks := db.propagated[view]
	snap := make(map[string]pending, len(db.deltas))
	for name, d := range db.deltas {
		n := d.NumRows()
		snap[name] = pending{buf: d, rows: d.sliceRows(0, n), k: min(marks[name], n), n: n}
	}
	return snap
}

// MaintenanceEpoch is what the delta propagations of one maintenance epoch
// share: every relation one of them derives — a dirty base table extended by
// its pending rows, the full operand relation a join delta pairs against,
// the Δ of a subexpression — is evaluated once and read by every view whose
// plan contains it. The MVPP exists because views share subexpressions; so
// does their maintenance (Mistry et al., shared maintenance plans: common
// results are computed once and kept only transiently).
//
// A relation is identified by value numbering: the subexpression, interned
// in the epoch's arena, plus the identities of the relations it was derived
// from — and, at a leaf, the base table, the delta buffer and the pending
// row range. Two views reach one entry exactly when they ask for the same
// expression over the same state and pending ranges, so a straggler batch, a
// per-view watermark or rows left pending by a failed ApplyDeltas change the
// key instead of reading a stale entry. A stored table is never written
// again. An epoch holds every table it derived: keep it a local of the
// maintainer — open one, refresh the views, let it go before ApplyDeltas —
// never a field of something that outlives the epoch.
type MaintenanceEpoch struct {
	db    *DB
	arena *algebra.Arena
	memo  map[epochKey]epochEntry
	// evaluated and reused count the unmetered relations (extended tables,
	// operands): derived here, or found already derived.
	evaluated, reused int
}

// relState says which relation of a subexpression a propagation wants.
type relState uint8

const (
	deltaRows relState = iota // Δ: what the view has not folded in yet
	oldState                  // base rows plus the pending rows it has
	newState                  // base rows plus every pending row
)

type epochKey struct {
	expr   algebra.ExprID
	delta  bool
	in     [4]*Table // the relations derived from; memoised tables are immutable, so identity is value
	lo, hi int       // leaf only: the pending row range
}

// epochEntry is one derived relation and, on the Δ path, the metered
// operators that produced it.
type epochEntry struct {
	table *Table
	ops   []OpStats
}

// BeginMaintenance opens a maintenance epoch; see MaintenanceEpoch.
func (db *DB) BeginMaintenance() *MaintenanceEpoch {
	return &MaintenanceEpoch{db: db, arena: algebra.NewArena(), memo: make(map[epochKey]epochEntry)}
}

// Operands reports how many unmetered relations the epoch evaluated and how
// many requests it answered from one already evaluated.
func (ep *MaintenanceEpoch) Operands() (evaluated, reused int) { return ep.evaluated, ep.reused }

// IncrementalRefresh maintains one view in an epoch of its own; see
// MaintenanceEpoch.IncrementalRefresh.
func (db *DB) IncrementalRefresh(name string) (*Result, error) {
	return db.BeginMaintenance().IncrementalRefresh(name)
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
// and delta-propagation formulas charge operators. A Δ-subexpression another
// view of the epoch already propagated is not propagated again: its recorded
// operators are accounted to this view as if it had been, so the Result, the
// Counter and the operator events are those of a view maintained alone.
// Returns ErrNotIncremental when the plan cannot be maintained this way.
func (ep *MaintenanceEpoch) IncrementalRefresh(name string) (*Result, error) {
	rs := ep.db.Relations()
	v, err := rs.View(name)
	if err != nil {
		return nil, err
	}
	return ep.refresh(rs, v)
}

func (ep *MaintenanceEpoch) refresh(rs *RelationSet, v *MaterializedView) (*Result, error) {
	db := ep.db
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
	p := &propagation{ep: ep, rs: rs, snap: db.deltaSnapshot(v.Name), res: res}
	dview, err := p.rel(v.Plan, deltaRows)
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
	seen := make(map[string]int, len(p.snap))
	for table, pd := range p.snap {
		seen[table] = pd.n
	}
	db.swapView(v, res.Table, seen)
	return res, nil
}

// IncrementalRefreshAll maintains every view for the pending deltas in one
// epoch: incrementally maintainable plans refresh by delta propagation
// against the old base state; the rest recompute after the deltas are
// applied. Afterwards the deltas are part of the base tables and every view
// is consistent with the new state. Returns the per-view refresh I/O.
func (db *DB) IncrementalRefreshAll() (map[string]*Result, error) {
	rs := db.Relations()
	names := rs.Views()
	out := make(map[string]*Result, len(names))
	var recompute []string
	ep := db.BeginMaintenance()
	for _, name := range names {
		res, err := ep.refresh(rs, rs.views[name])
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

// propagation is one view's pass over its plan inside an epoch.
type propagation struct {
	ep   *MaintenanceEpoch
	rs   *RelationSet
	snap map[string]pending
	res  *Result
}

// rel returns the relation at n in state st: the delta table under the
// view's snapshot, or one of the two full relations a join delta pairs
// against. The walk visits every node of the view's plan — that is how a
// node learns the identities of its inputs — but evaluates only what no
// earlier walk of the epoch has. Select, project, aggregate and join work
// on the delta stream is metered into the view's Result; the old- and
// new-state relations are produced unmetered. The two legs of a join delta
// are always block nested-loop, whatever db.joinAlgo says: the
// delta-propagation cost formulas assume BlockNLJ.
func (p *propagation) rel(n algebra.Node, st relState) (*Table, error) {
	db := p.ep.db
	key := epochKey{expr: p.ep.arena.Intern(n), delta: st == deltaRows}
	res := p.res
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
		if key.in[i], err = p.rel(in.n, in.st); err != nil {
			return nil, err
		}
	}
	in := key.in
	var eval func() (*Table, error)
	switch v := n.(type) {
	case *algebra.Scan:
		pd := p.snap[v.Relation]
		if st == deltaRows {
			if pd.buf == nil {
				// No pending inserts: an empty delta with the scan's schema.
				eval = func() (*Table, error) { return NewTable("", v.Schema(), db.BlockRows), nil }
				break
			}
			key.in[0], key.lo, key.hi = pd.buf, pd.k, pd.n
			eval = func() (*Table, error) { return pd.rows.sliceRows(pd.k, pd.n), nil }
			break
		}
		stored, err := p.rs.relation(v.Relation)
		extra := pd.k
		if st == newState {
			extra = pd.n
		}
		if err != nil || extra == 0 {
			return stored, err
		}
		// A dirty base table in this state: one payload copy per epoch,
		// never published, so concurrent readers are undisturbed.
		key.in[0], key.in[1], key.hi = stored, pd.buf, extra
		eval = func() (*Table, error) { return stored.cloneAppendTable(pd.rows.sliceRows(0, extra)), nil }
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
	if e, ok := p.ep.memo[key]; ok {
		if res == nil {
			p.ep.reused++
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
		p.ep.evaluated++
	}
	p.ep.memo[key] = e
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
