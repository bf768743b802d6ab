package engine

import (
	"slices"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
)

// MaterializedView is a stored query result with its defining plan: an
// immutable value. A refresh publishes a successor with the next rows (see
// RelationSet), so a reader scans the complete rows of the state it holds
// and a handle kept across a refresh keeps showing the rows it was read
// with — ask the DB again for the current ones.
type MaterializedView struct {
	Name string
	Plan algebra.Node
	// Key is the structural key of the defining plan, used for rewriting.
	Key string

	table *Table
}

// Table exposes the stored rows.
func (v *MaterializedView) Table() *Table { return v.table }

// Materialize executes the plan and stores the result under the given name
// (reads and the final write are counted on the database counter).
func (db *DB) Materialize(name string, plan algebra.Node) (*MaterializedView, error) {
	ep := db.BeginMaintenance()
	v, err := ep.Materialize(name, plan)
	if err != nil {
		return nil, err
	}
	return v, ep.Commit()
}

// Materialize adds a view to the epoch's successor: the plan executes on the
// successor as it stands, so it sees the views this epoch added before it.
func (ep *MaintenanceEpoch) Materialize(name string, plan algebra.Node) (*MaterializedView, error) {
	res, err := ep.next.Execute(plan)
	if err != nil {
		return nil, err
	}
	return ep.addView(name, plan, res.Table)
}

// Refresh recomputes a view from base tables (the paper's maintenance
// policy) in an epoch of its own and reports the I/O spent. Pending deltas
// stay pending: the recomputed view holds the base state without them.
func (db *DB) Refresh(name string) (*Result, error) {
	ep := db.BeginMaintenance()
	res, err := ep.Refresh(name)
	if err != nil {
		return nil, err
	}
	return res, ep.Commit()
}

// Refresh recomputes a view on the epoch's successor as it stands — after
// ApplyDeltas, over the new base tables — and gives it the result there.
func (ep *MaintenanceEpoch) Refresh(name string) (*Result, error) {
	v, err := ep.next.View(name)
	if err != nil {
		return nil, err
	}
	if err := ep.db.inj.Hit(fault.SiteEngineRefresh); err != nil {
		return nil, err
	}
	res, err := ep.next.Execute(v.Plan)
	if err != nil {
		return nil, err
	}
	ep.setView(v, res.Table)
	return res, nil
}

// RefreshAll recomputes every view in one epoch, sharing nothing (each view
// recomputes from base tables); returns total I/O per view.
func (db *DB) RefreshAll() (map[string]*Result, error) {
	ep := db.BeginMaintenance()
	names := ep.base.Views()
	out := make(map[string]*Result, len(names))
	for _, name := range names {
		res, err := ep.Refresh(name)
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	return out, ep.Commit()
}

// Views lists view names, sorted.
func (db *DB) Views() []string { return db.Relations().Views() }

// View looks up a materialized view.
func (db *DB) View(name string) (*MaterializedView, error) { return db.Relations().View(name) }

// SnapshotDropper is the durable-store hook a committing epoch calls so a
// dropped view's persisted segments die with it. internal/snapshot's Store
// implements it; the indirection keeps engine free of a snapshot import.
type SnapshotDropper interface {
	// DropViewSnapshot removes every persisted segment and manifest entry
	// for the named view across all snapshot generations.
	DropViewSnapshot(name string) error
}

// SetSnapshotStore wires the durable snapshot store (nil disables). Call
// during setup, before the DB is shared.
func (db *DB) SetSnapshotStore(s SnapshotDropper) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.snapStore = s
}

// DropView removes a materialized view in an epoch of its own. When a
// snapshot store is wired, the view's persisted segments are deleted too, so
// a dropped-then-readded view cannot resurrect stale rows on restart.
func (db *DB) DropView(name string) error {
	ep := db.BeginMaintenance()
	if err := ep.DropView(name); err != nil {
		return err
	}
	return ep.Commit()
}

// DropView removes a view from the epoch's successor; Commit deletes its
// snapshot segments once the set without it is published.
func (ep *MaintenanceEpoch) DropView(name string) error {
	if _, err := ep.next.View(name); err != nil {
		return err
	}
	delete(ep.next.views, name)
	ep.next.gen++
	ep.dropped = append(ep.dropped, name)
	return nil
}

// RewrittenPlan is a plan rewritten over the view set of one generation.
// It is the right rewrite for every RelationSet whose Generation equals
// Generation.
type RewrittenPlan struct {
	Plan       algebra.Node
	Generation uint64
	// Views names the materialized views Plan scans, sorted.
	Views []string
}

// RewriteForViewSet rewrites plan over the currently published views; see
// RelationSet.Rewrite. Executing the result with DB.Execute can lose a race
// with a view drop; hold one set from Relations for both calls to rule that
// out.
func (db *DB) RewriteForViewSet(plan algebra.Node) RewrittenPlan { return db.Relations().Rewrite(plan) }

// Rewrite is the engine's only view rewriter. It returns an equivalent plan
// in which every subtree whose structural key matches a materialized view
// is replaced by a scan of that view — matching is top-down, so the largest
// materialized subtree wins — and in which a subtree σp(S) is answered from
// a view σq(S') when S and S' compute the same relation and p implies q:
// the query re-applies its own filter over the (smaller) stored view. This
// is how ad-hoc queries profit from the Figure-8 style shared disjunctive
// filters (σ city='LA' is answerable from a stored σ city='LA' ∨ city='SF').
// The result answers in the plan's column order: when a view hands back
// its columns in another order, one π at the root restores it. The result
// carries the set's view generation and the views it reads, so a caller can
// keep it until the generation moves.
func (rs *RelationSet) Rewrite(plan algebra.Node) RewrittenPlan {
	views := make([]*MaterializedView, 0, len(rs.views))
	exact := make(map[string]*MaterializedView, len(rs.views))
	for _, name := range rs.Views() {
		v := rs.views[name]
		views = append(views, v)
		exact[v.Key] = v
	}
	var rewrite func(n algebra.Node) algebra.Node
	rewrite = func(n algebra.Node) algebra.Node {
		if v, ok := exact[algebra.StructuralKey(n)]; ok {
			return algebra.NewScan(v.Name, v.table.Schema)
		}
		if repl, ok := subsumeSelect(views, n); ok {
			return repl
		}
		switch t := n.(type) {
		case *algebra.Select:
			return algebra.NewSelect(rewrite(t.Input), t.Pred)
		case *algebra.Project:
			return algebra.NewProject(rewrite(t.Input), t.Cols)
		case *algebra.Join:
			return algebra.NewJoin(rewrite(t.Left), rewrite(t.Right), t.On)
		case *algebra.Aggregate:
			return algebra.NewAggregate(rewrite(t.Input), t.GroupBy, t.Aggs)
		default:
			return n
		}
	}
	out := RewrittenPlan{Plan: rewrite(plan), Generation: rs.gen}
	if want := plan.Schema(); !out.Plan.Schema().Equal(want) {
		// A view matched by structural key, which ignores join orientation
		// and projection order, hands back its rows in its own column
		// order. One π at the root, and none below it, restores the plan's.
		refs := make([]algebra.ColumnRef, want.Len())
		for i, c := range want.Columns {
			refs[i] = algebra.Ref(c.Relation, c.Name)
		}
		out.Plan = algebra.NewProject(out.Plan, refs)
	}
	algebra.Walk(out.Plan, func(n algebra.Node) {
		if scan, ok := n.(*algebra.Scan); ok && rs.views[scan.Relation] != nil {
			out.Views = append(out.Views, scan.Relation)
		}
	})
	sort.Strings(out.Views)
	out.Views = slices.Compact(out.Views) // list each view once
	return out
}

// subsumeSelect tries to answer σp(S) (or a bare S) from a view σq(S') with
// p ⇒ q. The query's full filter is re-applied over the view, which is
// always sound.
func subsumeSelect(views []*MaterializedView, n algebra.Node) (algebra.Node, bool) {
	var pred algebra.Predicate
	input := n
	if sel, ok := n.(*algebra.Select); ok {
		pred = sel.Pred
		input = sel.Input
	}
	inputKey := algebra.SemanticKey(input)
	for _, v := range views {
		vSel, ok := v.Plan.(*algebra.Select)
		if !ok {
			continue
		}
		if algebra.SemanticKey(vSel.Input) != inputKey {
			continue
		}
		if !algebra.Implies(pred, vSel.Pred) {
			continue
		}
		if !n.Schema().Equal(v.table.Schema) {
			continue
		}
		scan := algebra.NewScan(v.Name, v.table.Schema)
		if pred == nil {
			// p ⇒ q with p = true means q = true as well; the view is the
			// whole input.
			return scan, true
		}
		return algebra.NewSelect(scan, pred), true
	}
	return nil, false
}
