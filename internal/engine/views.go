package engine

import (
	"fmt"
	"sort"
	"sync"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
)

// MaterializedView is a stored query result with its defining plan. The
// stored table is replaced wholesale on refresh — an epoch swap guarded by
// a per-view RWMutex — so readers always scan a complete, immutable
// snapshot and never observe a half-refreshed view.
type MaterializedView struct {
	Name string
	Plan algebra.Node
	// Key is the structural key of the defining plan, used for rewriting.
	Key string

	mu    sync.RWMutex
	table *Table
}

// Table exposes the stored contents: the current epoch's immutable
// snapshot. Safe to call concurrently with refreshes.
func (v *MaterializedView) Table() *Table {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.table
}

// setTable swaps in the next epoch's table.
func (v *MaterializedView) setTable(t *Table) {
	v.mu.Lock()
	v.table = t
	v.mu.Unlock()
}

// Materialize executes the plan and stores the result under the given name
// (reads and the final write are counted on the database counter).
func (db *DB) Materialize(name string, plan algebra.Node) (*MaterializedView, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: view must have a name")
	}
	db.mu.RLock()
	_, dupView := db.views[name]
	_, dupTable := db.tables[name]
	db.mu.RUnlock()
	if dupView {
		return nil, fmt.Errorf("engine: view %s already exists", name)
	}
	if dupTable {
		return nil, fmt.Errorf("engine: view %s collides with a base table", name)
	}
	res, err := db.Execute(plan)
	if err != nil {
		return nil, err
	}
	res.Table.Name = name
	v := &MaterializedView{
		Name:  name,
		Plan:  plan,
		Key:   algebra.StructuralKey(plan),
		table: res.Table,
	}
	db.mu.Lock()
	db.views[name] = v
	db.viewGen.Add(1)
	// A fresh view is computed from the base tables without pending
	// deltas, so its delta watermark starts at zero rows propagated.
	delete(db.propagated, name)
	db.mu.Unlock()
	return v, nil
}

// Refresh recomputes a view from base tables (the paper's maintenance
// policy) and reports the I/O spent. The recomputation runs beside
// concurrent readers; only the final table swap synchronizes with them.
func (db *DB) Refresh(name string) (*Result, error) {
	v, err := db.View(name)
	if err != nil {
		return nil, err
	}
	if err := db.inj.Hit(fault.SiteEngineRefresh); err != nil {
		return nil, err
	}
	res, err := db.Execute(v.Plan)
	if err != nil {
		return nil, err
	}
	res.Table.Name = name
	v.setTable(res.Table)
	// The recompute read the base tables without pending deltas, so any
	// partially propagated deltas are unpropagated again.
	db.mu.Lock()
	delete(db.propagated, name)
	db.mu.Unlock()
	return res, nil
}

// RefreshAll refreshes every view, sharing nothing (each view recomputes
// from base tables); returns total I/O per view.
func (db *DB) RefreshAll() (map[string]*Result, error) {
	names := db.Views()
	out := make(map[string]*Result, len(names))
	for _, name := range names {
		res, err := db.Refresh(name)
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	return out, nil
}

// Views lists view names, sorted.
func (db *DB) Views() []string {
	db.mu.RLock()
	out := make([]string, 0, len(db.views))
	for name := range db.views {
		out = append(out, name)
	}
	db.mu.RUnlock()
	sort.Strings(out)
	return out
}

// View looks up a materialized view.
func (db *DB) View(name string) (*MaterializedView, error) {
	db.mu.RLock()
	v, ok := db.views[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown view %q", name)
	}
	return v, nil
}

// SnapshotDropper is the durable-store hook DropView calls so a dropped
// view's persisted segments die with it. internal/snapshot's Store
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

// DropView removes a materialized view, including its pending-delta
// watermark — a later view materialized under the same name must start
// from a clean slate, or it would silently skip deltas the dropped view
// had already consumed and serve stale rows forever. When a snapshot store
// is wired, the view's persisted segments are deleted too, so a
// dropped-then-readded view cannot resurrect stale rows on restart.
func (db *DB) DropView(name string) error {
	db.mu.Lock()
	if _, ok := db.views[name]; !ok {
		db.mu.Unlock()
		return fmt.Errorf("engine: unknown view %q", name)
	}
	delete(db.views, name)
	db.viewGen.Add(1)
	delete(db.propagated, name)
	snap := db.snapStore
	db.mu.Unlock()
	if snap != nil {
		if err := snap.DropViewSnapshot(name); err != nil {
			return fmt.Errorf("engine: dropping snapshot of view %s: %w", name, err)
		}
	}
	return nil
}

// viewSnapshot captures the current view set (pointers plus each view's
// current table) under the read lock, so rewriting works on a consistent
// epoch while maintenance proceeds.
type viewSnapshot struct {
	view  *MaterializedView
	table *Table
}

func (db *DB) snapshotViews() ([]viewSnapshot, uint64) {
	db.mu.RLock()
	names := make([]string, 0, len(db.views))
	for name := range db.views {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]viewSnapshot, 0, len(names))
	for _, name := range names {
		v := db.views[name]
		out = append(out, viewSnapshot{view: v, table: v.Table()})
	}
	gen := db.viewGen.Load()
	db.mu.RUnlock()
	return out, gen
}

// ViewGeneration identifies the current set of materialized views: it
// changes whenever a view is added or dropped (a refresh, which replaces a
// view's rows but not its definition, leaves it alone).
func (db *DB) ViewGeneration() uint64 { return db.viewGen.Load() }

// RewrittenPlan is a plan rewritten over the view set of one generation.
// It stays the right rewrite for as long as ViewGeneration returns
// Generation.
type RewrittenPlan struct {
	Plan       algebra.Node
	Generation uint64
	// Views names the materialized views Plan scans, sorted.
	Views []string
}

// RewriteForViewSet is the engine's only view rewriter. It returns an
// equivalent plan in which every subtree whose structural key matches a
// materialized view is replaced by a scan of that view — matching is
// top-down, so the largest materialized subtree wins — and in which a
// subtree σp(S) is answered from a view σq(S') when S and S' compute the
// same relation and p implies q: the query re-applies its own filter over
// the (smaller) stored view. This is how ad-hoc queries profit from the
// Figure-8 style shared disjunctive filters (σ city='LA' is answerable from
// a stored σ city='LA' ∨ city='SF'). The result carries the view-set
// generation the rewrite was derived under and the views it reads, so a
// caller can keep it until the generation moves. Safe to call concurrently
// with maintenance: it rewrites against a snapshot of the view set.
func (db *DB) RewriteForViewSet(plan algebra.Node) RewrittenPlan {
	snaps, gen := db.snapshotViews()
	exact := make(map[string]viewSnapshot, len(snaps))
	isView := make(map[string]bool, len(snaps))
	for _, s := range snaps {
		exact[s.view.Key] = s
		isView[s.view.Name] = true
	}
	var rewrite func(n algebra.Node) algebra.Node
	rewrite = func(n algebra.Node) algebra.Node {
		if s, ok := exact[algebra.StructuralKey(n)]; ok {
			return algebra.NewScan(s.view.Name, s.table.Schema)
		}
		if repl, ok := subsumeSelect(snaps, n); ok {
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
	out := RewrittenPlan{Plan: rewrite(plan), Generation: gen}
	algebra.Walk(out.Plan, func(n algebra.Node) {
		if scan, ok := n.(*algebra.Scan); ok && isView[scan.Relation] {
			isView[scan.Relation] = false // list each view once
			out.Views = append(out.Views, scan.Relation)
		}
	})
	sort.Strings(out.Views)
	return out
}

// subsumeSelect tries to answer σp(S) (or a bare S) from a view σq(S') with
// p ⇒ q. The query's full filter is re-applied over the view, which is
// always sound.
func subsumeSelect(snaps []viewSnapshot, n algebra.Node) (algebra.Node, bool) {
	var pred algebra.Predicate
	input := n
	if sel, ok := n.(*algebra.Select); ok {
		pred = sel.Pred
		input = sel.Input
	}
	inputKey := algebra.SemanticKey(input)
	for _, s := range snaps {
		vSel, ok := s.view.Plan.(*algebra.Select)
		if !ok {
			continue
		}
		if algebra.SemanticKey(vSel.Input) != inputKey {
			continue
		}
		if !algebra.Implies(pred, vSel.Pred) {
			continue
		}
		if !n.Schema().Equal(s.table.Schema) {
			continue
		}
		scan := algebra.NewScan(s.view.Name, s.table.Schema)
		if pred == nil {
			// p ⇒ q with p = true means q = true as well; the view is the
			// whole input.
			return scan, true
		}
		return algebra.NewSelect(scan, pred), true
	}
	return nil, false
}
