package engine

import (
	"fmt"
	"maps"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
)

// RelationSet is one published state of a DB: its base tables, its
// materialized views and the view-set generation. A set is immutable — the
// maintainer publishes a successor instead of changing it — so whoever holds
// one plans and executes against a single state without taking a lock. Hold
// it for one call; a kept set pins every table it names.
type RelationSet struct {
	db *DB
	// gen counts changes to the set of views (Materialize, DropView,
	// RestoreView); a refresh replaces a view's rows and leaves it alone.
	gen    uint64
	tables map[string]*Table
	views  map[string]*MaterializedView
}

// Relations returns the currently published set (no allocation).
func (db *DB) Relations() *RelationSet { return db.rels.Load() }

// publish stores the successor of the current set: a copy with change
// applied. mu makes a view swap atomic with its watermark update and keeps
// two maintainers that break the one-at-a-time contract from losing each
// other's entry.
func (db *DB) publish(change func(next *RelationSet)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.rels.Load()
	next := &RelationSet{db: db, gen: cur.gen, tables: maps.Clone(cur.tables), views: maps.Clone(cur.views)}
	change(next)
	db.rels.Store(next)
}

func (db *DB) addTable(t *Table) error {
	if _, dup := db.Relations().tables[t.Name]; dup {
		return fmt.Errorf("engine: table %s already exists", t.Name)
	}
	db.publish(func(next *RelationSet) { next.tables[t.Name] = t })
	return nil
}

// addView publishes a new view over stored rows t. A fresh view holds the
// base state without pending deltas, so its delta watermark starts at zero.
func (db *DB) addView(name string, plan algebra.Node, t *Table) (*MaterializedView, error) {
	if err := db.Relations().checkNewView(name); err != nil {
		return nil, err
	}
	t.Name = name
	v := &MaterializedView{Name: name, Plan: plan, Key: algebra.StructuralKey(plan), table: t}
	db.publish(func(next *RelationSet) {
		next.views[name] = v
		next.gen++
		delete(db.propagated, name)
	})
	return v, nil
}

// swapView publishes a maintained view's next rows together with its delta
// watermarks (nil after a recompute: nothing pending is propagated).
func (db *DB) swapView(v *MaterializedView, t *Table, seen map[string]int) {
	t.Name = v.Name
	db.publish(func(next *RelationSet) {
		next.views[v.Name] = &MaterializedView{Name: v.Name, Plan: v.Plan, Key: v.Key, table: t}
		db.propagated[v.Name] = seen
	})
}

func (rs *RelationSet) checkNewView(name string) error {
	if _, dup := rs.views[name]; dup {
		return fmt.Errorf("engine: view %s already exists", name)
	}
	if _, dup := rs.tables[name]; dup {
		return fmt.Errorf("engine: view %s collides with a base table", name)
	}
	return nil
}

// Generation identifies the set of materialized views: it changes whenever
// a view is added or dropped, not when one is refreshed.
func (rs *RelationSet) Generation() uint64 { return rs.gen }

// Table looks up a base table.
func (rs *RelationSet) Table(name string) (*Table, error) {
	t, ok := rs.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: %w %q", ErrUnknownRelation, name)
	}
	return t, nil
}

// View looks up a materialized view.
func (rs *RelationSet) View(name string) (*MaterializedView, error) {
	v, ok := rs.views[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown view %q", name)
	}
	return v, nil
}

// relation maps a scan's relation name to its stored rows: a materialized
// view's, or the base table's.
func (rs *RelationSet) relation(name string) (*Table, error) {
	if v, ok := rs.views[name]; ok {
		return v.table, nil
	}
	return rs.Table(name)
}

// Tables returns the base table names, sorted.
func (rs *RelationSet) Tables() []string { return sortedNames(rs.tables) }

// Views lists view names, sorted.
func (rs *RelationSet) Views() []string { return sortedNames(rs.views) }

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Catalog derives the statistics catalog of the set's base tables (see
// DB.CatalogFor) and, when withViews is set, of its views' stored rows.
func (rs *RelationSet) Catalog(withViews bool) (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, name := range rs.Tables() {
		if err := cat.AddRelation(relationStats(name, rs.tables[name])); err != nil {
			return nil, err
		}
	}
	if withViews {
		for _, name := range rs.Views() {
			if err := cat.AddRelation(relationStats(name, rs.views[name].table)); err != nil {
				return nil, err
			}
		}
	}
	return cat, nil
}
