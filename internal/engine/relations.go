package engine

import (
	"fmt"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
)

// RelationSet is one published state of a DB: its base tables, its
// materialized views and the view-set generation. A set is immutable — a
// maintenance epoch builds a successor in private and publishes it whole
// instead of changing it — so whoever holds one plans and executes against a
// single state, as of one epoch, without taking a lock. Hold it for one call;
// a kept set pins every table it names.
type RelationSet struct {
	db *DB
	// seq numbers the publications: each commit publishes seq + 1.
	seq uint64
	// gen counts changes to the set of views (Materialize, DropView,
	// RestoreView); a refresh replaces a view's rows and leaves it alone.
	gen    uint64
	tables map[string]*Table
	views  map[string]*MaterializedView
}

// Relations returns the currently published set (no allocation).
func (db *DB) Relations() *RelationSet { return db.rels.Load() }

func (db *DB) addTable(t *Table) error {
	ep := db.BeginMaintenance()
	if _, dup := ep.next.tables[t.Name]; dup {
		return fmt.Errorf("engine: table %s already exists", t.Name)
	}
	ep.next.tables[t.Name] = t
	return ep.Commit()
}

// addView adds a new view over stored rows t to the epoch's successor.
func (ep *MaintenanceEpoch) addView(name string, plan algebra.Node, t *Table) (*MaterializedView, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: view must have a name")
	}
	if _, dup := ep.next.views[name]; dup {
		return nil, fmt.Errorf("engine: view %s already exists", name)
	}
	if _, dup := ep.next.tables[name]; dup {
		return nil, fmt.Errorf("engine: view %s collides with a base table", name)
	}
	t.Name = name
	v := &MaterializedView{Name: name, Plan: plan, Key: algebra.StructuralKey(plan), table: t}
	ep.next.views[name] = v
	ep.next.gen++
	return v, nil
}

// setView gives a maintained view its next rows in the epoch's successor.
func (ep *MaintenanceEpoch) setView(v *MaterializedView, t *Table) {
	t.Name = v.Name
	ep.next.views[v.Name] = &MaterializedView{Name: v.Name, Plan: v.Plan, Key: v.Key, table: t}
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
	var scratch StatsScratch
	add := func(name string, t *Table) error {
		return cat.AddRelation(scratch.Derive(name, t))
	}
	for _, name := range rs.Tables() {
		if err := add(name, rs.tables[name]); err != nil {
			return nil, err
		}
	}
	if withViews {
		for _, name := range rs.Views() {
			if err := add(name, rs.views[name].table); err != nil {
				return nil, err
			}
		}
	}
	return cat, nil
}
