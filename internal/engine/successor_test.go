package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/engine"
)

// The append cage: a published table is the parent of every table a refresh
// or an ApplyDeltas builds from it by appending rows. Two successors of one
// parent — a view refreshed twice in one epoch, an epoch let go and retried
// with a different Δ — must each hold exactly their own rows, and the parent
// its rows, digest, statistics and block count.

// heldTable is what a reader knows about a table of a set it holds: the rows
// in order, the digest computed from them, and the statistics and block
// count as published.
type heldTable struct {
	rows      []string
	digest    uint64
	reference uint64
	stats     *catalog.Relation
	fresh     *catalog.Relation
	blocks    int
}

func holdTable(name string, tb *engine.Table) heldTable {
	return heldTable{
		rows:      orderedRows(tb),
		digest:    tb.Fingerprint(),
		reference: engine.ReferenceFingerprint(tb),
		stats:     engine.TableStats(name, tb),
		fresh:     engine.ReferenceRelationStats(name, tb),
		blocks:    tb.NumBlocks(),
	}
}

// check reports how tb no longer is what h recorded.
func (h heldTable) check(name string, tb *engine.Table) error {
	switch {
	case !reflect.DeepEqual(orderedRows(tb), h.rows):
		return fmt.Errorf("%s: its %d rows changed (now %d)", name, len(h.rows), tb.NumRows())
	case tb.Fingerprint() != h.digest || engine.ReferenceFingerprint(tb) != h.reference:
		return fmt.Errorf("%s: digest %016x (rows %016x), was %016x (rows %016x)",
			name, tb.Fingerprint(), engine.ReferenceFingerprint(tb), h.digest, h.reference)
	case !reflect.DeepEqual(engine.TableStats(name, tb), h.stats) || !reflect.DeepEqual(engine.ReferenceRelationStats(name, tb), h.fresh):
		return fmt.Errorf("%s: statistics changed", name)
	case tb.NumBlocks() != h.blocks:
		return fmt.Errorf("%s: %d blocks, was %d", name, tb.NumBlocks(), h.blocks)
	}
	return nil
}

// heldSet is every table and view of one published set, as held.
type heldSet map[string]heldTable

func holdSet(rels *engine.RelationSet) heldSet {
	h := make(heldSet)
	for name, tb := range setTables(rels) {
		h[name] = holdTable(name, tb)
	}
	return h
}

func (h heldSet) check(rels *engine.RelationSet) error {
	for name, tb := range setTables(rels) {
		if err := h[name].check(name, tb); err != nil {
			return err
		}
	}
	return nil
}

// setTables names every stored table of a set: base tables by name, views
// as "view <name>".
func setTables(rels *engine.RelationSet) map[string]*engine.Table {
	out := make(map[string]*engine.Table)
	for _, name := range rels.Tables() {
		out[name], _ = rels.Table(name)
	}
	for _, name := range rels.Views() {
		v, _ := rels.View(name)
		out["view "+name] = v.Table()
	}
	return out
}

// extends requires that succ holds parent's rows followed by exactly n more.
func extends(t *testing.T, label string, succ *engine.Table, parent []string, n int) {
	t.Helper()
	rows := orderedRows(succ)
	if len(rows) != len(parent)+n || !reflect.DeepEqual(rows[:len(parent)], parent) {
		t.Fatalf("%s: %d rows, want the parent's %d followed by %d", label, len(rows), len(parent), n)
	}
}

func TestSuccessorsKeepTheirOwnRows(t *testing.T) {
	db := smallPaperDB(t)
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	did := laDivision(t, db)
	parents := []*engine.RelationSet{db.Relations()}
	held := []heldSet{holdSet(parents[0])}
	view := func() *engine.Table {
		v, err := db.View("tmp2")
		if err != nil {
			t.Fatal(err)
		}
		return v.Table()
	}

	// One view refreshed twice in one epoch: two successors of the published
	// view, each with the same Δ.
	parent := orderedRows(view())
	if err := db.InsertDelta("Product", deltaProductRow(1, did)); err != nil {
		t.Fatal(err)
	}
	ep := db.BeginMaintenance()
	first, err := ep.IncrementalRefresh("tmp2")
	if err != nil {
		t.Fatal(err)
	}
	firstRows := orderedRows(first.Table)
	second, err := ep.IncrementalRefresh("tmp2")
	if err != nil {
		t.Fatal(err)
	}
	extends(t, "first refresh", first.Table, parent, 1)
	if !reflect.DeepEqual(orderedRows(first.Table), firstRows) {
		t.Fatal("the second refresh of the epoch changed the rows of the first")
	}
	extends(t, "second refresh", second.Table, parent, 1)
	if err := ep.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Commit(); err != nil {
		t.Fatal(err)
	}
	parents = append(parents, db.Relations())
	held = append(held, holdSet(parents[1]))

	// An epoch let go and retried. The let-go epoch's Δ is L_old ⋈ ΔR alone (a
	// second LA division under an existing Did, which every product of that
	// Did joins); a product row staged before the retry puts ΔL ⋈ R_new in
	// front of it, so the retry's successor has other rows than the let-go
	// one at the same positions past the parent.
	parent = orderedRows(view())
	if err := db.InsertDelta("Division",
		[]algebra.Value{algebra.IntVal(did), algebra.StringVal("division-twin"), algebra.StringVal("LA")}); err != nil {
		t.Fatal(err)
	}
	letGo, err := db.BeginMaintenance().IncrementalRefresh("tmp2")
	if err != nil {
		t.Fatal(err)
	}
	letGoRows := orderedRows(letGo.Table)
	if len(letGoRows) == len(parent) {
		t.Fatal("test premise broken: the twin division joins no product")
	}
	if err := db.InsertDelta("Product", deltaProductRow(2, did)); err != nil {
		t.Fatal(err)
	}
	retry := runEpoch(t, db, "tmp2")[0]
	extends(t, "let-go epoch", letGo.Table, parent, len(letGoRows)-len(parent))
	if !reflect.DeepEqual(orderedRows(letGo.Table), letGoRows) {
		t.Fatal("the retried epoch changed the rows of the epoch that was let go")
	}
	retryRows := orderedRows(retry.Table)
	extends(t, "retried epoch", retry.Table, parent, len(retryRows)-len(parent))
	if retryRows[len(parent)] == letGoRows[len(parent)] {
		t.Fatal("test premise broken: the two successors begin with the same row")
	}
	assertViewsMatchRecompute(t, "after the retry", db, []string{"tmp2"})

	for i, rels := range parents {
		if err := held[i].check(rels); err != nil {
			t.Errorf("published set %d: %v", i, err)
		}
	}
}
