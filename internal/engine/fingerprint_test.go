package engine_test

import (
	"sort"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// freshFingerprint digests tb's rows in a table that never held a digest.
func freshFingerprint(t testing.TB, tb *engine.Table) uint64 {
	t.Helper()
	u := engine.NewTable(tb.Name, tb.Schema, tb.BlockRows)
	rows := make([][]algebra.Value, tb.NumRows())
	for i := range rows {
		rows[i] = tb.Row(i).Values
	}
	if err := u.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	return u.Fingerprint()
}

// TestCarriedFingerprint: once the views are digested — what a first
// checkpoint does — every incremental refresh hands its successor table the
// digest plus the appended rows', and after each of 20 generated epochs
// (stragglers and a failed apply among them) every view's digest equals a
// from-scratch digest of its rows. The aggregate views' merge builds a new
// table, so theirs is computed again; every other view's is carried.
func TestCarriedFingerprint(t *testing.T) {
	s := newStarSchemas()
	gen, load := starLoad(0.004, 29)
	views := s.benchViews()
	db := newStarDB(t, s, load, views)
	names := make([]string, len(views))
	aggregate := make(map[string]bool)
	for i, v := range views {
		names[i] = v.name
		_, aggregate[v.name] = v.plan.(*algebra.Aggregate)
	}
	sort.Strings(names)
	table := func(name string) *engine.Table {
		v, err := db.View(name)
		if err != nil {
			t.Fatal(err)
		}
		return v.Table()
	}
	for _, name := range names {
		table(name).Fingerprint()
	}
	for e, ep := range genStarSchedule(gen, 20) {
		runStarEpoch(t, db, names, nil, ep)
		for _, name := range names {
			tb := table(name)
			carried, ok := tb.CachedFingerprint()
			if !ok && !aggregate[name] {
				t.Fatalf("epoch %d: %s was refreshed from a digested table but holds no digest", e, name)
			}
			if want := freshFingerprint(t, tb); tb.Fingerprint() != want {
				t.Fatalf("epoch %d: %s digests to %016x (carried: %v %016x), its rows to %016x",
					e, name, tb.Fingerprint(), ok, carried, want)
			}
		}
	}
}

// TestCarriedFingerprintInsertInvalidates: a digest taken in the setup phase
// does not survive an Insert.
func TestCarriedFingerprintInsertInvalidates(t *testing.T) {
	s := newStarSchemas()
	gen, load := starLoad(0.002, 3)
	tb := engine.NewTable("Dim00", s.dims[0], 10)
	if err := tb.Insert(load["Dim00"]...); err != nil {
		t.Fatal(err)
	}
	before := tb.Fingerprint()
	if err := tb.Insert(gen.dim(0, 3)...); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.CachedFingerprint(); ok {
		t.Fatal("Insert left the digest of the smaller table in place")
	}
	if got, want := tb.Fingerprint(), freshFingerprint(t, tb); got != want || got == before {
		t.Fatalf("after Insert: digest %016x, its rows %016x, before %016x", got, want, before)
	}
}
