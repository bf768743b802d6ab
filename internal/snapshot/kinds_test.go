package snapshot_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/snapshot"
)

// TestGenericSegmentRecoversCold: testdata/generic_column is a store
// checkpointed by a version whose columns demoted to a generic
// representation: warehouse's tables and view V, after an int landed in
// Division's string column city. That column's payload is now refused as
// corrupt (engine.ErrSegmentCorrupt), so recovery falls back as it does for
// any damaged base extent: it reports the corruption and boots cold, and
// the warehouse is the cold builder's.
func TestGenericSegmentRecoversCold(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	src := filepath.Join("testdata", "generic_column")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dir, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	st.SetObserver(rec)
	_, plan := warehouse(t)
	rdb, stats := recoverWarehouse(t, st, plan)
	if !stats.Cold || stats.CorruptArtifacts == 0 {
		t.Fatalf("recovery over a generic segment = %+v, want cold with the corruption counted", stats)
	}
	corrupt := 0
	for _, ev := range rec.Trace().Events {
		if ev.Kind == obs.EvSnapshotCorrupt {
			corrupt++
		}
	}
	if corrupt == 0 {
		t.Error("no EvSnapshotCorrupt event emitted")
	}
	cold, _ := warehouse(t)
	if _, err := cold.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Product", "Division", "V"} {
		got, want := relation(t, rdb, name), relation(t, cold, name)
		if got.NumRows() != want.NumRows() || got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s after recovery: %d rows, want the cold build's %d", name, got.NumRows(), want.NumRows())
		}
	}
}

// TestStatsSidecarSkipsInvalidUTF8: a string column whose bounds are not
// valid UTF-8 persists no statistics sidecar, since JSON would carry each
// bad byte as U+FFFD; the restored table derives its entry from its rows,
// the same entry a fresh derive over those rows gives.
func TestStatsSidecarSkipsInvalidUTF8(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB(4)
	schema := algebra.NewSchema(
		algebra.Column{Relation: "Division", Name: "Did", Type: algebra.TypeInt},
		algebra.Column{Relation: "Division", Name: "city", Type: algebra.TypeString},
	)
	div, err := db.CreateTable("Division", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Insert(
		[]algebra.Value{algebra.IntVal(1), algebra.StringVal("a\xffb")},
		[]algebra.Value{algebra.IntVal(2), algebra.StringVal("a\xffb")},
	); err != nil {
		t.Fatal(err)
	}
	checkpointDB(t, st, db, 1, 1, nil)
	m, err := st.Manifest()
	if err != nil || m == nil {
		t.Fatalf("manifest = (%v, %v)", m, err)
	}
	tables, err := st.LoadBase(m)
	if err != nil {
		t.Fatal(err)
	}
	restored := tables[0]
	fresh := engine.NewTable("Division", schema, restored.BlockRows)
	for i := 0; i < restored.NumRows(); i++ {
		if err := fresh.Insert(restored.Row(i).Values); err != nil {
			t.Fatal(err)
		}
	}
	got, want := engine.TableStats("Division", restored), engine.TableStats("Division", fresh)
	for name, w := range want.Attrs {
		if g := got.Attrs[name]; g.DistinctValues != w.DistinctValues || g.Min != w.Min || g.Max != w.Max {
			t.Errorf("restored Division.%s = %+v, want a fresh derive's %+v", name, g, w)
		}
	}
}
