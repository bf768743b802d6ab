package snapshot_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/snapshot"
)

// warehouse builds a tiny two-table warehouse with one selective view.
func warehouse(t *testing.T) (*engine.DB, algebra.Node) {
	t.Helper()
	db := engine.NewDB(4)
	pSchema := algebra.NewSchema(
		algebra.Column{Relation: "Product", Name: "Pid", Type: algebra.TypeInt},
		algebra.Column{Relation: "Product", Name: "name", Type: algebra.TypeString},
		algebra.Column{Relation: "Product", Name: "price", Type: algebra.TypeFloat},
	)
	pt, err := db.CreateTable("Product", pSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		name := algebra.StringVal("widget")
		if i%3 == 0 {
			name = algebra.StringVal("gadget")
		}
		if err := pt.Insert([]algebra.Value{
			algebra.IntVal(int64(i)), name, algebra.FloatVal(float64(i) * 1.5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	dSchema := algebra.NewSchema(
		algebra.Column{Relation: "Division", Name: "Did", Type: algebra.TypeInt},
		algebra.Column{Relation: "Division", Name: "city", Type: algebra.TypeString},
	)
	dt, err := db.CreateTable("Division", dSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := dt.Insert([]algebra.Value{
			algebra.IntVal(int64(i)), algebra.StringVal("LA"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	plan := algebra.NewSelect(algebra.NewScan("Product", pSchema),
		algebra.Eq(algebra.Ref("Product", "name"), algebra.StringVal("gadget")))
	return db, plan
}

// checkpointDB persists every table plus the named views of db.
func checkpointDB(t *testing.T, st *snapshot.Store, db *engine.DB, epoch, watermark uint64, views map[string]algebra.Node) *snapshot.CheckpointResult {
	t.Helper()
	in := snapshot.CheckpointInput{Epoch: epoch, Watermark: watermark}
	for _, name := range db.Tables() {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		in.Tables = append(in.Tables, tb)
	}
	for name, plan := range views {
		v, err := db.View(name)
		if err != nil {
			t.Fatal(err)
		}
		in.Views = append(in.Views, snapshot.ViewData{Name: name, Plan: plan, Table: v.Table(), Epoch: epoch})
	}
	res, err := st.Checkpoint(in)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tableRows renders a table's rows as sorted strings for bit-identity
// comparison.
func tableRows(t *testing.T, tb *engine.Table) []string {
	t.Helper()
	out := make([]string, 0, tb.NumRows())
	for i := 0; i < tb.NumRows(); i++ {
		out = append(out, tb.Row(i).String())
	}
	return out
}

func requireViewRows(t *testing.T, db *engine.DB, name string, want []string) {
	t.Helper()
	v, err := db.View(name)
	if err != nil {
		t.Fatal(err)
	}
	got := tableRows(t, v.Table())
	if len(got) != len(want) {
		t.Fatalf("view %s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("view %s row %d: %s, want %s", name, i, got[i], want[i])
		}
	}
}

func recoverWarehouse(t *testing.T, st *snapshot.Store, plan algebra.Node) (*engine.DB, *snapshot.RecoveryStats) {
	t.Helper()
	cold := func() (*engine.DB, error) {
		db, _ := warehouse(t)
		return db, nil
	}
	db, stats, err := snapshot.Recover(st, cold, nil,
		[]snapshot.ViewDef{{Name: "V", Plan: plan}},
		[]string{"Product", "Division"}, engine.DefaultBlockRows)
	if err != nil {
		t.Fatal(err)
	}
	return db, stats
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	if _, err := db.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	v, _ := db.View("V")
	wantRows := tableRows(t, v.Table())

	res := checkpointDB(t, st, db, 3, 17, map[string]algebra.Node{"V": plan})
	if res.Generation != 1 {
		t.Errorf("first generation = %d, want 1", res.Generation)
	}
	if res.Bytes <= 0 || res.ViewBytes["V"] <= 0 {
		t.Errorf("checkpoint bytes = %d (view %d), want > 0", res.Bytes, res.ViewBytes["V"])
	}

	rdb, stats := recoverWarehouse(t, st, plan)
	if stats.Cold {
		t.Fatal("recovery went cold despite a committed snapshot")
	}
	if stats.Generation != 1 || stats.SnapshotEpoch != 3 || stats.Watermark != 17 {
		t.Errorf("stats = gen %d epoch %d watermark %d, want 1/3/17",
			stats.Generation, stats.SnapshotEpoch, stats.Watermark)
	}
	if stats.BaseRestored != 2 || stats.ViewsRestored != 1 || stats.ViewsRecomputed != 0 {
		t.Errorf("restored %d base, %d views, %d recomputed; want 2/1/0",
			stats.BaseRestored, stats.ViewsRestored, stats.ViewsRecomputed)
	}
	requireViewRows(t, rdb, "V", wantRows)
	for _, name := range []string{"Product", "Division"} {
		orig, _ := db.Table(name)
		got, err := rdb.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != orig.NumRows() {
			t.Errorf("%s: restored %d rows, want %d", name, got.NumRows(), orig.NumRows())
		}
	}

	// Twenty extending checkpoints, each after an epoch that grows both
	// tables and the view: NULL, NaN and -0 prices. Half-way an int meant
	// for Division's string column is refused, and that epoch leaves
	// Division as it was. After each, the
	// recovered warehouse is the live one bit for bit — every relation
	// encodes to the same segment bytes (rows in order, float bits, null
	// bitmaps, column representations), digests the same and has the same
	// blocks — and the checkpoint wrote only its pack of new rows. (The
	// tables were filled by Insert, so their first epoch copies them and
	// starts a lineage of its own: the first of the twenty rewrites them.)
	pid := 100
	for e := uint64(4); e < 24; e++ {
		for i := 0; i < 1+int(e)%3; i++ {
			price := algebra.FloatVal(float64(pid) / 4)
			switch pid % 5 {
			case 1:
				price = algebra.Value{}
			case 2:
				price = algebra.FloatVal(math.NaN())
			case 3:
				price = algebra.FloatVal(math.Copysign(0, -1))
			}
			name := algebra.StringVal("widget")
			if pid%2 == 0 {
				name = algebra.StringVal("gadget")
			}
			if err := db.InsertDelta("Product", []algebra.Value{algebra.IntVal(int64(pid)), name, price}); err != nil {
				t.Fatal(err)
			}
			pid++
		}
		div := relation(t, db, "Division")
		if e != 13 {
			if err := db.InsertDelta("Division", []algebra.Value{algebra.IntVal(int64(e)), algebra.StringVal("SF")}); err != nil {
				t.Fatal(err)
			}
		} else if err := db.InsertDelta("Division", []algebra.Value{algebra.IntVal(int64(e)), algebra.IntVal(94000)}); err == nil {
			t.Fatal("an int in Division's string column was accepted")
		}
		if _, err := db.IncrementalRefreshAll(); err != nil {
			t.Fatal(err)
		}
		if now := relation(t, db, "Division"); e == 13 && (now.NumRows() != div.NumRows() || now.Fingerprint() != div.Fingerprint()) {
			t.Fatalf("the refused row changed Division: %d rows, want %d", now.NumRows(), div.NumRows())
		}
		res = checkpointDB(t, st, db, e, e*10, map[string]algebra.Node{"V": plan})
		if res.Written <= 0 || (e > 4 && res.Written >= res.Bytes/2) {
			t.Fatalf("epoch %d: the checkpoint wrote %d bytes of a generation of %d", e, res.Written, res.Bytes)
		}
		rdb, stats := recoverWarehouse(t, st, plan)
		if stats.Cold || stats.Generation != res.Generation || stats.ViewsRestored != 1 {
			t.Fatalf("epoch %d: recovery %+v", e, stats)
		}
		for _, name := range []string{"Product", "Division", "V"} {
			live, restored := relation(t, db, name), relation(t, rdb, name)
			if !bytes.Equal(segmentOf(t, restored), segmentOf(t, live)) ||
				restored.Fingerprint() != live.Fingerprint() || restored.NumBlocks() != live.NumBlocks() {
				t.Fatalf("epoch %d: %s restored differs from the live table (%d rows, %d live)",
					e, name, restored.NumRows(), live.NumRows())
			}
		}
	}
}

// relation is a table or a view of db.
func relation(t *testing.T, db *engine.DB, name string) *engine.Table {
	t.Helper()
	if v, err := db.View(name); err == nil {
		return v.Table()
	}
	tb, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// segmentOf is tb's segment encoding: equal encodings are bit-identical
// tables.
func segmentOf(t *testing.T, tb *engine.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := engine.WriteTableSegment(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecoverColdWithoutSnapshots(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	_, plan := warehouse(t)
	db, stats := recoverWarehouse(t, st, plan)
	if !stats.Cold {
		t.Error("empty store must recover cold")
	}
	if stats.ViewsRecomputed != 1 {
		t.Errorf("recomputed = %d, want 1", stats.ViewsRecomputed)
	}
	if _, err := db.View("V"); err != nil {
		t.Errorf("cold boot did not materialize the view: %v", err)
	}
}

func TestDefinitionDriftRecomputes(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	if _, err := db.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	checkpointDB(t, st, db, 1, 1, map[string]algebra.Node{"V": plan})

	// The "new release" defines V differently: same name, different plan.
	pt, _ := db.Table("Product")
	drifted := algebra.NewSelect(algebra.NewScan("Product", pt.Schema),
		algebra.Eq(algebra.Ref("Product", "name"), algebra.StringVal("widget")))
	if snapshot.DefHash(drifted) == snapshot.DefHash(plan) {
		t.Fatal("test premise broken: plans hash identically")
	}
	rdb, stats := recoverWarehouse(t, st, drifted)
	if stats.Cold {
		t.Fatal("base restore should still succeed")
	}
	if stats.ViewsRestored != 0 || stats.ViewsRecomputed != 1 {
		t.Errorf("restored/recomputed = %d/%d, want 0/1", stats.ViewsRestored, stats.ViewsRecomputed)
	}
	if stats.CorruptArtifacts != 0 {
		t.Errorf("definition drift counted as corruption (%d artifacts)", stats.CorruptArtifacts)
	}
	// The recomputed view answers the *new* definition.
	v, err := rdb.View("V")
	if err != nil {
		t.Fatal(err)
	}
	if v.Table().NumRows() != 8 { // 12 products, 4 gadgets, 8 widgets
		t.Errorf("drifted view rows = %d, want 8", v.Table().NumRows())
	}
}

func TestGenerationSelectionAndGC(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	if _, err := db.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		res := checkpointDB(t, st, db, i, i*10, map[string]algebra.Node{"V": plan})
		if res.Generation != i {
			t.Fatalf("generation %d on checkpoint %d", res.Generation, i)
		}
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Generation != 4 || m.Watermark != 40 {
		t.Fatalf("newest manifest = %+v, want generation 4 watermark 40", m)
	}
	aged, err := st.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if aged != 2 {
		t.Errorf("GC removed %d generations, want 2", aged)
	}
	// The survivors still recover, newest first.
	_, stats := recoverWarehouse(t, st, plan)
	if stats.Generation != 4 {
		t.Errorf("recovered generation %d after GC, want 4", stats.Generation)
	}
	// GC with nothing to do is a no-op.
	if aged, err := st.GC(2); err != nil || aged != 0 {
		t.Errorf("idle GC = (%d, %v), want (0, nil)", aged, err)
	}
}

func TestDropViewSnapshotPreventsResurrection(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	if _, err := db.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	checkpointDB(t, st, db, 1, 1, map[string]algebra.Node{"V": plan})
	checkpointDB(t, st, db, 2, 2, map[string]algebra.Node{"V": plan})

	// Engine-integrated drop: DropView must scrub every generation.
	db.SetSnapshotStore(st)
	if err := db.DropView("V"); err != nil {
		t.Fatal(err)
	}

	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.View("V"); ok {
		t.Fatal("dropped view still in the newest manifest")
	}
	// Re-add the view (same name, same plan — the resurrection trap) and
	// recover: rows must be recomputed, not resurrected from old segments.
	_, stats := recoverWarehouse(t, st, plan)
	if stats.ViewsRestored != 0 || stats.ViewsRecomputed != 1 {
		t.Errorf("restored/recomputed = %d/%d after drop, want 0/1",
			stats.ViewsRestored, stats.ViewsRecomputed)
	}
	// No generation's manifest names the view any more.
	manifests, err := filepath.Glob(filepath.Join(st.Dir(), "gen-*", "MANIFEST.json"))
	if err != nil || len(manifests) != 2 {
		t.Fatalf("%d manifests (%v), want 2", len(manifests), err)
	}
	for _, path := range manifests {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m snapshot.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.View("V"); ok {
			t.Errorf("%s still names the dropped view", path)
		}
	}
}

// corruptExtent applies one byte-level mutation to the pack that holds the
// newest generation's first extent of the named relation. Every generation
// that holds the extent links that very file.
func corruptExtent(t *testing.T, st *snapshot.Store, view bool, name string, mutate func(b []byte, e snapshot.Extent) []byte) {
	t.Helper()
	m, err := st.Manifest()
	if err != nil || m == nil {
		t.Fatalf("manifest = (%v, %v)", m, err)
	}
	entries := m.Tables
	if view {
		vs, _ := m.View(name)
		entries = []snapshot.Segment{vs.Segment}
	}
	for _, s := range entries {
		if s.Name == name {
			e := s.Extents[0]
			corruptFile(t, filepath.Join(m.Dir(), e.File), func(b []byte) []byte { return mutate(b, e) })
			return
		}
	}
	t.Fatalf("no extent of %s in the newest manifest", name)
}

// corruptFile applies one byte-level mutation to a snapshot artifact.
func corruptFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionFallsBackPerArtifact(t *testing.T) {
	cases := []struct {
		name string
		// mutate damages the store after two committed generations.
		mutate func(t *testing.T, st *snapshot.Store)
		// wantCold: base damage in every generation forces a cold boot.
		wantCold bool
		// wantRecomputed: the view is rebuilt instead of restored.
		wantRecomputed bool
		// wantOlderGen: damage only to the newest generation falls back one.
		wantOlderGen bool
	}{
		{
			name: "bit-flipped view segment payload",
			mutate: func(t *testing.T, st *snapshot.Store) {
				corruptExtent(t, st, true, "V", func(b []byte, e snapshot.Extent) []byte {
					b[e.Offset+e.Bytes/2] ^= 0x01
					return b
				})
			},
			wantRecomputed: true,
		},
		{
			name: "view segment truncated mid-frame",
			mutate: func(t *testing.T, st *snapshot.Store) {
				corruptExtent(t, st, true, "V", func(b []byte, e snapshot.Extent) []byte {
					return b[:e.Offset+e.Bytes*2/3]
				})
			},
			wantRecomputed: true,
		},
		{
			name: "newest manifest deleted",
			mutate: func(t *testing.T, st *snapshot.Store) {
				if err := os.Remove(filepath.Join(st.Dir(), "gen-0000000000000002", "MANIFEST.json")); err != nil {
					t.Fatal(err)
				}
			},
			wantOlderGen: true,
		},
		{
			name: "newest manifest malformed",
			mutate: func(t *testing.T, st *snapshot.Store) {
				corruptFile(t, filepath.Join(st.Dir(), "gen-0000000000000002", "MANIFEST.json"), func(b []byte) []byte {
					return b[:len(b)/2]
				})
			},
			wantOlderGen: true,
		},
		{
			name: "base segment bit-flipped everywhere",
			mutate: func(t *testing.T, st *snapshot.Store) {
				corruptExtent(t, st, false, "Product", func(b []byte, e snapshot.Extent) []byte {
					b[e.Offset+e.Bytes-5] ^= 0x80
					return b
				})
			},
			wantCold: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snaps")
			st, err := snapshot.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(nil)
			st.SetObserver(rec)
			db, plan := warehouse(t)
			if _, err := db.Materialize("V", plan); err != nil {
				t.Fatal(err)
			}
			checkpointDB(t, st, db, 1, 10, map[string]algebra.Node{"V": plan})
			checkpointDB(t, st, db, 2, 20, map[string]algebra.Node{"V": plan})
			tc.mutate(t, st)

			// Boot never fails from corruption: the worst case is cold.
			rdb, stats := recoverWarehouse(t, st, plan)
			if stats.Cold != tc.wantCold {
				t.Errorf("cold = %v, want %v (stats %+v)", stats.Cold, tc.wantCold, stats)
			}
			if tc.wantRecomputed && (stats.ViewsRestored != 0 || stats.ViewsRecomputed != 1) {
				t.Errorf("restored/recomputed = %d/%d, want 0/1", stats.ViewsRestored, stats.ViewsRecomputed)
			}
			if tc.wantOlderGen && stats.Generation != 1 {
				t.Errorf("recovered generation %d, want fallback to 1", stats.Generation)
			}
			if tc.wantCold || tc.wantRecomputed {
				if stats.CorruptArtifacts == 0 {
					t.Error("corruption not counted in recovery stats")
				}
				found := false
				for _, ev := range rec.Trace().Events {
					if ev.Kind == obs.EvSnapshotCorrupt {
						found = true
					}
				}
				if !found {
					t.Error("no EvSnapshotCorrupt event emitted")
				}
			}
			// Whatever the damage, the view answers its definition.
			v, err := rdb.View("V")
			if err != nil {
				t.Fatal(err)
			}
			if v.Table().NumRows() != 4 {
				t.Errorf("view rows after recovery = %d, want 4", v.Table().NumRows())
			}
		})
	}
}

// growWarehouse runs one epoch that adds rows to both tables and refreshes
// every view incrementally.
func growWarehouse(t *testing.T, db *engine.DB, epoch int) {
	t.Helper()
	for i := 0; i < 3; i++ {
		pid := int64(100*epoch + i)
		if err := db.InsertDelta("Product", []algebra.Value{
			algebra.IntVal(pid), algebra.StringVal([]string{"gadget", "widget"}[i%2]), algebra.FloatVal(float64(pid)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertDelta("Division", []algebra.Value{algebra.IntVal(int64(10 + epoch)), algebra.StringVal("SF")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.IncrementalRefreshAll(); err != nil {
		t.Fatal(err)
	}
}

// TestExtentsStayLogarithmic: a table that gains a row or two before each of
// 300 checkpoints never holds more than ⌈log2 rows⌉+1 extents, every pack
// holds only that checkpoint's new rows but when the bound forces a merge,
// and the last generation still restores the table bit for bit.
func TestExtentsStayLogarithmic(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	if _, err := db.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	views := map[string]algebra.Node{"V": plan}
	growWarehouse(t, db, 0)
	checkpointDB(t, st, db, 0, 0, views)
	merges := 0
	for e := 1; e <= 300; e++ {
		added := 1 + e%2
		for i := 0; i < added; i++ {
			if err := db.InsertDelta("Division", []algebra.Value{algebra.IntVal(int64(1000*e + i)), algebra.StringVal("SF")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.IncrementalRefreshAll(); err != nil {
			t.Fatal(err)
		}
		checkpointDB(t, st, db, uint64(e), uint64(e), views)
		if _, err := st.GC(2); err != nil {
			t.Fatal(err)
		}
		m, err := st.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range m.Tables {
			if s.Name != "Division" {
				continue
			}
			if bound := bits.Len(uint(s.Rows-1)) + 1; len(s.Extents) > bound {
				t.Fatalf("checkpoint %d: %d rows in %d extents, bound %d", e, s.Rows, len(s.Extents), bound)
			}
			last := s.Extents[len(s.Extents)-1]
			if last.Rows != added {
				merges++
			}
		}
	}
	if merges == 0 || merges > 60 {
		t.Errorf("%d of 300 checkpoints merged extents", merges)
	}
	rdb, _ := recoverWarehouse(t, st, plan)
	if !bytes.Equal(segmentOf(t, relation(t, rdb, "Division")), segmentOf(t, relation(t, db, "Division"))) {
		t.Fatal("the restored table differs from the live one")
	}
	t.Logf("%d of 300 checkpoints merged extents", merges)
}

// TestPackCorruptionExhaustive applies TestSegmentCorruptionExhaustive's
// discipline to the packs of a small store whose newest generation reads two
// of them: every byte flipped, every pack cut at every length. Recovery never
// fails. A damaged base-table extent boots cold, a damaged view extent
// recomputes that view alone, and whatever is recovered answers its
// definition.
func TestPackCorruptionExhaustive(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	pt, _ := db.Table("Product")
	widgets := algebra.NewSelect(algebra.NewScan("Product", pt.Schema),
		algebra.Eq(algebra.Ref("Product", "name"), algebra.StringVal("widget")))
	defs := []snapshot.ViewDef{{Name: "V", Plan: plan}, {Name: "W", Plan: widgets}}
	for _, v := range defs {
		if _, err := db.Materialize(v.Name, v.Plan); err != nil {
			t.Fatal(err)
		}
	}
	views := map[string]algebra.Node{"V": plan, "W": widgets}
	growWarehouse(t, db, 1)
	checkpointDB(t, st, db, 1, 10, views)
	growWarehouse(t, db, 2)
	checkpointDB(t, st, db, 2, 20, views)

	// Which relation owns each byte of each pack the newest manifest reads.
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	type owner struct {
		name     string
		base     bool
		from, to int64
	}
	owners := make(map[string][]owner)
	for _, s := range m.Tables {
		for _, e := range s.Extents {
			owners[e.File] = append(owners[e.File], owner{s.Name, true, e.Offset, e.Offset + e.Bytes})
		}
	}
	for _, v := range m.Views {
		for _, e := range v.Extents {
			owners[e.File] = append(owners[e.File], owner{v.Name, false, e.Offset, e.Offset + e.Bytes})
		}
	}
	if len(owners) != 2 {
		t.Fatalf("the newest generation reads %d packs, want 2", len(owners))
	}

	boots := 0
	expect := func(label, file string, damaged func(o owner) bool) {
		t.Helper()
		boots++
		cold, recomputed := false, 0
		for f, list := range owners {
			for _, o := range list {
				if f == file && damaged(o) {
					cold = cold || o.base
					if !o.base {
						recomputed++
					}
				}
			}
		}
		rdb, stats, err := snapshot.Recover(st, func() (*engine.DB, error) {
			d, _ := warehouse(t)
			return d, nil
		}, nil, defs, []string{"Product", "Division"}, engine.DefaultBlockRows)
		if err != nil {
			t.Fatalf("%s: the boot failed: %v", label, err)
		}
		if stats.Cold != cold || (!cold && (stats.ViewsRecomputed != recomputed || stats.ViewsRestored != 2-recomputed)) {
			t.Fatalf("%s: cold %v, %d views restored, %d recomputed; want cold %v, %d recomputed",
				label, stats.Cold, stats.ViewsRestored, stats.ViewsRecomputed, cold, recomputed)
		}
		for _, v := range defs {
			res, err := rdb.Execute(v.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := tableRows(t, relation(t, rdb, v.Name)); len(got) != res.Table.NumRows() {
				t.Fatalf("%s: view %s holds %d rows, its definition %d", label, v.Name, len(got), res.Table.NumRows())
			}
		}
	}
	for file := range owners {
		path := filepath.Join(m.Dir(), file)
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := range good {
			corruptFile(t, path, func(b []byte) []byte { b[off] ^= 0x40; return b })
			expect(fmt.Sprintf("%s: byte %d flipped", file, off), file, func(o owner) bool {
				return int64(off) >= o.from && int64(off) < o.to
			})
			corruptFile(t, path, func(b []byte) []byte { b[off] ^= 0x40; return b })
		}
		for n := range good {
			corruptFile(t, path, func(b []byte) []byte { return b[:n] })
			expect(fmt.Sprintf("%s: cut to %d bytes", file, n), file, func(o owner) bool { return o.to > int64(n) })
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d boots over damaged packs", boots)
}

func TestManifestOnEmptyStore(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "fresh"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest()
	if err != nil || m != nil {
		t.Fatalf("empty store manifest = (%v, %v), want (nil, nil)", m, err)
	}
	if err := st.DropViewSnapshot("ghost"); err != nil {
		t.Errorf("dropping from an empty store: %v", err)
	}
}

func TestLoadViewMissing(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	if _, err := db.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	checkpointDB(t, st, db, 1, 1, nil)
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadView(m, "V"); err == nil {
		t.Error("loading a never-persisted view succeeded")
	} else if !errors.Is(err, engine.ErrSegmentCorrupt) && !strings.Contains(err.Error(), "no segment") {
		// Either sentinel is acceptable; the point is a clean error, not a
		// panic or a zero table.
		t.Logf("LoadView miss error: %v", err)
	}
}

// TestStatsSidecarRoundTrip: checkpoints persist each segment's derived
// catalog entry (the manifest's "stats" sidecar) and recovery installs it,
// so the restored warehouse prices queries from the snapshot's statistics
// instead of rescanning every restored table.
func TestStatsSidecarRoundTrip(t *testing.T) {
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	db, plan := warehouse(t)
	if _, err := db.Materialize("V", plan); err != nil {
		t.Fatal(err)
	}
	origCat, err := db.CatalogWithViews()
	if err != nil {
		t.Fatal(err)
	}
	checkpointDB(t, st, db, 1, 1, map[string]algebra.Node{"V": plan})

	m, err := st.Manifest()
	if err != nil || m == nil {
		t.Fatalf("manifest = (%v, %v)", m, err)
	}
	for _, s := range m.Tables {
		if s.Stats == nil || len(s.Stats.Attrs) == 0 {
			t.Fatalf("table %s persisted without a stats sidecar", s.Name)
		}
	}
	for _, v := range m.Views {
		if v.Stats == nil || len(v.Stats.Attrs) == 0 {
			t.Fatalf("view %s persisted without a stats sidecar", v.Name)
		}
	}

	// Doctor one sidecar value in the committed manifest: recovery trusting
	// the sidecar (rather than silently recomputing) must surface it.
	const doctored = 7777
	var product *snapshot.SegmentStats
	for _, s := range m.Tables {
		if s.Name == "Product" {
			product = s.Stats
		}
	}
	as := product.Attrs["Pid"]
	as.DistinctValues = doctored
	product.Attrs["Pid"] = as
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(m.Dir(), "MANIFEST.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, rs := recoverWarehouse(t, st, plan)
	if rs.Cold || rs.ViewsRestored != 1 {
		t.Fatalf("recovery = %+v, want warm with the view restored", rs)
	}
	cat2, err := db2.CatalogWithViews()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat2.Relation("Product")
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Attrs["Pid"].DistinctValues; got != doctored {
		t.Errorf("restored NDV(Pid) = %v, want the sidecar's %v (stats were recomputed, not installed)", got, doctored)
	}
	// Every other entry round-trips exactly.
	for _, name := range []string{"Division", "V"} {
		want, err := origCat.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cat2.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows || got.Blocks != want.Blocks {
			t.Errorf("%s sizes = (%v, %v), want (%v, %v)", name, got.Rows, got.Blocks, want.Rows, want.Blocks)
		}
		for attr, w := range want.Attrs {
			g := got.Attrs[attr]
			if g.DistinctValues != w.DistinctValues || !g.Min.Equal(w.Min) || !g.Max.Equal(w.Max) {
				t.Errorf("%s.%s stats = %+v, want %+v", name, attr, g, w)
			}
			if len(g.Histogram) != len(w.Histogram) {
				t.Errorf("%s.%s histogram length %d, want %d", name, attr, len(g.Histogram), len(w.Histogram))
			}
		}
	}
}
