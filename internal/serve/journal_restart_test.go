package serve

import (
	"math"
	"path/filepath"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/engine"
)

// oddDB is a warehouse with a float and a string column beside an int
// join key: M(id, k, x, s) ⋈ K(id, tag) is the view mk, kept incrementally,
// and σ M.id ≥ 0 (M) the view mall, recomputed.
func oddDB(t *testing.T) (*engine.DB, []QuerySpec, []ViewSpec) {
	t.Helper()
	col := func(rel, name string, typ algebra.Type) algebra.Column {
		return algebra.Column{Relation: rel, Name: name, Type: typ}
	}
	ms := algebra.NewSchema(col("M", "id", algebra.TypeInt), col("M", "k", algebra.TypeInt),
		col("M", "x", algebra.TypeFloat), col("M", "s", algebra.TypeString))
	ks := algebra.NewSchema(col("K", "id", algebra.TypeInt), col("K", "tag", algebra.TypeString))
	db := engine.NewDB(4)
	m, err := db.CreateTable("M", ms)
	if err != nil {
		t.Fatal(err)
	}
	k, err := db.CreateTable("K", ks)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 12; i++ {
		if err := m.Insert([]algebra.Value{algebra.IntVal(i), algebra.IntVal(i % 3), algebra.FloatVal(float64(i) / 2),
			algebra.StringVal("m")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 3; i++ {
		if err := k.Insert([]algebra.Value{algebra.IntVal(i), algebra.StringVal("k")}); err != nil {
			t.Fatal(err)
		}
	}
	mk := algebra.NewJoin(algebra.NewScan("M", ms), algebra.NewScan("K", ks),
		[]algebra.JoinCond{{Left: algebra.Ref("M", "k"), Right: algebra.Ref("K", "id")}})
	mall := algebra.NewSelect(algebra.NewScan("M", ms), algebra.Compare(algebra.ColOperand(algebra.Ref("M", "id")),
		algebra.OpGe, algebra.LitOperand(algebra.IntVal(0))))
	for name, plan := range map[string]algebra.Node{"mk": mk, "mall": mall} {
		if _, err := db.Materialize(name, plan); err != nil {
			t.Fatal(err)
		}
	}
	return db,
		[]QuerySpec{{Name: "QMK", Plan: mk, Frequency: 1}, {Name: "QM", Plan: mall, Frequency: 1}},
		[]ViewSpec{{Name: "mk", Strategy: core.MaintIncremental}, {Name: "mall", Strategy: core.MaintRecompute}}
}

// TestJournalRestartReplaysOddValues streams rows holding NaN, −0 and
// strings that are not valid UTF-8 into a server journaling to a file, lands
// one batch and leaves the other journaled only, then restarts over the
// journal: once its first epoch lands the replay, every view and base
// table's fingerprint — which renders −0 apart from +0 and a string's bytes
// quoted — equals a never-crashed control's that ingested the same rows.
func TestJournalRestartReplaysOddValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	negZero := math.Copysign(0, -1)
	batches := [][][]algebra.Value{
		{
			{algebra.IntVal(100), algebra.IntVal(1), algebra.FloatVal(math.NaN()), algebra.StringVal("a\xffb")},
			{algebra.IntVal(101), algebra.IntVal(2), algebra.FloatVal(negZero), algebra.StringVal("\xc3")},
		},
		{
			{algebra.IntVal(102), algebra.IntVal(0), algebra.FloatVal(negZero), algebra.StringVal("\xed\xa0\x80")},
			{algebra.IntVal(103), algebra.IntVal(1), algebra.FloatVal(math.Float64frombits(0x7ff8_0000_dead_beef)), algebra.StringVal("ok")},
		},
	}
	// ingest streams both batches and lands the first.
	ingest := func(s *Server) {
		for i, rows := range batches {
			if err := s.StreamIngest("M", rows...); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	boot := func(j engine.DeltaJournal) *Server {
		db, queries, views := oddDB(t)
		s, err := New(Config{DB: db, Queries: queries, Views: views, Journal: j, DeltaBatch: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	fj, err := engine.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	crashed := boot(fj)
	ingest(crashed)
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := engine.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	reborn := boot(reopened)
	if got := reborn.Stats().ReplayedDeltaRows; got != 4 {
		t.Fatalf("replayed %d rows, want the 4 journaled", got)
	}
	if err := reborn.Flush(); err != nil {
		t.Fatal(err)
	}
	control := boot(engine.NewMemJournal())
	ingest(control)
	if err := control.Flush(); err != nil {
		t.Fatal(err)
	}

	got, want := reborn.state.Load().rels, control.state.Load().rels
	for _, name := range []string{"mk", "mall"} {
		gv, err := got.View(name)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.View(name)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := gv.Table(), wv.Table(); g.NumRows() != w.NumRows() || g.Fingerprint() != w.Fingerprint() {
			t.Errorf("view %s after the restart: %d rows, fingerprint %#x; never crashed: %d rows, %#x\nreplayed: %v\ncontrol:  %v",
				name, g.NumRows(), g.Fingerprint(), w.NumRows(), w.Fingerprint(), rowsFingerprint(g), rowsFingerprint(w))
		}
	}
	for _, name := range []string{"M", "K"} {
		g, err := got.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Fingerprint() != w.Fingerprint() {
			t.Errorf("table %s after the restart: %v\nnever crashed: %v", name, rowsFingerprint(g), rowsFingerprint(w))
		}
	}
}
