package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// TestStreamIngestRefusesWrongKind: a row whose value is not of its
// column's declared type is refused at admission, by the check the engine's
// Insert runs, before it reaches the journal. The feed's watermarks do not
// move, the journal file is byte-identical, nothing is staged, and the rows
// around it land as they would without it.
func TestStreamIngestRefusesWrongKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	fj, err := engine.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	db, queries, views := oddDB(t)
	s, err := New(Config{DB: db, Queries: queries, Views: views, Journal: fj, DeltaBatch: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := []algebra.Value{algebra.IntVal(100), algebra.IntVal(1), algebra.FloatVal(2.5), algebra.StringVal("ok")}
	if err := s.StreamIngest("M", good); err != nil {
		t.Fatal(err)
	}
	journaled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	accepted, committed := s.IngestWatermarks()
	pending := s.Staleness()["mk"].PendingRows

	for name, bad := range map[string][]algebra.Value{
		"int in a string column": {algebra.IntVal(101), algebra.IntVal(2), algebra.FloatVal(3.5), algebra.IntVal(7)},
		"int in a float column":  {algebra.IntVal(101), algebra.IntVal(2), algebra.IntVal(3), algebra.StringVal("s")},
		"date in an int column":  {algebra.DateVal(101), algebra.IntVal(2), algebra.FloatVal(3.5), algebra.StringVal("s")},
		"an invalid value":       {algebra.IntVal(101), algebra.Value{Kind: 9, Int: 1}, algebra.FloatVal(3.5), algebra.StringVal("s")},
	} {
		if err := s.StreamIngest("M", good, bad); err == nil {
			t.Errorf("%s: the batch was accepted", name)
		}
	}
	if a, c := s.IngestWatermarks(); a != accepted || c != committed {
		t.Errorf("watermarks moved from %d/%d to %d/%d on a refused row", accepted, committed, a, c)
	}
	if got := s.Staleness()["mk"].PendingRows; got != pending {
		t.Errorf("a refused batch staged rows (mk pending %d → %d)", pending, got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, journaled) {
		t.Errorf("a refused batch reached the journal (%d bytes → %d)", len(journaled), len(after))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := s.state.Load().rels.Table("M")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 13 {
		t.Errorf("M holds %d rows after the flush, want its 12 and the one accepted", m.NumRows())
	}
}

// TestBootRefusesJournaledWrongKind: testdata/wrong_kind.wal was written by
// a server that checked only a row's width. It holds two records for oddDB's
// M: at LSN 1 a good row, at LSN 2 a row with an int in the string column s.
// Booting over it fails, naming the table and the LSN: no record is dropped
// without a word, and nothing is staged.
func TestBootRefusesJournaledWrongKind(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "wrong_kind.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deltas.wal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	fj, err := engine.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	recs, err := fj.RecordsSince(0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("the journal holds %d records (%v), want 2", len(recs), err)
	}
	db, queries, views := oddDB(t)
	s, err := New(Config{DB: db, Queries: queries, Views: views, Journal: fj, DeltaBatch: 1 << 20})
	if err == nil {
		s.Close()
		t.Fatal("a server booted over a journaled row of the wrong kind")
	}
	for _, want := range []string{"LSN 2", "of M:", "declared string"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("boot error %q does not name %q", err, want)
		}
	}
	if n := db.PendingDeltaRows("M"); n != 0 {
		t.Errorf("%d rows of the refused journal were staged", n)
	}
}
