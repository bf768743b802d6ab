package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

func journalRow(vals ...int64) []algebra.Value {
	out := make([]algebra.Value, len(vals))
	for i, v := range vals {
		out[i] = algebra.IntVal(v)
	}
	return out
}

// appendOne journals one batch as a one-record group and returns its LSN.
func appendOne(t testing.TB, j DeltaJournal, table string, rows ...[]algebra.Value) uint64 {
	t.Helper()
	lsn, err := j.AppendGroup([]DeltaRecord{{Table: table, Rows: rows}})
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestMemJournalAppendRecordsSince(t *testing.T) {
	j := NewMemJournal()
	lsn1 := appendOne(t, j, "sales", journalRow(1, 2))
	lsn2 := appendOne(t, j, "customer", journalRow(3, 4), journalRow(5, 6))
	if lsn1 != 1 || lsn2 != 2 {
		t.Fatalf("LSNs = %d, %d; want 1, 2", lsn1, lsn2)
	}
	if all, _ := j.RecordsSince(0); !sameLSNs(all, 1, 2) {
		t.Fatalf("RecordsSince(0) = %v, want [1 2]", lsnsOf(all))
	}
	since, _ := j.RecordsSince(lsn1)
	if len(since) != 1 || since[0].LSN != lsn2 || since[0].Table != "customer" || len(since[0].Rows) != 2 {
		t.Fatalf("RecordsSince(1) = %+v, want only LSN 2 (customer, 2 rows)", since)
	}
	if rest, _ := j.RecordsSince(lsn2); len(rest) != 0 {
		t.Fatalf("RecordsSince(2) = %+v, want empty", rest)
	}
}

func TestFileJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]algebra.Value{
		{algebra.IntVal(7), algebra.FloatVal(1.5), algebra.StringVal("LA"), algebra.DateVal(20260101)},
	}
	if _, err := j.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append("customer", [][]algebra.Value{journalRow(9)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both records survive, values intact; the suffix past LSN 1 is
	// the customer record alone.
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	all, err := j2.RecordsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLSNs(all, 1, 2) || all[0].Table != "sales" || len(all[0].Rows[0]) != len(rows[0]) {
		t.Fatalf("records after reopen = %+v, want LSN 1 (sales) and LSN 2 (customer)", all)
	}
	since, err := j2.RecordsSince(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(since) != 1 || since[0].LSN != 2 || since[0].Table != "customer" {
		t.Fatalf("RecordsSince(1) after reopen = %+v, want only LSN 2 (customer)", since)
	}
	if got := since[0].Rows[0][0]; !got.Equal(algebra.IntVal(9)) {
		t.Fatalf("replayed value = %v, want 9", got)
	}
	// LSNs continue past the highest journaled record.
	lsn, err := j2.Append("sales", rows)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("LSN after reopen = %d, want 3", lsn)
	}
}

func TestFileJournalValueFidelity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []algebra.Value{
		algebra.IntVal(-42),
		algebra.FloatVal(3.25),
		algebra.StringVal("São Paulo"),
		algebra.DateVal(20251231),
	}
	if _, err := j.Append("t", [][]algebra.Value{want}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pend, _ := j2.RecordsSince(0)
	if len(pend) != 1 {
		t.Fatalf("records = %d, want 1", len(pend))
	}
	got := pend[0].Rows[0]
	if len(got) != len(want) {
		t.Fatalf("row width = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !got[i].Equal(want[i]) {
			t.Fatalf("col %d: got %#v, want %#v", i, got[i], want[i])
		}
	}
}

func TestFileJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append("sales", [][]algebra.Value{journalRow(1)}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a truncated, unparseable final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"d","lsn":2,"table":"sal`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	pend, _ := j2.RecordsSince(0)
	if len(pend) != 1 || pend[0].LSN != 1 {
		t.Fatalf("records = %+v, want only the intact LSN 1", pend)
	}
	// The torn bytes were truncated away: a new append lands on a clean
	// tail and survives another reopen.
	if lsn, err := j2.Append("sales", [][]algebra.Value{journalRow(2)}); err != nil || lsn != 2 {
		t.Fatalf("append after torn-tail recovery: lsn=%d err=%v", lsn, err)
	}
	j2.Close()
	j3, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	pend, _ = j3.RecordsSince(0)
	if len(pend) != 2 {
		t.Fatalf("records after recovery append = %d, want 2", len(pend))
	}
}

// TestFileJournalOpensOlderFormat: a journal written before the floor-only
// format — per-epoch "c" commit marks, "src" tags on delta lines, a torn
// tail — opens; RecordsSince(0) returns every delta record, and the next LSN
// clears every LSN any line names.
func TestFileJournalOpensOlderFormat(t *testing.T) {
	d := func(lsn int, table, src string, v int) string {
		return fmt.Sprintf(`{"t":"d","lsn":%d,"table":%q,"src":%q,"rows":[[{"k":%d,"i":%d}]]}`+"\n",
			lsn, table, src, int(algebra.TypeInt), v)
	}
	c := func(lsn int) string { return fmt.Sprintf(`{"t":"c","lsn":%d}`+"\n", lsn) }
	for _, tc := range []struct {
		name string
		file string
		want []uint64
		next uint64
	}{
		{"per-epoch marks, torn tail",
			d(1, "sales", "stream", 10) + d(2, "customer", "", 20) + c(2) + d(3, "sales", "stream", 30) + c(3) +
				`{"t":"d","lsn":4,"table":"sal`,
			[]uint64{1, 2, 3}, 4},
		{"records past the last mark",
			d(1, "sales", "", 10) + c(1) + d(2, "sales", "stream", 20) + d(3, "customer", "stream", 30),
			[]uint64{1, 2, 3}, 4},
		{"compacted, marks between survivors",
			c(5) + d(6, "sales", "stream", 60) + c(6) + d(7, "customer", "", 70) + c(7),
			[]uint64{6, 7}, 8},
		{"compacted to the floor alone", c(7), nil, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old.wal")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenFileJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			all, err := j.RecordsSince(0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameLSNs(all, tc.want...) {
				t.Fatalf("RecordsSince(0) = %v, want %v", lsnsOf(all), tc.want)
			}
			for _, r := range all {
				if len(r.Rows) != 1 || !r.Rows[0][0].Equal(algebra.IntVal(int64(r.LSN)*10)) {
					t.Errorf("record %d rows = %v, want one row holding %d", r.LSN, r.Rows, r.LSN*10)
				}
			}
			if next := appendOne(t, j, "sales", journalRow(1)); next != tc.next {
				t.Fatalf("next LSN = %d, want %d", next, tc.next)
			}
		})
	}
}
