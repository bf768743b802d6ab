package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// The group-append contract: journaling N records as one group is
// indistinguishable — on disk and through every read method — from N
// one-record appends, and a group torn at any byte leaves a whole-record
// prefix.

// appendGroup journals recs under one source tag as one group and returns
// the last LSN.
func appendGroup(t testing.TB, j *FileJournal, source string, recs []DeltaRecord) uint64 {
	t.Helper()
	var last uint64
	for _, r := range recs {
		lsn, err := j.AppendSource(r.Table, source, r.Rows)
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	return last
}

// groupFixture is a mixed group: several tables, a repeated table, an
// empty-rows record, multi-row records and every value kind.
func groupFixture() []DeltaRecord {
	return []DeltaRecord{
		{Table: "Fact", Rows: [][]algebra.Value{journalRow(1, 2, 3), journalRow(4, 5, 6)}},
		{Table: "Dim0", Rows: [][]algebra.Value{{algebra.IntVal(7), algebra.StringVal("a<b>&\"c\"\n")}}},
		{Table: "Dim1", Rows: [][]algebra.Value{{algebra.FloatVal(2.5), algebra.DateVal(9000), {}}}},
		{Table: "Fact", Rows: [][]algebra.Value{journalRow(7, 8, 9)}},
		{Table: "Dim2"},
		{Table: "Dim3", Rows: [][]algebra.Value{journalRow(10), journalRow(11), journalRow(12)}},
		{Table: "Dim4", Rows: [][]algebra.Value{{algebra.StringVal("")}}},
	}
}

// journalState is everything a reader can learn from a journal.
type journalState struct {
	Pending, All, Since []DeltaRecord
}

func readState(t *testing.T, j DeltaJournal, since uint64) journalState {
	t.Helper()
	var s journalState
	var err error
	if s.Pending, err = j.Pending(); err != nil {
		t.Fatal(err)
	}
	if s.All, err = j.RecordsSince(0); err != nil {
		t.Fatal(err)
	}
	if s.Since, err = j.RecordsSince(since); err != nil {
		t.Fatal(err)
	}
	return s
}

func reopen(t *testing.T, j *FileJournal, path string) *FileJournal {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j2
}

func TestJournalGroupEqualsSequential(t *testing.T) {
	recs := groupFixture()
	dir := t.TempDir()
	seqPath, grpPath := filepath.Join(dir, "seq.wal"), filepath.Join(dir, "grp.wal")
	seq, err := OpenFileJournal(seqPath)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := OpenFileJournal(grpPath)
	if err != nil {
		t.Fatal(err)
	}
	var seqLast uint64
	for i := range recs {
		seqLast = appendGroup(t, seq, "stream", recs[i:i+1])
	}
	grpLast := appendGroup(t, grp, "stream", recs)
	if seqLast != grpLast || grpLast != uint64(len(recs)) {
		t.Fatalf("last LSN: sequential %d, group %d, want %d", seqLast, grpLast, len(recs))
	}
	same := func(stage string) {
		t.Helper()
		a, b := readState(t, seq, 3), readState(t, grp, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: journals diverge:\nsequential %+v\ngroup      %+v", stage, a, b)
		}
		sb, err := os.ReadFile(seqPath)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(grpPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, gb) {
			t.Fatalf("%s: files differ:\nsequential %q\ngroup      %q", stage, sb, gb)
		}
	}
	same("live")
	st := readState(t, grp, 3)
	if len(st.Pending) != len(recs) || len(st.Since) != len(recs)-3 {
		t.Fatalf("group journal holds %d pending / %d past LSN 3, want %d / %d",
			len(st.Pending), len(st.Since), len(recs), len(recs)-3)
	}
	for i, r := range st.Pending {
		if r.LSN != uint64(i+1) || r.Table != recs[i].Table || r.Source != "stream" || len(r.Rows) != len(recs[i].Rows) {
			t.Fatalf("pending[%d] = %+v, want LSN %d of %s tagged \"stream\" with %d rows", i, r, i+1, recs[i].Table, len(recs[i].Rows))
		}
	}

	seq, grp = reopen(t, seq, seqPath), reopen(t, grp, grpPath)
	same("reopened")
	reopened := readState(t, grp, 3)
	for i, r := range reopened.All {
		want := st.All[i]
		if r.LSN != want.LSN || r.Table != want.Table || r.Source != want.Source || fmt.Sprint(r.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("record %d changed across reopen: %+v, was %+v", i, r, want)
		}
	}

	for _, j := range []*FileJournal{seq, grp} {
		if err := j.Commit(2); err != nil {
			t.Fatal(err)
		}
	}
	same("committed to 2")
	for _, j := range []*FileJournal{seq, grp} {
		if err := j.Truncate(4); err != nil {
			t.Fatal(err)
		}
	}
	same("truncated to 4")
	seq, grp = reopen(t, seq, seqPath), reopen(t, grp, grpPath)
	same("truncated and reopened")
	if got := readState(t, grp, 0); !sameLSNs(got.All, 5, 6, 7) || !sameLSNs(got.Pending, 5, 6, 7) {
		t.Fatalf("after Truncate(4): retained %v, pending %v, want 5 6 7", lsnsOf(got.All), lsnsOf(got.Pending))
	}
	// The sequence continues identically on both.
	if a, b := appendGroup(t, seq, "", recs[:1]), appendGroup(t, grp, "", recs[:1]); a != 8 || b != 8 {
		t.Fatalf("next LSN after reopen: sequential %d, group %d, want 8", a, b)
	}
	same("appended after truncation")
	seq.Close()
	grp.Close()
}

// TestJournalTornGroup cuts the file at every byte offset inside a group:
// reopening never fails, exactly the records whose lines survived whole come
// back, and the next LSN clears them.
func TestJournalTornGroup(t *testing.T) {
	recs := groupFixture()
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	appendGroup(t, j, "", recs[:2])
	if err := j.Commit(1); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendGroup(t, j, "stream", recs)
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A cut leaves the group's newline-terminated lines whole; a line cut
	// between its closing brace and its newline may count as either.
	group := full[len(intact):]
	for cut := 0; cut <= len(group); cut++ {
		whole := bytes.Count(group[:cut], []byte("\n"))
		unterminated := 0
		if cut > 0 && cut < len(group) && group[cut-1] == '}' && group[cut] == '\n' {
			unterminated = 1
		}
		torn := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
		if err := os.WriteFile(torn, full[:len(intact)+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, err := OpenFileJournal(torn)
		if err != nil {
			t.Fatalf("cut at group byte %d: open failed: %v", cut, err)
		}
		pend, err := tj.Pending()
		if err != nil {
			t.Fatal(err)
		}
		// LSN 1 is committed; LSN 2 and the group's whole lines are pending.
		if got := len(pend) - 1; got < whole || got > whole+unterminated {
			t.Fatalf("cut at group byte %d: %d of the group's records survive, want %d", cut, got, whole)
		}
		for i, r := range pend {
			if r.LSN != uint64(i+2) {
				t.Fatalf("cut at group byte %d: pending LSNs %v are not the dense prefix from 2", cut, lsnsOf(pend))
			}
		}
		for i, r := range pend[1:] {
			if r.Table != recs[i].Table || r.Source != "stream" || fmt.Sprint(r.Rows) != fmt.Sprint(recs[i].Rows) {
				t.Fatalf("cut at group byte %d: group record %d = %+v, want %+v", cut, i, r, recs[i])
			}
		}
		next := appendGroup(t, tj, "", recs[:1])
		if want := uint64(len(pend) + 2); next != want {
			t.Fatalf("cut at group byte %d: next LSN %d, want %d", cut, next, want)
		}
		tj.Close()
		os.Remove(torn)
	}
}

// FuzzJournalLine: whatever bytes follow a valid prefix — a torn line, a
// foreign line, binary debris — opening the journal never fails and the
// prefix's records are all still there.
func FuzzJournalLine(f *testing.F) {
	f.Add([]byte(`{"t":"d","lsn":3,"table":"sal`))
	f.Add([]byte(`{"t":"d","lsn":3,"table":"sales","rows":[[{"k":1,"i":5}]]}`))
	f.Add([]byte("{\"t\":\"c\",\"lsn\":2}\n{\"t\":\"c\""))
	f.Add([]byte("\n\n{}\n[]\nnull\n"))
	f.Add([]byte{0, 0xff, '\n', '{'})
	f.Add([]byte(`{"t":"d","lsn":18446744073709551615}` + "\n"))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		j, err := OpenFileJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		appendGroup(t, j, "stream", groupFixture()[:2])
		j.Close()
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		j2, err := OpenFileJournal(path)
		if err != nil {
			t.Fatalf("open over tail %q: %v", tail, err)
		}
		defer j2.Close()
		all, err := j2.RecordsSince(0)
		if err != nil {
			t.Fatalf("RecordsSince over tail %q: %v", tail, err)
		}
		if len(all) < 2 || all[0].LSN != 1 || all[1].LSN != 2 || all[0].Table != "Fact" || all[1].Table != "Dim0" {
			t.Fatalf("tail %q lost the valid prefix: %+v", tail, all)
		}
	})
}
