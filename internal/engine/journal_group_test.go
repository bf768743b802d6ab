package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
)

// The group-append contract: journaling N records as one group is
// indistinguishable — on disk and through every read method — from N
// one-record appends, and a group torn at any byte leaves a whole-record
// prefix.

// appendGroup journals recs as one group and returns the last LSN.
func appendGroup(t testing.TB, j *FileJournal, recs []DeltaRecord) uint64 {
	t.Helper()
	last, err := j.AppendGroup(recs)
	if err != nil {
		t.Fatal(err)
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
	All, Since []DeltaRecord
}

func readState(t *testing.T, j DeltaJournal, since uint64) journalState {
	t.Helper()
	var s journalState
	var err error
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
		seqLast = appendGroup(t, seq, recs[i:i+1])
	}
	grpLast := appendGroup(t, grp, recs)
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
	if len(st.All) != len(recs) || len(st.Since) != len(recs)-3 {
		t.Fatalf("group journal holds %d records / %d past LSN 3, want %d / %d",
			len(st.All), len(st.Since), len(recs), len(recs)-3)
	}
	for i, r := range st.All {
		if r.LSN != uint64(i+1) || r.Table != recs[i].Table || len(r.Rows) != len(recs[i].Rows) {
			t.Fatalf("record %d = %+v, want LSN %d of %s with %d rows", i, r, i+1, recs[i].Table, len(recs[i].Rows))
		}
	}

	seq, grp = reopen(t, seq, seqPath), reopen(t, grp, grpPath)
	same("reopened")
	reopened := readState(t, grp, 3)
	for i, r := range reopened.All {
		want := st.All[i]
		if r.LSN != want.LSN || r.Table != want.Table || fmt.Sprint(r.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("record %d changed across reopen: %+v, was %+v", i, r, want)
		}
	}

	for _, j := range []*FileJournal{seq, grp} {
		if err := j.Truncate(4); err != nil {
			t.Fatal(err)
		}
	}
	same("truncated to 4")
	seq, grp = reopen(t, seq, seqPath), reopen(t, grp, grpPath)
	same("truncated and reopened")
	if got := readState(t, grp, 0); !sameLSNs(got.All, 5, 6, 7) {
		t.Fatalf("after Truncate(4): retained %v, want 5 6 7", lsnsOf(got.All))
	}
	// The sequence continues identically on both.
	if a, b := appendGroup(t, seq, recs[:1]), appendGroup(t, grp, recs[:1]); a != 8 || b != 8 {
		t.Fatalf("next LSN after reopen: sequential %d, group %d, want 8", a, b)
	}
	same("appended after truncation")
	seq.Close()
	grp.Close()

	// The in-memory journal keeps the same contract.
	mseq, mgrp := NewMemJournal(), NewMemJournal()
	for i := range recs {
		if _, err := mseq.AppendGroup(recs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if last, err := mgrp.AppendGroup(recs); err != nil || last != uint64(len(recs)) {
		t.Fatalf("in-memory group: last LSN %d, err %v, want %d", last, err, len(recs))
	}
	for _, j := range []*MemJournal{mseq, mgrp} {
		if err := j.Truncate(2); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := readState(t, mseq, 3), readState(t, mgrp, 3); !reflect.DeepEqual(a, b) || !sameLSNs(b.All, 3, 4, 5, 6, 7) {
		t.Fatalf("in-memory journals diverge:\nsequential %+v\ngroup      %+v", a, b)
	}
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
	appendGroup(t, j, recs[:2])
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendGroup(t, j, recs)
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A cut leaves exactly the group's newline-terminated lines whole: a
	// line cut between its closing brace and its newline never finished.
	group := full[len(intact):]
	for cut := 0; cut <= len(group); cut++ {
		whole := bytes.Count(group[:cut], []byte("\n"))
		torn := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
		if err := os.WriteFile(torn, full[:len(intact)+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, err := OpenFileJournal(torn)
		if err != nil {
			t.Fatalf("cut at group byte %d: open failed: %v", cut, err)
		}
		pend, err := tj.RecordsSince(0)
		if err != nil {
			t.Fatal(err)
		}
		// LSNs 1 and 2 came before the group; its whole lines follow them.
		if got := len(pend) - 2; got != whole {
			t.Fatalf("cut at group byte %d: %d of the group's records survive, want %d", cut, got, whole)
		}
		for i, r := range pend {
			if r.LSN != uint64(i+1) {
				t.Fatalf("cut at group byte %d: LSNs %v are not the dense prefix from 1", cut, lsnsOf(pend))
			}
		}
		for i, r := range pend[2:] {
			if r.Table != recs[i].Table || fmt.Sprint(r.Rows) != fmt.Sprint(recs[i].Rows) {
				t.Fatalf("cut at group byte %d: group record %d = %+v, want %+v", cut, i, r, recs[i])
			}
		}
		next := appendGroup(t, tj, recs[:1])
		if want := uint64(len(pend) + 1); next != want {
			t.Fatalf("cut at group byte %d: next LSN %d, want %d", cut, next, want)
		}
		// The torn bytes are gone: the new record lands on a clean tail and
		// survives another reopen beside the prefix.
		tj = reopen(t, tj, torn)
		if again, _ := tj.RecordsSince(0); len(again) != len(pend)+1 || again[len(pend)].LSN != next {
			t.Fatalf("cut at group byte %d: LSNs after append and reopen %v, want %v then %d",
				cut, lsnsOf(again), lsnsOf(pend), next)
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
	f.Add([]byte(`{"t":"d","lsn":3,"table":"Fact","src":"stream","rows":[[{"k":1,"i":5}]]}` + "\n" + `{"t":"c","lsn":3}` + "\n" + `{"t":"d","lsn":4,"ta`))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		j, err := OpenFileJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		appendGroup(t, j, groupFixture()[:2])
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
		// Whatever the tail was, the journal is writable again: a new record
		// survives the next reopen.
		lsn := appendGroup(t, j2, groupFixture()[3:4])
		j3, err := OpenFileJournal(path)
		if err != nil {
			t.Fatalf("reopen after appending over tail %q: %v", tail, err)
		}
		defer j3.Close()
		again, err := j3.RecordsSince(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(all)+1 || again[len(all)].LSN != lsn {
			t.Fatalf("tail %q: record appended at LSN %d did not survive a reopen: %v", tail, lsn, lsnsOf(again))
		}
	})
}

// countingFile counts the journal's writes and syncs and can fail them.
type countingFile struct {
	*os.File
	writes, syncs       int
	failSync, tearWrite bool
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.writes++
	if c.tearWrite {
		n, _ := c.File.Write(p[:len(p)/2])
		return n, fmt.Errorf("disk full")
	}
	return c.File.Write(p)
}

func (c *countingFile) Sync() error {
	c.syncs++
	if c.failSync {
		return fmt.Errorf("sync failed")
	}
	return c.File.Sync()
}

// TestFileJournalGroupIsOneWriteOneSync: a group of any size costs exactly
// one write and one fsync, and a group that fails — injected before the
// write, torn mid-write, or unsynced — leaves the file byte-identical and the
// LSN sequence unmoved.
func TestFileJournalGroupIsOneWriteOneSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "count.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cf := &countingFile{File: j.f.(*os.File)}
	j.f = cf
	recs := groupFixture()
	if last := appendGroup(t, j, recs); last != uint64(len(recs)) {
		t.Fatalf("last LSN %d, want %d", last, len(recs))
	}
	if cf.writes != 1 || cf.syncs != 1 {
		t.Fatalf("a %d-record group cost %d writes / %d syncs, want 1 / 1", len(recs), cf.writes, cf.syncs)
	}
	// Reading the suffix back writes nothing.
	if all, err := j.RecordsSince(0); err != nil || len(all) != len(recs) {
		t.Fatalf("RecordsSince(0) = %d records, err %v, want %d", len(all), err, len(recs))
	}
	if cf.writes != 1 || cf.syncs != 1 {
		t.Fatalf("RecordsSince cost %d writes / %d syncs, want none", cf.writes-1, cf.syncs-1)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(stage string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: the group was accepted", stage)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: a refused group changed the file:\nbefore %q\nafter  %q", stage, before, after)
		}
		if all, _ := j.RecordsSince(0); !sameLSNs(all, 1, 2, 3, 4, 5, 6, 7) {
			t.Fatalf("%s: LSNs %v, want 1..7", stage, lsnsOf(all))
		}
	}
	j.SetInjector(fault.New(1, fault.Plan{fault.SiteJournalAppend: {ErrProb: 1}}))
	_, err = j.AppendGroup(recs)
	refused("injected", err)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected append failed with %v, want the injected error", err)
	}
	if cf.writes != 1 {
		t.Fatalf("the injected fault fired after the write (%d writes)", cf.writes)
	}
	j.SetInjector(nil)
	cf.tearWrite = true
	_, err = j.AppendGroup(recs)
	refused("torn write", err)
	cf.tearWrite, cf.failSync = false, true
	_, err = j.AppendGroup(recs)
	refused("failed sync", err)
	cf.failSync = false

	// The sequence resumes where the last accepted group left it, on a
	// clean tail.
	if last := appendGroup(t, j, recs[:2]); last != uint64(len(recs)+2) {
		t.Fatalf("first LSNs after the refusals end at %d, want %d", last, len(recs)+2)
	}
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if all, _ := j2.RecordsSince(0); !sameLSNs(all, 1, 2, 3, 4, 5, 6, 7, 8, 9) {
		t.Fatalf("reopened LSNs %v, want 1..9", lsnsOf(all))
	}
}
