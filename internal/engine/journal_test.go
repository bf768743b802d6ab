package engine

import (
	"fmt"
	"math"
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

// requireJournalsAgree appends rows as one record to a MemJournal and to a
// FileJournal, reopens the file, and requires both to return the same
// record through RecordsSince, bit for bit: kind, int and string payloads,
// and every float's IEEE-754 bits — NaN payloads, ±Inf and −0 included.
func requireJournalsAgree(t *testing.T, rows [][]algebra.Value) {
	t.Helper()
	mem := NewMemJournal()
	appendOne(t, mem, "t", rows...)
	path := filepath.Join(t.TempDir(), "floats.wal")
	fj, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fj.AppendGroup([]DeltaRecord{{Table: "t", Rows: rows}})
	fj.Close()
	if err != nil {
		t.Fatalf("FileJournal refused %v: %v", rows, err)
	}
	reopened, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	want, _ := mem.RecordsSince(0)
	got, err := reopened.RecordsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0].LSN != want[0].LSN || got[0].Table != want[0].Table || len(got[0].Rows) != len(want[0].Rows) {
		t.Fatalf("after reopen: %+v, want %+v", got, want)
	}
	for r, row := range want[0].Rows {
		for c, w := range row {
			g := got[0].Rows[r][c]
			if g.Kind != w.Kind || g.Int != w.Int || g.Str != w.Str || math.Float64bits(g.Float) != math.Float64bits(w.Float) {
				t.Errorf("row %d col %d: replayed %#v (float bits %#x), journaled %#v (float bits %#x)",
					r, c, g, math.Float64bits(g.Float), w, math.Float64bits(w.Float))
			}
		}
	}
}

// TestFileJournalFloatFidelity: the file journal takes every float a
// MemJournal takes and replays it with the same bits. The line format once
// refused NaN and ±Inf (JSON has no literal for them) and replayed −0 as +0
// (an omitted zero).
func TestFileJournalFloatFidelity(t *testing.T) {
	negZero := math.Copysign(0, -1)
	requireJournalsAgree(t, [][]algebra.Value{
		{algebra.FloatVal(math.NaN()), algebra.FloatVal(math.Inf(1)), algebra.FloatVal(math.Inf(-1))},
		{algebra.FloatVal(negZero), algebra.FloatVal(0), {}},
		// A quiet NaN with a payload, a negative and a signalling one.
		{algebra.FloatVal(math.Float64frombits(0x7ff8_0000_dead_beef)), algebra.FloatVal(math.Float64frombits(0xfff8_0000_0000_0001)),
			algebra.FloatVal(math.Float64frombits(0x7ff0_0000_0000_0001))},
		{algebra.IntVal(-7), algebra.StringVal("LA"), algebra.DateVal(20260101)},
	})
}

// TestFileJournalReadsDecimalFloats: a journal written before floats were
// written as their bits carries them in the decimal "f" field, which still
// reads.
func TestFileJournalReadsDecimalFloats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	line := fmt.Sprintf(`{"t":"d","lsn":1,"table":"t","rows":[[{"k":%d,"f":3.25},{"k":%d}]]}`+"\n",
		int(algebra.TypeFloat), int(algebra.TypeFloat))
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	all, _ := j.RecordsSince(0)
	if len(all) != 1 || len(all[0].Rows) != 1 {
		t.Fatalf("records = %+v, want one row", all)
	}
	row := all[0].Rows[0]
	if row[0] != algebra.FloatVal(3.25) || row[1] != algebra.FloatVal(0) {
		t.Fatalf("replayed %#v, want 3.25 and +0", row)
	}
}

// FuzzJournalFloatFidelity is TestFileJournalFloatFidelity over any float
// bits: the float itself, its negation, and the same bits under any kind
// beside any int payload (a non-canonical value round-trips verbatim too),
// next to a null and −0.
func FuzzJournalFloatFidelity(f *testing.F) {
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.Copysign(0, -1)), 0, math.Float64bits(1.5), 0x7ff0_0000_0000_0001, 0xfff8_0000_dead_beef,
	} {
		f.Add(bits, int64(0), uint8(algebra.TypeFloat))
	}
	f.Add(uint64(1), int64(-1), uint8(algebra.TypeInt))
	f.Add(uint64(0x8000_0000_0000_0000), int64(42), uint8(200))
	f.Fuzz(func(t *testing.T, bits uint64, i int64, kind uint8) {
		x := math.Float64frombits(bits)
		requireJournalsAgree(t, [][]algebra.Value{
			{algebra.FloatVal(x), algebra.FloatVal(-x), {}},
			{{Kind: algebra.Type(kind), Int: i, Float: x}, algebra.FloatVal(math.Copysign(0, -1))},
		})
	})
}

// TestFileJournalStringFidelity: the file journal replays every string a
// MemJournal keeps byte for byte. JSON coerces each byte of a string that is
// not valid UTF-8 to U+FFFD, so such strings once replayed changed: a stray
// byte, a cut multi-byte sequence, an encoded surrogate, an overlong form,
// beside valid strings JSON escapes (<, >, &, U+2028) and the empty string,
// under a string kind and under an invalid one.
func TestFileJournalStringFidelity(t *testing.T) {
	requireJournalsAgree(t, [][]algebra.Value{
		{algebra.StringVal("a\xffb"), algebra.StringVal("\xc3"), algebra.StringVal("\xed\xa0\x80")},
		{algebra.StringVal("\xc0\xaf"), algebra.StringVal("\x00\xfe\xff"), algebra.StringVal("")},
		{algebra.StringVal("São Paulo"), algebra.StringVal("<a&b>\u2028"), {Kind: 200, Str: "\x80"}},
	})
}

// FuzzJournalStringFidelity is TestFileJournalStringFidelity over any
// bytes: the string itself, with an invalid byte appended, under any kind
// beside any int payload, next to a null.
func FuzzJournalStringFidelity(f *testing.F) {
	for _, s := range []string{"", "LA", "a\xffb", "\xc3", "\xed\xa0\x80", "São Paulo", "<a&b>\u2028", "\x00"} {
		f.Add(s, int64(0), uint8(algebra.TypeString))
	}
	f.Add("\x80", int64(7), uint8(200))
	f.Fuzz(func(t *testing.T, s string, i int64, kind uint8) {
		requireJournalsAgree(t, [][]algebra.Value{
			{algebra.StringVal(s), algebra.StringVal(s + "\xff"), {}},
			{{Kind: algebra.Type(kind), Int: i, Str: s}},
		})
	})
}
