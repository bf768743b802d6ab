package engine

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
)

func lsnsOf(recs []DeltaRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.LSN
	}
	return out
}

func sameLSNs(got []DeltaRecord, want ...uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		if r.LSN != want[i] {
			return false
		}
	}
	return true
}

func TestMemJournalRecordsSinceAndTruncate(t *testing.T) {
	j := NewMemJournal()
	for i := 0; i < 5; i++ {
		appendOne(t, j, "t", journalRow(int64(i)))
	}
	if recs, _ := j.RecordsSince(1); !sameLSNs(recs, 2, 3, 4, 5) {
		t.Fatalf("RecordsSince(1) = %v, want [2 3 4 5]", lsnsOf(recs))
	}
	if err := j.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if recs, _ := j.RecordsSince(0); !sameLSNs(recs, 4, 5) {
		t.Fatalf("after Truncate(3): RecordsSince(0) = %v, want [4 5]", lsnsOf(recs))
	}
	// Sequence numbering continues past the truncation.
	if lsn := appendOne(t, j, "t", journalRow(9)); lsn != 6 {
		t.Fatalf("append after truncate: lsn=%d, want 6", lsn)
	}
}

func TestFileJournalTruncateCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := j.Append("t", [][]algebra.Value{journalRow(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Truncate(3); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	if recs, _ := j.RecordsSince(0); !sameLSNs(recs, 4, 5) {
		t.Fatalf("RecordsSince(0) = %v, want [4 5]", lsnsOf(recs))
	}
	// Appends continue on the compacted file and survive a reopen.
	if lsn, err := j.Append("t", [][]algebra.Value{journalRow(9)}); err != nil || lsn != 6 {
		t.Fatalf("append after truncate: lsn=%d err=%v, want 6", lsn, err)
	}
	j.Close()
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs, _ := j2.RecordsSince(3); !sameLSNs(recs, 4, 5, 6) {
		t.Fatalf("after reopen: RecordsSince(3) = %v, want [4 5 6]", lsnsOf(recs))
	}
}

// TestFileJournalTruncateCrashLosesNothing is the compaction crash
// regression: a truncation that dies before its atomic rename must leave
// the original journal complete — replay after truncate+crash loses no
// record — and the next open sweeps the staged debris.
func TestFileJournalTruncateCrashLosesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := j.Append("t", [][]algebra.Value{journalRow(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash point: the replacement file is fully staged, the rename never
	// happens.
	j.SetInjector(fault.New(1, fault.Plan{fault.SiteJournalTruncate: {ErrProb: 1}}))
	if err := j.Truncate(3); err == nil {
		t.Fatal("injected truncate crash did not surface")
	}
	if _, err := os.Stat(path + compactSuffix); err != nil {
		t.Fatalf("staged compaction file missing after simulated crash: %v", err)
	}
	// The live journal is untouched: every record is still replayable.
	if recs, _ := j.RecordsSince(0); !sameLSNs(recs, 1, 2, 3, 4, 5, 6) {
		t.Fatalf("RecordsSince(0) after crashed truncate = %v, want all six", lsnsOf(recs))
	}
	j.Close()

	// Restart: the debris is swept, nothing was lost, LSNs continue.
	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Errorf("stale compaction file not removed on reopen: %v", err)
	}
	if recs, _ := j2.RecordsSince(0); !sameLSNs(recs, 1, 2, 3, 4, 5, 6) {
		t.Fatalf("RecordsSince(0) after restart = %v, want all six", lsnsOf(recs))
	}
	// A clean retry now succeeds.
	if err := j2.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if recs, _ := j2.RecordsSince(0); !sameLSNs(recs, 4, 5, 6) {
		t.Fatalf("RecordsSince(0) after retried truncate = %v, want [4 5 6]", lsnsOf(recs))
	}
}

// TestFileJournalTruncateAllPinsLSNSequence: truncating every record leaves
// only the LSN-floor line, and a reopened journal must continue the sequence
// above it — reissuing LSNs below a snapshot watermark would make
// RecordsSince silently skip live deltas.
func TestFileJournalTruncateAllPinsLSNSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := j.Append("t", [][]algebra.Value{journalRow(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if recs, _ := j.RecordsSince(0); len(recs) != 0 {
		t.Fatalf("RecordsSince(0) after full truncate = %v, want empty", lsnsOf(recs))
	}
	j.Close()

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	lsn, err := j2.Append("t", [][]algebra.Value{journalRow(99)})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("LSN after full truncate + reopen = %d, want 5 (sequence must not restart)", lsn)
	}
	// The new record is visible past the old watermark — exactly what
	// snapshot recovery will ask for.
	if recs, _ := j2.RecordsSince(4); !sameLSNs(recs, 5) {
		t.Fatalf("RecordsSince(4) = %v, want [5]", lsnsOf(recs))
	}
}
