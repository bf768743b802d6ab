package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"unicode/utf8"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
)

// DeltaRecord is one journaled batch of inserted rows for a base table.
type DeltaRecord struct {
	// LSN is the record's log sequence number; the journal assigns them
	// densely from 1.
	LSN uint64
	// Table is the base table the rows belong to.
	Table string
	// Rows are the inserted rows, schema-width as ingested.
	Rows [][]algebra.Value
}

// DeltaJournal is a write-ahead log for base-table deltas: the serving
// layer appends every ingested batch *before* buffering it, and on restart
// replays every record past the watermark of the state it boots on (a
// snapshot's, or 0 for a freshly generated warehouse) — so no ingested
// delta is ever lost to a crash, whether or not its epoch had landed.
//
// Implementations must be safe for concurrent use. AppendGroup must be
// durable (for the file journal: written and synced) before it returns.
type DeltaJournal interface {
	// AppendGroup journals the records' Table and Rows as one group, in
	// order: each gets the next dense LSN, and the group is made durable as
	// a whole — it either returns the last LSN assigned, or an error with
	// nothing journaled. An empty group journals nothing and returns 0.
	AppendGroup(recs []DeltaRecord) (lastLSN uint64, err error)
	// RecordsSince returns every retained record with LSN > lsn in LSN
	// order: the suffix a server booting on a state with watermark lsn
	// replays. Truncate bounds how far back it can reach.
	RecordsSince(lsn uint64) ([]DeltaRecord, error)
	// Truncate drops every record with LSN ≤ lsn (they are captured by a
	// durable snapshot and will never be replayed). LSN assignment
	// continues from where it was — truncation never reissues sequence
	// numbers.
	Truncate(lsn uint64) error
	// Close releases the journal's resources.
	Close() error
}

// MemJournal is the in-memory DeltaJournal: it survives a simulated crash
// (abandoning a Server and building a new one over the same journal) but
// not a process exit. Tests and examples use it; production-shaped runs use
// the file journal.
type MemJournal struct {
	mu      sync.Mutex
	records []DeltaRecord
	nextLSN uint64
}

// NewMemJournal creates an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{nextLSN: 1} }

// AppendGroup journals the records as one group. The rows are copied
// shallowly (row slices are shared; the serving layer never mutates
// ingested rows).
func (j *MemJournal) AppendGroup(recs []DeltaRecord) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, r := range recs {
		j.records = append(j.records, DeltaRecord{LSN: j.nextLSN, Table: r.Table, Rows: append([][]algebra.Value(nil), r.Rows...)})
		j.nextLSN++
	}
	return j.nextLSN - 1, nil
}

// RecordsSince returns every retained record with LSN > lsn.
func (j *MemJournal) RecordsSince(lsn uint64) ([]DeltaRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []DeltaRecord
	for _, r := range j.records {
		if r.LSN > lsn {
			out = append(out, r)
		}
	}
	return out, nil
}

// Truncate drops records with LSN ≤ lsn; sequence numbering continues.
func (j *MemJournal) Truncate(lsn uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	keep := j.records[:0]
	for _, r := range j.records {
		if r.LSN > lsn {
			keep = append(keep, r)
		}
	}
	j.records = keep
	return nil
}

// Close is a no-op for the in-memory journal.
func (j *MemJournal) Close() error { return nil }

// journal file format: one JSON object per line, either a delta record
// ({"t":"d","lsn":N,"table":...,"rows":[[...]]}) or an LSN-floor line
// ({"t":"c","lsn":N}) that Truncate writes first so the sequence never
// restarts below N. Values serialize as {k,i,b,s} with zero fields omitted,
// b being the float payload's IEEE-754 bits, so NaN payloads, ±Inf and −0
// replay exactly; journals written before that carry the float as a
// decimal f, which still reads. A string payload that is not valid UTF-8
// is written as its bytes, x (base64), instead of s, which JSON would
// coerce to U+FFFD per bad byte; every valid string stays in s, so the
// lines of such strings are unchanged and older journals read.
// The format is append-only; a torn final line (crash mid-append) is
// detected by its parse failure or its missing newline and discarded on
// open. A group is nothing but its records' lines written together, so a
// torn group leaves a whole-record prefix. Older journals also carry
// per-epoch "c" lines and a "src" field on delta lines; both read as
// nothing but LSN floors and an ignored field.
type journalLine struct {
	T     string          `json:"t"`
	LSN   uint64          `json:"lsn"`
	Table string          `json:"table,omitempty"`
	Rows  [][]journaleVal `json:"rows,omitempty"`
}

type journaleVal struct {
	K int     `json:"k"`
	I int64   `json:"i,omitempty"`
	B uint64  `json:"b,omitempty"`
	F float64 `json:"f,omitempty"` // read only: the older format's float
	S string  `json:"s,omitempty"`
	X []byte  `json:"x,omitempty"` // a string that is not valid UTF-8, verbatim
}

func encodeRow(row []algebra.Value) []journaleVal {
	out := make([]journaleVal, len(row))
	for i, v := range row {
		out[i] = journaleVal{K: int(v.Kind), I: v.Int, B: math.Float64bits(v.Float), S: v.Str}
		if !utf8.ValidString(v.Str) {
			out[i].S, out[i].X = "", []byte(v.Str)
		}
	}
	return out
}

// encodeDelta writes r as one delta line.
func encodeDelta(enc *json.Encoder, r DeltaRecord) error {
	rows := make([][]journaleVal, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = encodeRow(row)
	}
	return enc.Encode(journalLine{T: "d", LSN: r.LSN, Table: r.Table, Rows: rows})
}

func decodeRow(row []journaleVal) []algebra.Value {
	out := make([]algebra.Value, len(row))
	for i, v := range row {
		f := v.F
		if v.B != 0 {
			f = math.Float64frombits(v.B)
		}
		str := v.S
		if v.X != nil {
			str = string(v.X)
		}
		out[i] = algebra.Value{Kind: algebra.Type(v.K), Int: v.I, Float: f, Str: str}
	}
	return out
}

// journalFile is what the journal needs of its open file; tests substitute
// one that counts or fails the calls.
type journalFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// FileJournal is the file-backed DeltaJournal: an append-only line-JSON log
// that costs one write and one fsync per group, and whose open path
// tolerates a torn tail — the crash-safe write-ahead log proper. Records
// stay in the file until Truncate compacts it.
type FileJournal struct {
	mu   sync.Mutex
	path string
	f    journalFile
	// tail is the file's length: where the next write lands, and what a
	// failed write is cut back to.
	tail    int64
	nextLSN uint64
	inj     *fault.Injector
}

// journalScan is the result of reading one journal file front to back.
type journalScan struct {
	records   []DeltaRecord // every delta record, in file order
	maxLSN    uint64        // highest LSN on any line (delta or floor)
	goodBytes int64         // bytes before the first malformed (torn) line
}

// scanJournalFile parses a journal file, stopping (without error) at the
// first malformed or unterminated line — the torn tail of a crashed append.
func scanJournalFile(f io.Reader) (journalScan, error) {
	var s journalScan
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		raw, err := r.ReadBytes('\n')
		if err == io.EOF {
			// What is left has no newline: its write never completed, so it
			// is torn even if the bytes that arrived happen to parse.
			return s, nil
		}
		if err != nil {
			return s, fmt.Errorf("engine: reading delta journal: %w", err)
		}
		var line journalLine
		if err := json.Unmarshal(raw, &line); err != nil {
			// Everything before a torn line is intact; the caller discards
			// the rest.
			return s, nil
		}
		s.goodBytes += int64(len(raw))
		if line.LSN > s.maxLSN {
			s.maxLSN = line.LSN
		}
		if line.T == "d" {
			rows := make([][]algebra.Value, len(line.Rows))
			for i, r := range line.Rows {
				rows[i] = decodeRow(r)
			}
			s.records = append(s.records, DeltaRecord{LSN: line.LSN, Table: line.Table, Rows: rows})
		}
	}
}

// OpenFileJournal opens (or creates) the journal at path and recovers its
// LSN sequence; a malformed final line — a torn write from a crash — is
// discarded. A stale compaction temp file (crash mid-Truncate) is removed:
// the original journal is still complete, so the half-written replacement
// is just debris.
func OpenFileJournal(path string) (*FileJournal, error) {
	if err := os.Remove(path + compactSuffix); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("engine: removing stale journal compaction file: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: opening delta journal: %w", err)
	}
	s, err := scanJournalFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// nextLSN must clear every LSN the file has ever named — including a
	// truncation's floor line, which may be the only surviving line.
	// Restarting the sequence lower would reissue LSNs below a snapshot
	// watermark and make RecordsSince silently skip live deltas.
	j := &FileJournal{path: path, f: f, tail: s.goodBytes, nextLSN: s.maxLSN + 1}
	if j.nextLSN < 1 {
		j.nextLSN = 1
	}
	if err := f.Truncate(j.tail); err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(j.tail, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// SetInjector arms fault injection at the journal's sites
// (SiteJournalAppend, SiteJournalTruncate); nil disables.
func (j *FileJournal) SetInjector(in *fault.Injector) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.inj = in
}

// writeDurable appends data with one Write and one Sync.
func (j *FileJournal) writeDurable(data []byte) error {
	if _, err := j.f.Write(data); err != nil {
		return j.cutBack(fmt.Errorf("engine: appending to delta journal: %w", err))
	}
	if err := j.f.Sync(); err != nil {
		return j.cutBack(fmt.Errorf("engine: syncing delta journal: %w", err))
	}
	j.tail += int64(len(data))
	return nil
}

// cutBack undoes a failed write: the file is cut back to where the write
// began, so a refused group leaves no whole-record prefix whose LSNs the
// next group would reissue. Best effort — the journal is already failing,
// and reopening discards a torn tail anyway. Returns cause.
func (j *FileJournal) cutBack(cause error) error {
	_ = j.f.Truncate(j.tail)
	_, _ = j.f.Seek(j.tail, io.SeekStart)
	return cause
}

// Append journals one batch durably: a one-record group.
func (j *FileJournal) Append(table string, rows [][]algebra.Value) (uint64, error) {
	return j.AppendGroup([]DeltaRecord{{Table: table, Rows: rows}})
}

// AppendGroup journals the records as one group: one line and one dense LSN
// per record, all lines in one buffer, one write, one fsync.
func (j *FileJournal) AppendGroup(recs []DeltaRecord) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.inj.Hit(fault.SiteJournalAppend); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range recs {
		if err := encodeDelta(enc, DeltaRecord{LSN: j.nextLSN + uint64(i), Table: r.Table, Rows: r.Rows}); err != nil {
			return 0, fmt.Errorf("engine: encoding delta journal record: %w", err)
		}
	}
	if err := j.writeDurable(buf.Bytes()); err != nil {
		return 0, err
	}
	j.nextLSN += uint64(len(recs))
	return j.nextLSN - 1, nil
}

// RecordsSince re-reads the journal file and returns every record with
// LSN > lsn: the replay suffix past a boot state's watermark.
func (j *FileJournal) RecordsSince(lsn uint64) ([]DeltaRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.Open(j.path)
	if err != nil {
		return nil, fmt.Errorf("engine: reopening delta journal: %w", err)
	}
	defer f.Close()
	s, err := scanJournalFile(f)
	if err != nil {
		return nil, err
	}
	var out []DeltaRecord
	for _, r := range s.records {
		if r.LSN > lsn {
			out = append(out, r)
		}
	}
	return out, nil
}

// compactSuffix names the temporary replacement file Truncate stages next
// to the journal before atomically renaming it into place.
const compactSuffix = ".compact"

// Truncate rewrites the journal keeping only records with LSN > lsn. The
// rewrite is torn-tail safe: the survivors are staged to a temp file, led
// by an LSN-floor line that pins the sequence (so a reopened journal never
// reissues a number it or lsn has named), fsynced, and renamed over the
// live journal. A crash at any point leaves either the complete old file or
// the complete new one.
func (j *FileJournal) Truncate(lsn uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	tmpPath := j.path + compactSuffix
	if err := os.Remove(tmpPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("engine: removing stale journal compaction file: %w", err)
	}
	rf, err := os.Open(j.path)
	if err != nil {
		return fmt.Errorf("engine: reopening delta journal for compaction: %w", err)
	}
	s, err := scanJournalFile(rf)
	rf.Close()
	if err != nil {
		return err
	}
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("engine: staging journal compaction: %w", err)
	}
	floor := max(lsn, j.nextLSN-1)
	enc := json.NewEncoder(tmp)
	werr := enc.Encode(journalLine{T: "c", LSN: floor})
	for _, r := range s.records {
		if werr != nil {
			break
		}
		if r.LSN > lsn {
			werr = encodeDelta(enc, r)
		}
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("engine: writing journal compaction: %w", werr)
	}
	// Crash point: the replacement is staged but not yet live. An injected
	// error here abandons the compaction — the original journal is intact
	// and the temp file is swept on the next open or Truncate.
	if err := j.inj.Hit(fault.SiteJournalTruncate); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		return fmt.Errorf("engine: committing journal compaction: %w", err)
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	// Swap the write handle to the new file.
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("engine: reopening compacted journal: %w", err)
	}
	tail, err := nf.Seek(0, io.SeekEnd)
	if err != nil {
		nf.Close()
		return err
	}
	j.f.Close()
	j.f, j.tail = nf, tail
	j.nextLSN = floor + 1
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("engine: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("engine: syncing dir: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
