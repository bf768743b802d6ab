package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// Columnar segment file format (the snapshot store's on-disk unit):
//
//	magic "MVSEGv1\n"
//	frame(header JSON)            name, blocking factor, row count, schema
//	frame(column 0 payload)       one frame per schema column
//	...
//	frame(column k-1 payload)
//
// Every frame is length-prefixed and checksummed —
//
//	uint32le length | payload | uint32le CRC32C(payload)
//
// — so a torn write (crash mid-frame) is detected by the short read and a
// bit flip anywhere in a payload by the checksum. Column payloads serialize
// the colvec representation directly: the column's bare int64/float64/string
// payload, plus the null bitmap when any row is null. Decoding rebuilds the
// exact colvec state, so a restored table is bit-identical to the
// checkpointed one, null placement included.

const segMagic = "MVSEGv1\n"

// ErrSegmentCorrupt marks every decode failure that means the segment's
// bytes cannot be trusted — torn frames, checksum mismatches, malformed
// headers. Recovery treats it (like any other decode error) as "recompute
// instead".
var ErrSegmentCorrupt = errors.New("engine: corrupt table segment")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSegmentCorrupt, fmt.Sprintf(format, args...))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segHeader is the JSON payload of a segment's first frame.
type segHeader struct {
	Name      string   `json:"name"`
	BlockRows int      `json:"block_rows"`
	Rows      int      `json:"rows"`
	Columns   []segCol `json:"columns"`
}

type segCol struct {
	Relation string `json:"rel,omitempty"`
	Name     string `json:"name"`
	Type     int    `json:"type"`
}

// headerOf is the header frame's payload for t.
func headerOf(t *Table) ([]byte, error) {
	hdr := segHeader{Name: t.Name, BlockRows: t.BlockRows, Rows: t.nrows,
		Columns: make([]segCol, t.Schema.Len())}
	for i, c := range t.Schema.Columns {
		hdr.Columns[i] = segCol{Relation: c.Relation, Name: c.Name, Type: int(c.Type)}
	}
	return json.Marshal(hdr)
}

func writeFrame(w io.Writer, payload []byte) (int64, error) {
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(len(payload)))
	if _, err := w.Write(pre[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(sum[:]); err != nil {
		return 0, err
	}
	return int64(8 + len(payload)), nil
}

// frame reads the next frame's payload off the cursor: a slice of the
// segment's bytes, checked against its checksum.
func (r *byteCursor) frame() ([]byte, error) {
	pre, err := r.bytes(4)
	if err != nil {
		return nil, corruptf("truncated frame length at offset %d", r.off)
	}
	payload, err := r.bytes(uint64(binary.LittleEndian.Uint32(pre)))
	if err != nil {
		return nil, corruptf("truncated frame payload at offset %d", r.off)
	}
	sum, err := r.bytes(4)
	if err != nil {
		return nil, corruptf("truncated frame checksum at offset %d", r.off)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(sum); got != want {
		return nil, corruptf("frame checksum mismatch (crc %08x, stored %08x)", got, want)
	}
	return payload, nil
}

// WriteTableSegment serializes the table to w in the columnar segment
// format and returns the number of bytes written.
func WriteTableSegment(w io.Writer, t *Table) (int64, error) {
	total := int64(0)
	n, err := io.WriteString(w, segMagic)
	total += int64(n)
	if err != nil {
		return total, err
	}
	hb, err := headerOf(t)
	if err != nil {
		return total, err
	}
	fn, err := writeFrame(w, hb)
	total += fn
	if err != nil {
		return total, err
	}
	for ci, c := range t.cols {
		payload, err := encodeColumn(c)
		if err != nil {
			return total, fmt.Errorf("engine: encoding column %s of %s: %w",
				t.Schema.Columns[ci].Name, t.Name, err)
		}
		fn, err := writeFrame(w, payload)
		total += fn
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadTableSegment decodes a columnar segment written by WriteTableSegment.
// Any structural damage — torn frames, checksum mismatches, malformed
// headers, payload/row-count disagreements, a failure to read r — returns an
// error wrapping ErrSegmentCorrupt, and so does any encoding
// WriteTableSegment would not have written (a header in another JSON
// spelling, a non-minimal varint, a null bit past the last row): a segment
// that decodes re-encodes to exactly its bytes. Sizes are checked against
// the bytes at hand before anything is allocated for them.
func ReadTableSegment(r io.Reader) (*Table, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, corruptf("reading segment: %v", err)
	}
	return decodeSegments([][]byte{b}, []int{-1})
}

// DecodeTableSegments decodes a relation persisted as several segments into
// one table: the rows of the first segment, then those of each later one;
// rows[i] is the row count segment i must hold. Every later segment must
// carry the first one's header but for its row count — compared, not
// parsed — and all of them decode straight into one table's columns,
// allocated once at their final size.
func DecodeTableSegments(segs [][]byte, rows []int) (*Table, error) {
	if len(segs) == 0 || len(rows) != len(segs) || slices.Min(rows) < 0 {
		return nil, corruptf("%d segments for row counts %v", len(segs), rows)
	}
	return decodeSegments(segs, rows)
}

// decodeSegments reads every segment's header first, then appends every
// segment's columns to the table's. A row count of -1 takes the header's.
func decodeSegments(segs [][]byte, rows []int) (*Table, error) {
	type part struct {
		cur  *byteCursor
		rows int
	}
	parts := make([]part, len(segs))
	var t *Table
	var next func(hb []byte, rows int) (*Table, error)
	total := 0
	for i, b := range segs {
		if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
			return nil, corruptf("missing or bad magic")
		}
		cur := &byteCursor{b: b, off: len(segMagic)}
		hb, err := cur.frame()
		if err != nil {
			return nil, err
		}
		var h *Table
		if i == 0 {
			if h, err = parseHeader(hb); err == nil && rows[0] >= 0 && h.nrows != rows[0] {
				err = corruptf("%s holds %d rows, not %d", h.Name, h.nrows, rows[0])
			}
			if err == nil {
				next = continuation(h)
				t = &Table{Name: h.Name, Schema: h.Schema, BlockRows: h.BlockRows, cols: make([]*colvec, h.Schema.Len())}
				for ci := range t.cols {
					t.cols[ci] = &colvec{}
				}
			}
		} else {
			h, err = next(hb, rows[i])
		}
		if err != nil {
			return nil, err
		}
		// Every column spends a bit on each row at least: a larger count is
		// damage, found before the columns are allocated for it.
		if len(t.cols) > 0 && h.nrows > 8*(len(b)-cur.off) {
			return nil, corruptf("%d rows in a segment of %d bytes", h.nrows, len(b))
		}
		parts[i] = part{cur, h.nrows}
		total += h.nrows
	}
	for _, p := range parts {
		for ci := range t.cols {
			payload, err := p.cur.frame()
			if err != nil {
				return nil, err
			}
			if err = t.cols[ci].decode(payload, t.Schema.Columns[ci].Type, p.rows, total); err != nil {
				return nil, fmt.Errorf("%w (column %s of %s)", err, t.Schema.Columns[ci].Name, t.Name)
			}
		}
		if p.cur.off != len(p.cur.b) {
			return nil, corruptf("trailing bytes after last column frame")
		}
		t.nrows += p.rows
	}
	return t, nil
}

// parseHeader decodes a header frame into the (column-less) table it
// describes; it must be that table's canonical encoding.
func parseHeader(hb []byte) (*Table, error) {
	var hdr segHeader
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return nil, corruptf("malformed header: %v", err)
	}
	if hdr.Rows < 0 || hdr.BlockRows <= 0 || hdr.Name == "" {
		return nil, corruptf("implausible header (rows %d, block_rows %d, name %q)",
			hdr.Rows, hdr.BlockRows, hdr.Name)
	}
	cols := make([]algebra.Column, len(hdr.Columns))
	for i, c := range hdr.Columns {
		cols[i] = algebra.Column{Relation: c.Relation, Name: c.Name, Type: algebra.Type(c.Type)}
	}
	t := &Table{Name: hdr.Name, Schema: algebra.NewSchema(cols...), BlockRows: hdr.BlockRows, nrows: hdr.Rows}
	if canon, err := headerOf(t); err != nil || !bytes.Equal(canon, hb) {
		return nil, corruptf("header is not in its canonical encoding")
	}
	return t, nil
}

// continuation returns the header check of a later segment of t's relation:
// t's canonical header with the segment's row count, compared in three
// pieces so nothing is encoded per segment. The row count's key is found
// where the canonical encoding puts it; no string value can hide the
// sequence, since JSON escapes a string's quotes.
func continuation(t *Table) func(hb []byte, rows int) (*Table, error) {
	canon, _ := headerOf(&Table{Name: t.Name, Schema: t.Schema, BlockRows: t.BlockRows})
	key := []byte(`,"rows":`)
	at := bytes.Index(canon, append(key, '0', ',')) + len(key)
	prefix, suffix := canon[:at], canon[at+1:]
	return func(hb []byte, rows int) (*Table, error) {
		var digits [20]byte
		mid, ok := bytes.CutPrefix(hb, prefix)
		if mid, ok2 := bytes.CutSuffix(mid, suffix); !ok || !ok2 || !bytes.Equal(mid, strconv.AppendInt(digits[:0], int64(rows), 10)) {
			return nil, corruptf("a segment's header does not continue %s with %d rows", t.Name, rows)
		}
		return &Table{Name: t.Name, Schema: t.Schema, BlockRows: t.BlockRows, nrows: rows}, nil
	}
}

// Column payload layout. Byte 0 is the representation tag:
//
//	0 (typed)    varint kind | uvarint numNulls
//	             [⌈n/64⌉ uint64le bitmap words, when numNulls > 0]
//	             payload: n × int64le (int/date), n × float64 bits (float),
//	             n × (uvarint len + bytes) (string), nothing (kindless)
//
// Tag 1 was a generic column's value-by-value encoding, which no column has
// any more: a payload carrying it is refused as corrupt, and recovery
// recomputes the relation. A typed payload's kind must be its column's
// declared type.
const colReprTyped = 0

func encodeColumn(c *colvec) ([]byte, error) {
	buf := make([]byte, 0, 16+9*c.n)
	buf = append(buf, colReprTyped)
	buf = binary.AppendVarint(buf, int64(c.kind))
	buf = binary.AppendUvarint(buf, uint64(c.numNulls))
	if c.numNulls > 0 {
		words := (c.n + 63) / 64
		for i := 0; i < words; i++ {
			var w uint64
			if i < len(c.nulls) {
				w = c.nulls[i]
			}
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	switch c.kind {
	case 0:
		// Kindless: empty or all-null; the bitmap is the whole payload.
	case algebra.TypeInt, algebra.TypeDate:
		if len(c.ints) != c.n {
			return nil, fmt.Errorf("int payload length %d != rows %d", len(c.ints), c.n)
		}
		for _, v := range c.ints {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	case algebra.TypeFloat:
		if len(c.floats) != c.n {
			return nil, fmt.Errorf("float payload length %d != rows %d", len(c.floats), c.n)
		}
		for _, v := range c.floats {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case algebra.TypeString:
		if len(c.codes) != c.n {
			return nil, fmt.Errorf("string payload length %d != rows %d", len(c.codes), c.n)
		}
		for i := 0; i < c.n; i++ {
			s := c.strAt(i)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	default:
		return nil, fmt.Errorf("unsupported typed column kind %d", c.kind)
	}
	return buf, nil
}

// byteCursor walks a segment or a column payload with corruption-typed
// errors.
type byteCursor struct {
	b   []byte
	off int
}

// varintLen checks that a varint of n bytes is in its shortest form (a
// longer one ends in a zero byte) and moves past it.
func (r *byteCursor) varintLen(n int) error {
	if n <= 0 {
		return corruptf("truncated varint at offset %d", r.off)
	}
	if n > 1 && r.b[r.off+n-1] == 0 {
		return corruptf("non-minimal varint at offset %d", r.off)
	}
	r.off += n
	return nil
}

func (r *byteCursor) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	return v, r.varintLen(n)
}

func (r *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	return v, r.varintLen(n)
}

func (r *byteCursor) uint64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, corruptf("truncated uint64 at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteCursor) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, corruptf("truncated byte run (%d wanted) at offset %d", n, r.off)
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

// decode appends one column payload of rows rows, of a column declared of
// type typ, to c; want is the row count the column will reach, the capacity
// its payload gets when this payload holds its first values.
func (c *colvec) decode(payload []byte, typ algebra.Type, rows, want int) error {
	if len(payload) == 0 {
		return corruptf("empty column payload")
	}
	// Every encoding spends at least a bit on each row: a row count past
	// that is damage, found before it is allocated.
	if uint64(rows) > 8*uint64(len(payload)) {
		return corruptf("%d rows in a column payload of %d bytes", rows, len(payload))
	}
	if payload[0] != colReprTyped {
		return corruptf("unknown column representation %d", payload[0])
	}
	cur := &byteCursor{b: payload, off: 1}
	v, err := cur.varint()
	if err != nil {
		return err
	}
	kind := algebra.Type(v)
	numNulls, err := cur.uvarint()
	if err != nil {
		return err
	}
	if numNulls > uint64(rows) {
		return corruptf("null count %d exceeds row count %d", numNulls, rows)
	}
	var nulls []uint64
	if numNulls > 0 {
		words := (rows + 63) / 64
		nulls = make([]uint64, words)
		set := 0
		for i := range nulls {
			if nulls[i], err = cur.uint64(); err != nil {
				return err
			}
			set += bits.OnesCount64(nulls[i])
		}
		if tail := uint(rows & 63); tail != 0 && nulls[words-1]>>tail != 0 {
			return corruptf("null bit set past the last row")
		}
		if set != int(numNulls) {
			return corruptf("null bitmap population %d != recorded count %d", set, numNulls)
		}
	}
	left := len(payload) - cur.off
	switch kind {
	case 0:
		if int(numNulls) != rows {
			return corruptf("kindless column with %d non-null rows", rows-int(numNulls))
		}
	case algebra.TypeInt, algebra.TypeDate, algebra.TypeFloat:
		if rows > left/8 {
			return corruptf("%d values in %d payload bytes", rows, left)
		}
	case algebra.TypeString:
		if rows > left {
			return corruptf("%d strings in %d payload bytes", rows, left)
		}
	default:
		return corruptf("unknown typed column kind %d", kind)
	}
	if kind != 0 && kind != typ {
		return corruptf("a %s payload in a column declared %s", kind, typ)
	}
	if c.kind == 0 && kind != 0 {
		c.adoptKind(kind, want) // the payload's first values
	}
	// A kindless payload holds no values: zero placeholders under c's kind.
	switch c.kind {
	case algebra.TypeInt, algebra.TypeDate:
		for i := 0; i < rows; i++ {
			var v uint64
			if kind != 0 {
				v, _ = cur.uint64()
			}
			c.ints = append(c.ints, int64(v))
		}
	case algebra.TypeFloat:
		for i := 0; i < rows; i++ {
			var v uint64
			if kind != 0 {
				v, _ = cur.uint64()
			}
			c.floats = append(c.floats, math.Float64frombits(v))
		}
	case algebra.TypeString:
		for i := 0; i < rows; i++ {
			var sb []byte
			if kind != 0 {
				slen, err := cur.uvarint()
				if err != nil {
					return err
				}
				if sb, err = cur.bytes(slen); err != nil {
					return err
				}
			}
			// A string the dictionary holds is looked up without
			// being copied out of the payload.
			code, ok := c.index[string(sb)]
			if !ok {
				code = c.code(string(sb))
			}
			c.codes = append(c.codes, code)
		}
	}
	if cur.off != len(payload) {
		return corruptf("trailing bytes in typed column payload")
	}
	if numNulls > 0 {
		c.nulls = orBits(c.nulls, c.n, nulls, rows)
		c.numNulls += int(numNulls)
	}
	c.n += rows
	return nil
}

// RestoreTable installs a decoded base table wholesale — the snapshot
// recovery path's replacement for CreateTable + Insert. Like CreateTable it
// belongs to the setup phase: call it before the DB is shared.
func (db *DB) RestoreTable(t *Table) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("engine: cannot restore an unnamed table")
	}
	return db.addTable(t)
}

// RestoreView installs a decoded view table under its defining plan without
// executing the plan — the snapshot recovery path's replacement for
// Materialize. The table's schema must match the plan's (a mismatch means
// the segment does not belong to this definition; recompute instead).
func (db *DB) RestoreView(name string, plan algebra.Node, t *Table) (*MaterializedView, error) {
	if !plan.Schema().Equal(t.Schema) {
		return nil, fmt.Errorf("engine: restored table schema %v does not match plan schema %v of view %s",
			t.Schema, plan.Schema(), name)
	}
	ep := db.BeginMaintenance()
	v, err := ep.addView(name, plan, t)
	if err != nil {
		return nil, err
	}
	return v, ep.Commit()
}
