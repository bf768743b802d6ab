package engine

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

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
// the colvec representation directly: typed columns write their bare
// int64/float64/string payload (plus the null bitmap when any row is null),
// generic columns write each algebra.Value verbatim. Decoding rebuilds the
// exact colvec state, so a restored table is bit-identical to the
// checkpointed one — including null placement and generic demotion.

const segMagic = "MVSEGv1\n"

// maxFrameBytes bounds a single frame so a corrupt length prefix cannot ask
// the decoder to allocate gigabytes.
const maxFrameBytes = 1 << 30

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

func readFrame(r io.Reader) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, corruptf("truncated frame length: %v", err)
	}
	n := binary.LittleEndian.Uint32(pre[:])
	if n > maxFrameBytes {
		return nil, corruptf("frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, corruptf("truncated frame payload: %v", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, corruptf("truncated frame checksum: %v", err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(sum[:]); got != want {
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
	hdr := segHeader{Name: t.Name, BlockRows: t.BlockRows, Rows: t.nrows,
		Columns: make([]segCol, t.Schema.Len())}
	for i, c := range t.Schema.Columns {
		hdr.Columns[i] = segCol{Relation: c.Relation, Name: c.Name, Type: int(c.Type)}
	}
	hb, err := json.Marshal(hdr)
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
// headers, payload/row-count disagreements — returns an error wrapping
// ErrSegmentCorrupt.
func ReadTableSegment(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, corruptf("missing magic: %v", err)
	}
	if string(magic) != segMagic {
		return nil, corruptf("bad magic %q", magic)
	}
	hb, err := readFrame(br)
	if err != nil {
		return nil, err
	}
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
	t := &Table{
		Name:      hdr.Name,
		Schema:    algebra.NewSchema(cols...),
		BlockRows: hdr.BlockRows,
		nrows:     hdr.Rows,
		cols:      make([]*colvec, len(cols)),
	}
	for ci := range t.cols {
		payload, err := readFrame(br)
		if err != nil {
			return nil, err
		}
		cv, err := decodeColumn(payload, hdr.Rows)
		if err != nil {
			return nil, fmt.Errorf("%w (column %s of %s)", err, hdr.Columns[ci].Name, hdr.Name)
		}
		t.cols[ci] = cv
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, corruptf("trailing bytes after last column frame")
	}
	return t, nil
}

// Column payload layout. Byte 0 is the representation tag:
//
//	0 (typed)    varint kind | uvarint numNulls
//	             [⌈n/64⌉ uint64le bitmap words, when numNulls > 0]
//	             payload: n × int64le (int/date), n × float64 bits (float),
//	             n × (uvarint len + bytes) (string), nothing (kindless)
//	1 (generic)  n × (varint kind | varint int | float64 bits |
//	             uvarint len + bytes) — every Value field, verbatim
const (
	colReprTyped   = 0
	colReprGeneric = 1
)

func encodeColumn(c *colvec) ([]byte, error) {
	if c.vals != nil {
		buf := make([]byte, 0, 1+16*c.n)
		buf = append(buf, colReprGeneric)
		for _, v := range c.vals {
			buf = binary.AppendVarint(buf, int64(v.Kind))
			buf = binary.AppendVarint(buf, v.Int)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
			buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
			buf = append(buf, v.Str...)
		}
		return buf, nil
	}
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
		if len(c.strs) != c.n {
			return nil, fmt.Errorf("string payload length %d != rows %d", len(c.strs), c.n)
		}
		for _, s := range c.strs {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	default:
		return nil, fmt.Errorf("unsupported typed column kind %d", c.kind)
	}
	return buf, nil
}

// byteCursor walks a column payload with corruption-typed errors.
type byteCursor struct {
	b   []byte
	off int
}

func (r *byteCursor) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, corruptf("truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, corruptf("truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
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

func decodeColumn(payload []byte, rows int) (*colvec, error) {
	if len(payload) == 0 {
		return nil, corruptf("empty column payload")
	}
	cur := &byteCursor{b: payload, off: 1}
	switch payload[0] {
	case colReprGeneric:
		c := &colvec{}
		for i := 0; i < rows; i++ {
			kind, err := cur.varint()
			if err != nil {
				return nil, err
			}
			iv, err := cur.varint()
			if err != nil {
				return nil, err
			}
			bits, err := cur.uint64()
			if err != nil {
				return nil, err
			}
			slen, err := cur.uvarint()
			if err != nil {
				return nil, err
			}
			sb, err := cur.bytes(slen)
			if err != nil {
				return nil, err
			}
			v := algebra.Value{Kind: algebra.Type(kind), Int: iv,
				Float: math.Float64frombits(bits), Str: string(sb)}
			c.vals = append(c.vals, v)
			if !v.IsValid() {
				c.nulls = bitSet(c.nulls, c.n)
				c.numNulls++
			}
			c.n++
		}
		if cur.off != len(payload) {
			return nil, corruptf("trailing bytes in generic column payload")
		}
		return c, nil
	case colReprTyped:
		kind, err := cur.varint()
		if err != nil {
			return nil, err
		}
		numNulls, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if numNulls > uint64(rows) {
			return nil, corruptf("null count %d exceeds row count %d", numNulls, rows)
		}
		c := &colvec{kind: algebra.Type(kind), n: rows, numNulls: int(numNulls)}
		if numNulls > 0 {
			words := (rows + 63) / 64
			c.nulls = make([]uint64, words)
			for i := 0; i < words; i++ {
				w, err := cur.uint64()
				if err != nil {
					return nil, err
				}
				c.nulls[i] = w
			}
			set := 0
			for i := 0; i < rows; i++ {
				if bitGet(c.nulls, i) {
					set++
				}
			}
			if set != int(numNulls) {
				return nil, corruptf("null bitmap population %d != recorded count %d", set, numNulls)
			}
		}
		switch c.kind {
		case 0:
			if int(numNulls) != rows {
				return nil, corruptf("kindless column with %d non-null rows", rows-int(numNulls))
			}
		case algebra.TypeInt, algebra.TypeDate:
			c.ints = make([]int64, rows)
			for i := range c.ints {
				v, err := cur.uint64()
				if err != nil {
					return nil, err
				}
				c.ints[i] = int64(v)
			}
		case algebra.TypeFloat:
			c.floats = make([]float64, rows)
			for i := range c.floats {
				v, err := cur.uint64()
				if err != nil {
					return nil, err
				}
				c.floats[i] = math.Float64frombits(v)
			}
		case algebra.TypeString:
			c.strs = make([]string, rows)
			for i := range c.strs {
				slen, err := cur.uvarint()
				if err != nil {
					return nil, err
				}
				sb, err := cur.bytes(slen)
				if err != nil {
					return nil, err
				}
				c.strs[i] = string(sb)
			}
		default:
			return nil, corruptf("unknown typed column kind %d", kind)
		}
		if cur.off != len(payload) {
			return nil, corruptf("trailing bytes in typed column payload")
		}
		return c, nil
	default:
		return nil, corruptf("unknown column representation %d", payload[0])
	}
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
