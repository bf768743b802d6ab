package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

func segScratchTable(t *testing.T, blockRows int, schema *algebra.Schema, rows [][]algebra.Value) *Table {
	t.Helper()
	tb := NewTable("T", schema, blockRows)
	if len(rows) > 0 {
		if err := tb.Insert(rows...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// requireSameTable asserts two tables are bit-identical: same name, blocking
// factor, schema, and every value (kind included) in every row.
func requireSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Name != want.Name || got.BlockRows != want.BlockRows {
		t.Fatalf("identity: got (%s, block %d), want (%s, block %d)",
			got.Name, got.BlockRows, want.Name, want.BlockRows)
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema: got %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: got %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		g, w := got.rowValues(i), want.rowValues(i)
		for c := range w {
			if g[c].Kind != w[c].Kind {
				t.Fatalf("row %d col %d: got %#v, want %#v", i, c, g[c], w[c])
			}
			if !g[c].IsValid() && !w[c].IsValid() {
				continue // NULL = NULL only for identity checks like this one
			}
			if !g[c].Equal(w[c]) {
				t.Fatalf("row %d col %d: got %#v, want %#v", i, c, g[c], w[c])
			}
		}
	}
}

func segRoundTrip(t *testing.T, tb *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteTableSegment(&buf, tb)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTableSegment reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTableSegment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSegmentRoundTripTyped(t *testing.T) {
	schema := algebra.NewSchema(
		algebra.Column{Relation: "R", Name: "id", Type: algebra.TypeInt},
		algebra.Column{Relation: "R", Name: "price", Type: algebra.TypeFloat},
		algebra.Column{Relation: "R", Name: "city", Type: algebra.TypeString},
		algebra.Column{Relation: "R", Name: "day", Type: algebra.TypeDate},
	)
	var rows [][]algebra.Value
	for i := 0; i < 23; i++ {
		row := []algebra.Value{
			algebra.IntVal(int64(i - 5)),
			algebra.FloatVal(float64(i) * 1.25),
			algebra.StringVal("São Paulo"),
			algebra.DateVal(20260101 + int64(i)),
		}
		if i%5 == 0 {
			row[1] = algebra.Value{} // null floats, including row 0
		}
		if i%7 == 3 {
			row[2] = algebra.Value{} // null strings off-phase from the floats
		}
		rows = append(rows, row)
	}
	tb := segScratchTable(t, 4, schema, rows)
	requireSameTable(t, segRoundTrip(t, tb), tb)
}

// TestSegmentGenericPayloadIsCorrupt: testdata/generic_column.seg is a
// segment of R(k int, v string) written by the encoder that still had the
// generic column representation (tag 1), its v holding "a", 99, NULL and
// 2.5. No column has that representation any more, so the payload decodes
// as ErrSegmentCorrupt, and recovery recomputes the relation. So does a
// typed payload whose kind is not its column's declared type.
func TestSegmentGenericPayloadIsCorrupt(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "generic_column.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTableSegment(bytes.NewReader(b)); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("a generic column payload decoded with error %v, want ErrSegmentCorrupt", err)
	}

	c := &colvec{}
	for i := range 3 {
		c.append(algebra.IntVal(int64(i)))
	}
	payload, err := encodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := new(colvec).decode(payload, algebra.TypeInt, 3, 3); err != nil {
		t.Fatalf("an int payload in an int column: %v", err)
	}
	for _, typ := range []algebra.Type{algebra.TypeDate, algebra.TypeFloat, algebra.TypeString} {
		if err := new(colvec).decode(payload, typ, 3, 3); !errors.Is(err, ErrSegmentCorrupt) {
			t.Errorf("an int payload in a %s column decoded with error %v, want ErrSegmentCorrupt", typ, err)
		}
	}
}

func TestSegmentRoundTripEmptyAndAllNull(t *testing.T) {
	schema := algebra.NewSchema(
		algebra.Column{Relation: "R", Name: "a", Type: algebra.TypeInt},
		algebra.Column{Relation: "R", Name: "b", Type: algebra.TypeString},
	)
	t.Run("empty", func(t *testing.T) {
		tb := segScratchTable(t, 4, schema, nil)
		requireSameTable(t, segRoundTrip(t, tb), tb)
	})
	t.Run("all-null column", func(t *testing.T) {
		// A column that only ever saw nulls is kindless (kind 0, no payload).
		rows := [][]algebra.Value{
			{algebra.IntVal(1), algebra.Value{}},
			{algebra.IntVal(2), algebra.Value{}},
		}
		tb := segScratchTable(t, 4, schema, rows)
		requireSameTable(t, segRoundTrip(t, tb), tb)
	})
}

// TestSegmentCorruptionExhaustive flips every bit-position's byte and cuts
// the segment at every length: each mutation must surface as
// ErrSegmentCorrupt — never a panic, never a silently wrong table.
func TestSegmentCorruptionExhaustive(t *testing.T) {
	schema := algebra.NewSchema(
		algebra.Column{Relation: "R", Name: "id", Type: algebra.TypeInt},
		algebra.Column{Relation: "R", Name: "name", Type: algebra.TypeString},
	)
	rows := [][]algebra.Value{
		{algebra.IntVal(1), algebra.StringVal("alpha")},
		{algebra.IntVal(2), algebra.Value{}},
		{algebra.IntVal(3), algebra.StringVal("gamma")},
	}
	tb := segScratchTable(t, 2, schema, rows)
	var buf bytes.Buffer
	if _, err := WriteTableSegment(&buf, tb); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bit flips", func(t *testing.T) {
		for off := 0; off < len(good); off++ {
			mut := append([]byte(nil), good...)
			mut[off] ^= 0x40
			if _, err := ReadTableSegment(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at offset %d went undetected", off)
			} else if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("bit flip at offset %d: error %v does not wrap ErrSegmentCorrupt", off, err)
			}
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			if _, err := ReadTableSegment(bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation to %d bytes went undetected", n)
			} else if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("truncation to %d bytes: error %v does not wrap ErrSegmentCorrupt", n, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), good...), 0xEE)
		if _, err := ReadTableSegment(bytes.NewReader(mut)); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("trailing byte: got %v, want ErrSegmentCorrupt", err)
		}
	})
}

func encodeSegment(t *testing.T, tb *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteTableSegment(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeTableSegmentsJoinsSlices cuts a table into three slices at every
// pair of cut points, one segment each, and decodes them as one relation: the
// same segment bytes as the table's, so the same rows in order, float bits,
// null bitmaps and column representations. Then the case a store meets when
// a column took its first values between two checkpoints: an all-null,
// kindless segment followed by typed rows of the same column.
func TestDecodeTableSegmentsJoinsSlices(t *testing.T) {
	tb := claimTable(t, 1, 70)
	want := encodeSegment(t, tb)
	for a := 0; a <= 70; a += 7 {
		for b := a; b <= 70; b += 11 {
			parts := []*Table{tb.Slice(0, a), tb.Slice(a, b), tb.Slice(b, 70)}
			var segs [][]byte
			var rows []int
			for _, p := range parts {
				segs = append(segs, encodeSegment(t, p))
				rows = append(rows, p.NumRows())
			}
			got, err := DecodeTableSegments(segs, rows)
			if err != nil {
				t.Fatalf("cut at %d and %d: %v", a, b, err)
			}
			if !bytes.Equal(encodeSegment(t, got), want) {
				t.Fatalf("cut at %d and %d: the joined table encodes differently", a, b)
			}
		}
	}

	schema := algebra.NewSchema(algebra.Column{Relation: "R", Name: "v", Type: algebra.TypeInt},
		algebra.Column{Relation: "R", Name: "s", Type: algebra.TypeString})
	null := []algebra.Value{{}, {}}
	kindless := segScratchTable(t, 4, schema, [][]algebra.Value{null, null})
	typed := segScratchTable(t, 4, schema, [][]algebra.Value{{algebra.IntVal(3), algebra.StringVal("x")}, null,
		{algebra.IntVal(5), algebra.StringVal("")}})
	whole := segScratchTable(t, 4, schema, append([][]algebra.Value{null, null}, typed.materializeRows()...))
	got, err := DecodeTableSegments([][]byte{encodeSegment(t, kindless), encodeSegment(t, typed)}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSegment(t, got), encodeSegment(t, whole)) {
		t.Fatal("an all-null segment followed by typed rows does not decode to the column that took both")
	}
	requireSameTable(t, got, whole)
	if _, err := DecodeTableSegments([][]byte{encodeSegment(t, typed)}, []int{2}); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("a segment of 3 rows read as 2: %v", err)
	}
}

// FuzzReadTableSegment: for any bytes, the decoder either returns an error
// that wraps ErrSegmentCorrupt or a table that re-encodes to exactly those
// bytes — never a panic, never a table the encoder would write differently —
// and whose catalog entry is the reference's. The seeds are valid segments
// of every storage representation, and a segment of the generic one that
// columns no longer have (see TestSegmentGenericPayloadIsCorrupt).
func FuzzReadTableSegment(f *testing.F) {
	schema := algebra.NewSchema(
		algebra.Column{Relation: "R", Name: "id", Type: algebra.TypeInt},
		algebra.Column{Relation: "R", Name: "name", Type: algebra.TypeString},
		algebra.Column{Relation: "R", Name: "price", Type: algebra.TypeFloat},
	)
	seeds := [][][]algebra.Value{
		nil,
		{{algebra.IntVal(1), algebra.StringVal("alpha"), algebra.FloatVal(1.5)}},
		{{algebra.IntVal(2), {}, {}}, {algebra.IntVal(3), algebra.StringVal("γ"), algebra.FloatVal(-0.0)}},
		{{algebra.IntVal(4), {}, {}}, {algebra.IntVal(6), {}, {}}},
	}
	// The last seed's null names carry placeholders other than "": one no
	// row holds, above every value, and one a row holds too.
	seeds = append(seeds, [][]algebra.Value{
		{algebra.IntVal(7), {}, {}}, {algebra.IntVal(8), algebra.StringVal("b"), {}}, {algebra.IntVal(9), {}, algebra.FloatVal(2)},
	})
	for si, rows := range seeds {
		tb := NewTable("T", schema, 3)
		if err := tb.Insert(rows...); err != nil {
			f.Fatal(err)
		}
		if si == len(seeds)-1 {
			names := tb.cols[1]
			names.codes[0], names.codes[2] = names.code("zz"), names.code("b")
		}
		var buf bytes.Buffer
		if _, err := WriteTableSegment(&buf, tb); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	generic, err := os.ReadFile(filepath.Join("testdata", "generic_column.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(generic)
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := ReadTableSegment(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("error %v does not wrap ErrSegmentCorrupt", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := WriteTableSegment(&buf, tb); err != nil {
			t.Fatalf("a decoded table does not encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("decoded %d bytes into a table that encodes to %d other bytes", len(data), buf.Len())
		}
		if got, want := TableStats(tb.Name, tb), referenceRelationStats(tb.Name, tb); !identicalRelation(got, want) {
			t.Fatalf("a decoded table's statistics differ from the reference\n got: %+v\nwant: %+v", got.Attrs, want.Attrs)
		}
	})
}

func TestRestoreTableAndView(t *testing.T) {
	schema := algebra.NewSchema(
		algebra.Column{Relation: "R", Name: "a", Type: algebra.TypeInt},
	)
	tb := segScratchTable(t, 4, schema, [][]algebra.Value{{algebra.IntVal(7)}})
	tb.Name = "R"

	db := NewDB(4)
	if err := db.RestoreTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := db.RestoreTable(tb); err == nil {
		t.Error("duplicate RestoreTable accepted")
	}
	if err := db.RestoreTable(nil); err == nil {
		t.Error("nil RestoreTable accepted")
	}

	plan := algebra.NewScan("R", schema)
	vt := segRoundTrip(t, tb)
	if _, err := db.RestoreView("V", plan, vt); err != nil {
		t.Fatal(err)
	}
	v, err := db.View("V")
	if err != nil {
		t.Fatal(err)
	}
	if v.Table().NumRows() != 1 {
		t.Errorf("restored view rows = %d, want 1", v.Table().NumRows())
	}
	if _, err := db.RestoreView("V", plan, vt); err == nil {
		t.Error("duplicate RestoreView accepted")
	}
	// Schema mismatch: a segment that does not belong to this definition.
	other := algebra.NewSchema(
		algebra.Column{Relation: "R", Name: "z", Type: algebra.TypeString},
	)
	ot := segScratchTable(t, 4, other, nil)
	if _, err := db.RestoreView("W", plan, ot); err == nil {
		t.Error("schema-mismatched RestoreView accepted")
	}
}
