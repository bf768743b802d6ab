package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// kindsSchema declares one column of every type.
var kindsSchema = algebra.NewSchema(
	algebra.Column{Relation: "K", Name: "i", Type: algebra.TypeInt},
	algebra.Column{Relation: "K", Name: "f", Type: algebra.TypeFloat},
	algebra.Column{Relation: "K", Name: "s", Type: algebra.TypeString},
	algebra.Column{Relation: "K", Name: "d", Type: algebra.TypeDate},
)

// insertKindsValue decodes one value of any kind from a selector and 8
// payload bytes: the selector's low 3 bits pick the null, a value of each
// type (any float bits, NaN payloads and −0 included; any string bytes,
// invalid UTF-8 included, sel>>3 of them), a value of an unknown kind with
// its payload, or a kindless value with payload bits set.
func insertKindsValue(sel byte, payload []byte) algebra.Value {
	bits := binary.LittleEndian.Uint64(payload)
	switch sel & 7 {
	case 0, 7:
		return algebra.Value{}
	case 1:
		return algebra.IntVal(int64(bits))
	case 2:
		return algebra.FloatVal(math.Float64frombits(bits))
	case 3:
		return algebra.StringVal(string(payload[:sel>>3%9]))
	case 4:
		return algebra.DateVal(int64(bits))
	case 5:
		return algebra.Value{Kind: algebra.Type(5 + sel>>3), Int: int64(bits), Str: string(payload[:1])}
	default:
		return algebra.Value{Int: int64(bits | 1)}
	}
}

// insertKindsRows decodes a batch: per row, a width byte (4 columns, or 3
// or 5 when it says so), then 9 bytes per value.
func insertKindsRows(data []byte) [][]algebra.Value {
	var rows [][]algebra.Value
	for len(data) > 0 && len(rows) < 16 {
		width := 4
		switch data[0] % 16 {
		case 0:
			width = 3
		case 1:
			width = 5
		}
		data = data[1:]
		row := make([]algebra.Value, 0, width)
		for len(row) < width && len(data) >= 9 {
			row = append(row, insertKindsValue(data[0], data[1:9]))
			data = data[9:]
		}
		if len(row) < width {
			break
		}
		rows = append(rows, row)
	}
	return rows
}

// FuzzInsertKinds: Insert accepts a batch exactly when every row is as wide
// as the schema and every value is the null or of its column's declared
// type. A refused batch changes nothing — the row count, every column's
// length, every row and the fingerprint stay as they were; an accepted one
// reads back bit for bit, after the rows already there.
func FuzzInsertKinds(f *testing.F) {
	row := func(vals ...[]byte) []byte {
		out := []byte{2}
		for _, v := range vals {
			out = append(out, v...)
		}
		return out
	}
	val := encodeFuzzRow
	good := row(val(1, 7), val(2, math.Float64bits(1.5)), val(3|4<<3, 0x61ff62), val(4, 9496))
	f.Add(good)
	f.Add(slices.Concat(good, row(val(0, 0), val(2, math.Float64bits(math.NaN())), val(3|3<<3, 0xffc3), val(0, 0))))
	f.Add(slices.Concat(good, row(val(1, 1), val(2, math.Float64bits(math.Copysign(0, -1))), val(3, 0), val(4, 1))))
	f.Add(slices.Concat(good, row(val(4, 7), val(2, 0), val(3, 0), val(4, 0))))         // a date for an int
	f.Add(slices.Concat(good, row(val(1, 7), val(1, 0), val(3, 0), val(4, 0))))         // an int for a float
	f.Add(slices.Concat(good, row(val(1, 7), val(2, 0), val(5, 9), val(4, 0))))         // an unknown kind
	f.Add(slices.Concat(good, row(val(1, 7), val(2, 0), val(3, 0), val(6, 0))))         // a kindless value with payload
	f.Add(slices.Concat(good, []byte{0}, val(1, 1), val(2, 0), val(3, 0)))              // a row too short
	f.Add(slices.Concat(row(val(0, 0), val(0, 0), val(0, 0), val(0, 0)), good))         // nulls first
	f.Add(slices.Concat(good, []byte{1}, bytes.Repeat(val(0, 0), 5)))                   // a row too wide
	f.Add(slices.Concat(row(val(1, 7), val(2, 1), val(3|1<<3, 0x78), val(4, 2)), good)) // two good rows
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewTable("K", kindsSchema, 3)
		first := []algebra.Value{algebra.IntVal(1), algebra.FloatVal(2), algebra.StringVal("x"), algebra.DateVal(3)}
		if err := tb.Insert(first); err != nil {
			t.Fatal(err)
		}
		rows := insertKindsRows(data)
		accept := true
		for _, r := range rows {
			accept = accept && len(r) == kindsSchema.Len()
			for ci := 0; accept && ci < len(r); ci++ {
				v := r[ci]
				accept = v == (algebra.Value{}) || v.IsValid() && v.Kind == kindsSchema.Columns[ci].Type
			}
		}
		before, digest := renderAll(tb), tb.rowsDigest()
		err := tb.Insert(rows...)
		if accept != (err == nil) {
			t.Fatalf("Insert of %#v: error %v, want accepted = %v", rows, err, accept)
		}
		if err != nil {
			if got := renderAll(tb); fmt.Sprint(got) != fmt.Sprint(before) || tb.rowsDigest() != digest || tb.Fingerprint() != digest {
				t.Fatalf("a refused batch changed the table:\n%v\nwas\n%v", got, before)
			}
			for ci, c := range tb.cols {
				if c.n != tb.NumRows() {
					t.Fatalf("a refused batch left column %d with %d rows of %d", ci, c.n, tb.NumRows())
				}
			}
			return
		}
		if tb.NumRows() != 1+len(rows) {
			t.Fatalf("%d rows after inserting %d into 1", tb.NumRows(), len(rows))
		}
		for i, r := range append([][]algebra.Value{first}, rows...) {
			got := tb.rowValues(i)
			for ci := range r {
				if !identicalValue(got[ci], r[ci]) {
					t.Fatalf("row %d column %d reads back %#v, inserted %#v", i, ci, got[ci], r[ci])
				}
			}
		}
	})
}
