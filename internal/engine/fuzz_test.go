package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// Fuzz targets for the batch executor's two trickiest contracts: the
// select kernel's error-and-result parity with the row engine (one
// comparison, then whole And / Or / Not trees), and the one equality every
// join operator matches on.

// fuzzValue decodes one value from a (selector, int, float, string)
// tuple, covering every storage class including the canonical null and a
// non-canonical invalid value (unknown kind with payload bits set).
func fuzzValue(sel uint8, i int64, f float64, s string) algebra.Value {
	switch sel % 6 {
	case 0:
		return algebra.Value{}
	case 1:
		return algebra.IntVal(i)
	case 2:
		return algebra.FloatVal(f)
	case 3:
		return algebra.StringVal(s)
	case 4:
		return algebra.DateVal(i)
	default:
		return algebra.Value{Kind: algebra.Type(200), Int: i, Float: f, Str: s}
	}
}

// fuzzRows decodes a byte string into a column of values, 9 bytes per
// row: a class selector plus 8 payload bytes read as both int64 and
// float64 bits (the tail also doubles as a string payload). A null's
// selector makes a null; the first other row's class fixes the column's
// kind (an invalid one's makes it int), which every later non-null row
// takes with its own payload. It returns the kind, TypeInt for a column of
// nulls, and the values.
func fuzzRows(data []byte) (algebra.Type, []algebra.Value) {
	var out []algebra.Value
	var class uint8
	for len(data) >= 9 && len(out) < 64 {
		sel := data[0]
		bits := binary.LittleEndian.Uint64(data[1:9])
		str := ""
		if n := int(sel % 7); n > 0 && n <= 8 {
			str = string(data[1 : 1+n])
		}
		data = data[9:]
		if sel%6 == 0 {
			out = append(out, algebra.Value{})
			continue
		}
		if class == 0 {
			class = max(sel%6%5, 1)
		}
		out = append(out, fuzzValue(class, int64(bits), math.Float64frombits(bits), str))
	}
	if class == 0 {
		return algebra.TypeInt, out
	}
	return fuzzValue(class, 0, 0, "").Kind, out
}

// encodeFuzzRow is the inverse of one fuzzRows step: a class selector and
// 8 payload bytes.
func encodeFuzzRow(sel uint8, bits uint64) []byte {
	b := make([]byte, 9)
	b[0] = sel
	binary.LittleEndian.PutUint64(b[1:], bits)
	return b
}

// FuzzBatchSelectPredicate runs the same selection on the batch executor
// and on the row oracle over a fuzzed column and requires identical
// outcomes: the same error text, or the same rows in the same order with
// the same operator stats.
func FuzzBatchSelectPredicate(f *testing.F) {
	// Seeds from the paper workload's value domains: small ints,
	// epoch-day dates around 1996 (9496..9861), whole and fractional
	// floats, specials, and strings containing the hash-class sigils.
	seed := func(rows []byte, op, litSel uint8, litInt int64, litFloat float64, litStr string, negate bool) {
		f.Add(rows, op, litSel, litInt, litFloat, litStr, negate)
	}
	enc := encodeFuzzRow
	negSeven := int64(-7)
	ints := append(enc(1, 100), enc(1, uint64(negSeven))...)
	dates := append(enc(4, 9496), enc(4, 9861)...)
	floats := append(enc(2, math.Float64bits(100.0)), enc(2, math.Float64bits(99.5))...)
	specials := append(enc(2, math.Float64bits(math.NaN())), enc(2, math.Float64bits(math.Inf(1)))...)
	strs := append(enc(3, 0x7c73), enc(0, 0)...) // "s|" prefix bytes and a null
	seed(ints, 4, 1, 50, 0, "", false)
	seed(dates, 2, 4, 9600, 0, "", true)
	seed(floats, 0, 2, 0, 100.0, "", false)
	seed(specials, 5, 2, 0, math.NaN(), "", false)
	seed(strs, 0, 3, 0, 0, "s|", false)
	// The miss path's shape: many rows over a few strings, with and without
	// a null, under = and an ordering.
	seed(pooledRows(40, 4, 0), 0, 3, 0, 0, "p1\x00", false)
	seed(pooledRows(40, 4, 7), 2, 3, 0, 0, "p2\x00", true)
	seed(pooledRows(64, 5, 0), 5, 3, 0, 0, "p3", false)

	f.Fuzz(func(t *testing.T, rowData []byte, op, litSel uint8, litInt int64, litFloat float64, litStr string, negate bool) {
		kind, vals := fuzzRows(rowData)
		schema := algebra.NewSchema(algebra.Column{Relation: "T", Name: "v", Type: kind})
		rows := make([][]algebra.Value, len(vals))
		for i, v := range vals {
			rows[i] = []algebra.Value{v}
		}
		lit := fuzzValue(litSel, litInt, litFloat, litStr)
		var pred algebra.Predicate = algebra.Compare(
			algebra.ColOperand(algebra.Ref("T", "v")),
			algebra.CompareOp(int(op)%6+1),
			algebra.LitOperand(lit))
		if negate {
			pred = algebra.NewNot(pred)
		}
		requireSelectParity(t, schema, schema, rows, pred)
	})
}

// pooledRows encodes n rows of k strings ("p0\x00", "p1\x00", ...), every
// nullEvery-th of them null (none when nullEvery is 0).
func pooledRows(n, k, nullEvery int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		if nullEvery > 0 && i%nullEvery == nullEvery-1 {
			out = append(out, encodeFuzzRow(0, 0)...)
			continue
		}
		out = append(out, encodeFuzzRow(3, uint64('p')|uint64('0'+i%k)<<8)...)
	}
	return out
}

// requireSelectParity runs σpred over one scratch table T on the batch
// executor and on the row oracle and requires identical outcomes: the same
// error text, or the same rows in the same order (float payloads bit for
// bit) with the same operator stats. It fails when the oracle side ran no
// operator, which would mean the batch executor was compared with itself.
// The plan scans T under scanSchema; a column it renames passes plan
// validation and is unbound when the kernels resolve it against the table.
// It runs twice: over T as inserted, and over T gathered out of a longer
// table (gatherPadded), whose string columns hold more strings than rows.
func requireSelectParity(t *testing.T, schema, scanSchema *algebra.Schema, rows [][]algebra.Value, pred algebra.Predicate) {
	t.Helper()
	for _, padded := range []bool{false, true} {
		requireSelectParityOn(t, schema, scanSchema, rows, pred, padded)
	}
}

// gatherPadded makes tab, still empty, hold rows gathered out of a longer
// table: one that holds, before them, as many rows again whose strings are
// its own. A column keeps the kinds of rows, so it keeps their
// representation too.
func gatherPadded(tab *Table, rows [][]algebra.Value) error {
	pad := make([][]algebra.Value, len(rows))
	idx := make([]int32, len(rows))
	for i, r := range rows {
		pad[i] = slices.Clone(r)
		for c, v := range r {
			if v.Kind == algebra.TypeString {
				pad[i][c] = algebra.StringVal(fmt.Sprint("~pad", i))
			}
		}
		idx[i] = int32(len(rows) + i)
	}
	if err := tab.Insert(append(pad, rows...)...); err != nil {
		return err
	}
	g := tab.gatherTable(tab.Schema, tab.BlockRows, idx)
	tab.cols, tab.nrows = g.cols, g.nrows
	return nil
}

func requireSelectParityOn(t *testing.T, schema, scanSchema *algebra.Schema, rows [][]algebra.Value, pred algebra.Predicate, padded bool) {
	t.Helper()
	dbs := make([]*DB, 2)
	for i := range dbs {
		db := NewDB(4)
		tab, err := db.CreateTable("T", schema)
		if err != nil {
			t.Fatal(err)
		}
		if padded {
			err = gatherPadded(tab, rows)
		} else {
			err = tab.Insert(rows...)
		}
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	oracle := dbs[1].UseRowOracle()
	plan := algebra.NewSelect(algebra.NewScan("T", scanSchema), pred)

	bres, berr := dbs[0].Execute(plan)
	rres, rerr := dbs[1].Execute(plan)
	if oracle.Ran() == 0 {
		t.Fatal("row oracle executed no operator: the reference side ran batch code")
	}
	if (berr == nil) != (rerr == nil) || (berr != nil && berr.Error() != rerr.Error()) {
		t.Fatalf("select %s over %d rows: executor errors diverge\nbatch: %v\nrow:   %v",
			pred, len(rows), berr, rerr)
	}
	if berr != nil {
		return
	}
	if bres.Table.NumRows() != rres.Table.NumRows() {
		t.Fatalf("select %s: batch kept %d rows, row kept %d",
			pred, bres.Table.NumRows(), rres.Table.NumRows())
	}
	for i := 0; i < bres.Table.NumRows(); i++ {
		// Compare rendered rows (NaN payloads defeat ==) plus the raw
		// float bits, which String folds together.
		b, r := bres.Table.Row(i), rres.Table.Row(i)
		if b.String() != r.String() {
			t.Fatalf("select %s row %d: batch %v vs row %v", pred, i, b.Values, r.Values)
		}
		for ci := range b.Values {
			bv, rv := b.Values[ci], r.Values[ci]
			if math.Float64bits(bv.Float) != math.Float64bits(rv.Float) {
				t.Fatalf("select %s row %d col %d: float bits diverge %x vs %x",
					pred, i, ci, math.Float64bits(bv.Float), math.Float64bits(rv.Float))
			}
		}
	}
	if !reflect.DeepEqual(bres.Ops, rres.Ops) {
		t.Fatalf("select %s: op stats diverge\nbatch: %+v\nrow:   %+v", pred, bres.Ops, rres.Ops)
	}
}

// Byte codes of fuzzPredicate's program. A node is one shape byte: shape%8
// picks the connective (anything from fzLeaf up is a leaf) and shape/8%6 the
// comparison operator of a leaf, which is followed by one detail byte:
// detail%5 the operand form, detail/5%2 the column (a or b), detail/10 the
// row a data literal is taken from.
const (
	fzAnd2, fzAnd3, fzOr2, fzOr3, fzNot, fzLeaf = 0, 1, 2, 3, 4, 5

	fzColLit, fzColData, fzColCol, fzColMissing, fzLitCol = 0, 1, 2, 3, 4
	fzOnB                                                 = 5
)

// fzCmp is the shape byte of a leaf with the given operator.
func fzCmp(op algebra.CompareOp) byte { return byte(fzLeaf + 8*(int(op)-1)) }

// fuzzPredicate decodes a predicate tree from a byte program, nested to at
// most depth 3 (an exhausted program reads as zeros). Inner nodes are And /
// Or of two or three operands and Not, built as bare structs so the fuzzed
// shape survives (NewAnd and NewOr would flatten and sort it). A leaf
// compares column a or b with a literal — the fuzzed one or a value taken
// from the data, on either side — a with b, or a column only the plan's
// scan schema has, which fails every lane that reaches it.
func fuzzPredicate(prog *[]byte, depth int, lit algebra.Value, data []algebra.Value) algebra.Predicate {
	next := func() int {
		if len(*prog) == 0 {
			return 0
		}
		b := (*prog)[0]
		*prog = (*prog)[1:]
		return int(b)
	}
	shape := next()
	if depth < 3 && shape%8 < fzLeaf {
		sub := func() algebra.Predicate { return fuzzPredicate(prog, depth+1, lit, data) }
		switch shape % 8 {
		case fzAnd2:
			return &algebra.And{Preds: []algebra.Predicate{sub(), sub()}}
		case fzAnd3:
			return &algebra.And{Preds: []algebra.Predicate{sub(), sub(), sub()}}
		case fzOr2:
			return &algebra.Or{Preds: []algebra.Predicate{sub(), sub()}}
		case fzOr3:
			return &algebra.Or{Preds: []algebra.Predicate{sub(), sub(), sub()}}
		default:
			return &algebra.Not{Pred: sub()}
		}
	}
	op := algebra.CompareOp(shape/8%6 + 1)
	detail := next()
	a, b := algebra.ColOperand(algebra.Ref("T", "a")), algebra.ColOperand(algebra.Ref("T", "b"))
	col := a
	if detail/fzOnB%2 == 1 {
		col = b
	}
	switch detail % 5 {
	case fzColData:
		if len(data) > 0 {
			lit = data[detail/10%len(data)]
		}
	case fzColCol:
		return &algebra.Comparison{Left: a, Op: op, Right: b}
	case fzColMissing:
		return &algebra.Comparison{Left: col, Op: op, Right: algebra.ColOperand(algebra.Ref("T", "missing"))}
	case fzLitCol:
		return &algebra.Comparison{Left: algebra.LitOperand(lit), Op: op, Right: col}
	}
	return &algebra.Comparison{Left: col, Op: op, Right: algebra.LitOperand(lit)}
}

// FuzzBatchSelectNested is FuzzBatchSelectPredicate for whole predicate
// trees: two fuzzed columns under And / Or / Not nested three deep over
// column-vs-literal, column-vs-column and unbound-column leaves. What it
// guards is the short-circuit contract — a lane an earlier operand decided
// never evaluates a later one, and the error reported is the one the lowest
// failing row hits first.
func FuzzBatchSelectNested(f *testing.F) {
	enc := func(vals ...algebra.Value) []byte {
		var out []byte
		for _, v := range vals {
			sel, bits := uint8(0), uint64(0)
			switch v.Kind {
			case algebra.TypeInt:
				sel, bits = 1, uint64(v.Int)
			case algebra.TypeFloat:
				sel, bits = 2, math.Float64bits(v.Float)
			case algebra.TypeDate:
				sel, bits = 4, uint64(v.Int)
			}
			out = append(out, encodeFuzzRow(sel, bits)...)
		}
		return out
	}
	iv, fv, dv, null := algebra.IntVal, algebra.FloatVal, algebra.DateVal, algebra.Value{}
	ints := enc(iv(1), iv(5), iv(9), iv(-3), iv(5))
	mixed := enc(fv(4), fv(4.5), null, fv(math.NaN()), fv(9500)) // floats against ints, with a null lane
	dates := enc(dv(9500), null, dv(4), dv(9496))
	floats := enc(fv(0), fv(math.Copysign(0, -1)), fv(math.Inf(-1)), fv(7), fv(math.NaN()))
	strs := []byte{3, 'a', 0, 0, 0, 0, 0, 0, 0, 3, 'b', 0, 0, 0, 0, 0, 0, 0, 10, 'a', 'b', 'c', 0, 0, 0, 0, 0}
	lt, le, eq, ne, ge := fzCmp(algebra.OpLt), fzCmp(algebra.OpLe), fzCmp(algebra.OpEq), fzCmp(algebra.OpNotEq), fzCmp(algebra.OpGe)
	// a < 5 AND b >= 5.
	f.Add(ints, ints, []byte{fzAnd2, lt, fzColLit, ge, fzColLit + fzOnB}, uint8(1), int64(5), 0.0, "")
	// a <= 4 OR b >= 4: the null lane of b errors only where a > 4.
	f.Add(ints, mixed, []byte{fzOr2, le, fzColLit, ge, fzColLit + fzOnB}, uint8(1), int64(4), 0.0, "")
	// NOT (a = b) over ±0, -Inf and NaN against ints.
	f.Add(floats, ints, []byte{fzNot, eq, fzColCol}, uint8(2), int64(0), 0.0, "")
	// a < 5 AND a <> missing: the And shields the lanes it already decided.
	f.Add(ints, floats, []byte{fzAnd2, lt, fzColLit, ne, fzColMissing}, uint8(1), int64(5), 0.0, "")
	// Depth 3 over a date column and a float one: an And of an Or holding
	// a Not, a three-way Or with a data literal and an unbound branch, and
	// a literal-on-the-left leaf.
	f.Add(dates, floats, []byte{
		fzAnd3,
		fzOr2, fzNot, ne, fzColCol, fzAnd2, eq, fzColLit, le, fzColData + 10,
		fzOr3, ge, fzColData + fzOnB + 20, lt, fzColMissing, eq, fzColLit,
		ge, fzLitCol + fzOnB,
	}, uint8(2), int64(0), 4.5, "")
	// Strings: a = "b" OR NOT (a < b).
	f.Add(strs, strs, []byte{fzOr2, eq, fzColLit, fzNot, lt, fzColCol}, uint8(3), int64(0), 0.0, "b")
	// A string column against an int literal fails on its first lane; b
	// decides which lanes get there.
	f.Add(strs, ints, []byte{fzAnd2, ge, fzColLit + fzOnB, eq, fzColLit}, uint8(1), int64(1), 0.0, "")
	// Pooled strings: a = "p1" OR a < b, then NOT (a >= data) AND b <> "p0"
	// with a null lane in b.
	pooled, pooledNulls := pooledRows(48, 4, 0), pooledRows(48, 3, 5)
	f.Add(pooled, pooledRows(48, 3, 0), []byte{fzOr2, eq, fzColLit, lt, fzColCol}, uint8(3), int64(0), 0.0, "p1\x00")
	f.Add(pooled, pooledNulls, []byte{fzAnd2, fzNot, ge, fzColData + 30, ne, fzColLit + fzOnB}, uint8(3), int64(0), 0.0, "p0\x00")

	f.Fuzz(func(t *testing.T, rowsA, rowsB, prog []byte, litSel uint8, litInt int64, litFloat float64, litStr string) {
		ka, va := fuzzRows(rowsA)
		kb, vb := fuzzRows(rowsB)
		cols := func(third string) *algebra.Schema {
			return algebra.NewSchema(
				algebra.Column{Relation: "T", Name: "a", Type: ka},
				algebra.Column{Relation: "T", Name: "b", Type: kb},
				algebra.Column{Relation: "T", Name: third, Type: algebra.TypeInt})
		}
		schema, scanSchema := cols("c"), cols("missing")
		if len(vb) < len(va) {
			va = va[:len(vb)]
		}
		rows := make([][]algebra.Value, len(va))
		for i := range rows {
			rows[i] = []algebra.Value{va[i], vb[i], algebra.IntVal(int64(i))}
		}
		pred := fuzzPredicate(&prog, 0, fuzzValue(litSel, litInt, litFloat, litStr), append(va, vb[:len(va)]...))
		requireSelectParity(t, schema, scanSchema, rows, pred)
	})
}

// FuzzJoinKeyEncoding pins the one join equality: every join operator —
// the nested loop, the hash join and their row references — matches a pair
// of rows iff their keys are Value.Equal. The left side holds a, then b;
// the right b, then a. A side's column k holds its first value and every
// value of that kind, its column k2 a value of another kind, each declared
// of the kind it holds; a side is joined on k and on k2 with each of the
// other's. So each value meets itself and the other, in one column when the
// two share a kind and across two when they do not. A value no column can
// hold (an invalid kind) is a null. With one row per block the nested
// loop's emission order is the hash join's probe order, so all four outputs
// are the same sequence.
func FuzzJoinKeyEncoding(f *testing.F) {
	add := func(selA uint8, intA int64, floatA float64, strA string, selB uint8, intB int64, floatB float64, strB string) {
		f.Add(selA, intA, floatA, strA, selB, intB, floatB, strB)
	}
	// Int 100 vs whole float 100.0, date vs int on the same epoch day, NaN
	// payload variants (NaN equals everything), string "x" vs an invalid
	// value carrying Str "x" (stored as the null), the ±0 fold, null vs
	// empty string, and two ints past 2^53 that share a float64 image.
	add(1, 100, 0, "", 2, 0, 100.0, "")
	add(4, 9496, 0, "", 1, 9496, 0, "")
	add(2, 0, math.NaN(), "", 2, 0, math.Float64frombits(0x7ff8000000000001), "")
	add(2, 0, math.NaN(), "", 1, 7, 0, "")
	add(3, 0, 0, "x", 5, 7, 1.5, "x")
	add(2, 0, math.Copysign(0, -1), "", 1, 0, 0, "")
	add(0, 0, 0, "", 3, 0, 0, "")
	add(0, 0, 0, "", 0, 0, 0, "")
	add(2, 0, 99.5, "", 2, 0, 99.5, "")
	add(1, 1<<53+1, 0, "", 1, 1<<53, 0, "")
	add(1, 1<<53+1, 0, "", 2, 0, 1<<53, "")

	f.Fuzz(func(t *testing.T, selA uint8, intA int64, floatA float64, strA string, selB uint8, intB int64, floatB float64, strB string) {
		storable := func(v algebra.Value) algebra.Value {
			if !v.IsValid() {
				return algebra.Value{}
			}
			return v
		}
		a := storable(fuzzValue(selA, intA, floatA, strA))
		b := storable(fuzzValue(selB, intB, floatB, strB))
		side := func(rel string, vs ...algebra.Value) *Table {
			types := []algebra.Type{max(vs[0].Kind, vs[1].Kind), algebra.TypeInt}
			rows := [][]algebra.Value{{vs[0], {}, algebra.IntVal(0)}, {vs[1], {}, algebra.IntVal(1)}}
			if vs[0].Kind != 0 && vs[1].Kind != 0 && vs[0].Kind != vs[1].Kind {
				types = []algebra.Type{vs[0].Kind, vs[1].Kind}
				rows[1] = []algebra.Value{{}, vs[1], algebra.IntVal(1)}
			}
			tab := NewTable(rel, algebra.NewSchema(
				algebra.Column{Relation: rel, Name: "k", Type: max(types[0], algebra.TypeInt)},
				algebra.Column{Relation: rel, Name: "k2", Type: types[1]},
				algebra.Column{Relation: rel, Name: "n", Type: algebra.TypeInt}), 1)
			if err := tab.Insert(rows...); err != nil {
				t.Fatal(err)
			}
			return tab
		}
		l, r := side("A", a, b), side("B", b, a)
		db := NewDB(1)
		for _, keys := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			var want []string
			for li := 0; li < 2; li++ {
				for ri := 0; ri < 2; ri++ {
					if l.rowValues(li)[keys[0]].Equal(r.rowValues(ri)[keys[1]]) {
						want = append(want, fmt.Sprint(li, ri))
					}
				}
			}
			j := algebra.NewJoin(algebra.NewScan("A", l.Schema), algebra.NewScan("B", r.Schema),
				[]algebra.JoinCond{{Left: algebra.Ref("A", l.Schema.Columns[keys[0]].Name),
					Right: algebra.Ref("B", r.Schema.Columns[keys[1]].Name)}})
			for _, op := range []struct {
				name string
				join func(*algebra.Join, *Table, *Table, *Result) (*Table, error)
			}{
				{"nested loop", db.batchJoin},
				{"hash", db.batchHashJoin},
				{"row nested loop", db.rowJoin},
				{"row hash", db.rowHashJoin},
			} {
				out, err := op.join(j, l, r, nil)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for i := 0; i < out.NumRows(); i++ {
					row := out.rowValues(i)
					got = append(got, fmt.Sprint(row[2].Int, row[5].Int))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s join of %#v and %#v on %v matched pairs %v, want the Value.Equal pairs %v", op.name, a, b, keys, got, want)
				}
			}
		}
	})
}
