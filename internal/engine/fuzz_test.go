package engine

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// Fuzz targets for the batch executor's two trickiest contracts: the
// select kernel's error-and-result parity with the row engine, and the
// equivalence of joinKeyOf's typed key encoding with the legacy hashKey
// string classes.

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
// float64 bits (the tail also doubles as a string payload).
func fuzzRows(data []byte) []algebra.Value {
	var out []algebra.Value
	for len(data) >= 9 && len(out) < 64 {
		sel := data[0]
		bits := binary.LittleEndian.Uint64(data[1:9])
		str := ""
		if n := int(sel % 7); n > 0 && n <= 8 {
			str = string(data[1 : 1+n])
		}
		out = append(out, fuzzValue(sel, int64(bits), math.Float64frombits(bits), str))
		data = data[9:]
	}
	return out
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
	enc := func(sel uint8, bits uint64) []byte {
		b := make([]byte, 9)
		b[0] = sel
		binary.LittleEndian.PutUint64(b[1:], bits)
		return b
	}
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

	schema := algebra.NewSchema(algebra.Column{Relation: "T", Name: "v", Type: algebra.TypeInt})
	f.Fuzz(func(t *testing.T, rowData []byte, op, litSel uint8, litInt int64, litFloat float64, litStr string, negate bool) {
		vals := fuzzRows(rowData)
		dbs := make([]*DB, 2)
		for i := range dbs {
			db := NewDB(4)
			tab, err := db.CreateTable("T", schema)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if err := tab.Insert([]algebra.Value{v}); err != nil {
					t.Fatal(err)
				}
			}
			dbs[i] = db
		}
		oracle := dbs[1].UseRowOracle()
		lit := fuzzValue(litSel, litInt, litFloat, litStr)
		var pred algebra.Predicate = algebra.Compare(
			algebra.ColOperand(algebra.Ref("T", "v")),
			algebra.CompareOp(int(op)%6+1),
			algebra.LitOperand(lit))
		if negate {
			pred = algebra.NewNot(pred)
		}
		plan := algebra.NewSelect(algebra.NewScan("T", schema), pred)

		bres, berr := dbs[0].Execute(plan)
		rres, rerr := dbs[1].Execute(plan)
		if oracle.Ran() == 0 {
			t.Fatal("row oracle executed no operator: the reference side ran batch code")
		}
		if (berr == nil) != (rerr == nil) || (berr != nil && berr.Error() != rerr.Error()) {
			t.Fatalf("select %s over %d rows: executor errors diverge\nbatch: %v\nrow:   %v",
				pred, len(vals), berr, rerr)
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
	})
}

// FuzzJoinKeyEncoding pins the equivalence the batch hash join is built
// on: two values collide under the typed joinKey encoding exactly when
// they collide under the row engine's hashKey string.
func FuzzJoinKeyEncoding(f *testing.F) {
	add := func(selA uint8, intA int64, floatA float64, strA string, selB uint8, intB int64, floatB float64, strB string) {
		f.Add(selA, intA, floatA, strA, selB, intB, floatB, strB)
	}
	// Known collision classes: int 100 vs whole float 100.0, date vs int
	// on the same epoch day, NaN payload variants, string "x" vs an
	// invalid value carrying Str "x", and the ±0 fold.
	add(1, 100, 0, "", 2, 0, 100.0, "")
	add(4, 9496, 0, "", 1, 9496, 0, "")
	add(2, 0, math.NaN(), "", 2, 0, math.Float64frombits(0x7ff8000000000001), "")
	add(3, 0, 0, "x", 5, 7, 1.5, "x")
	add(2, 0, math.Copysign(0, -1), "", 1, 0, 0, "")
	add(0, 0, 0, "", 3, 0, 0, "")
	add(2, 0, 99.5, "", 2, 0, 99.5, "")

	f.Fuzz(func(t *testing.T, selA uint8, intA int64, floatA float64, strA string, selB uint8, intB int64, floatB float64, strB string) {
		a := fuzzValue(selA, intA, floatA, strA)
		b := fuzzValue(selB, intB, floatB, strB)
		typedEq := joinKeyOf(a) == joinKeyOf(b)
		legacyEq := hashKey(a) == hashKey(b)
		if typedEq != legacyEq {
			t.Fatalf("key encodings disagree for %#v vs %#v: joinKey equal=%v (%+v, %+v) but hashKey equal=%v (%q, %q)",
				a, b, typedEq, joinKeyOf(a), joinKeyOf(b), legacyEq, hashKey(a), hashKey(b))
		}
	})
}
