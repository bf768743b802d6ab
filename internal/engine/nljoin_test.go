package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// The nested loop's emission-order cage. batchJoin answers its keyed
// condition from an equality index instead of comparing every pair, and
// must still emit exactly the triple loop's sequence — outer block, then
// every right row, then the block's left rows ascending — and charge exactly
// its blocks. These tests hold it to the row reference (rowJoin) on rows in
// order, bit for bit, and on every operator's stats.

// nlSide is one join input: a named relation, its schema and its rows.
type nlSide struct {
	name string
	cols []algebra.Column
	rows [][]algebra.Value
}

// nlDB builds a DB of the given block size holding the sides.
func nlDB(t testing.TB, blockRows int, sides ...nlSide) *DB {
	t.Helper()
	db := NewDB(blockRows)
	for _, s := range sides {
		tab, err := db.CreateTable(s.name, algebra.NewSchema(s.cols...))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(s.rows...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// bitRows renders a table's rows in stored order with every value's kind,
// int payload, float bits and string bytes, so −0 and +0, an int 3 and a
// float 3.0 all render apart.
func bitRows(tab *Table) []string {
	out := make([]string, tab.NumRows())
	for i := range out {
		row := tab.rowValues(i)
		s := ""
		for _, v := range row {
			s += fmt.Sprintf("%d:%d:%#x:%q|", v.Kind, v.Int, math.Float64bits(v.Float), v.Str)
		}
		out[i] = s
	}
	return out
}

// requireNestedLoopMatchesRows executes plan on the batch executor and on
// the row oracle, both under the nested loop, over the same relations, and
// requires the same rows in the same order and the same operator stats.
func requireNestedLoopMatchesRows(t *testing.T, label string, blockRows int, plan algebra.Node, sides ...nlSide) {
	t.Helper()
	bdb, rdb := nlDB(t, blockRows, sides...), nlDB(t, blockRows, sides...)
	oracle := rdb.UseRowOracle()
	bres, berr := bdb.Execute(plan)
	rres, rerr := rdb.Execute(plan)
	if berr != nil || rerr != nil {
		t.Fatalf("%s: batch error %v, row error %v", label, berr, rerr)
	}
	if oracle.Ran() == 0 {
		t.Fatalf("%s: the row oracle executed no operator", label)
	}
	if !reflect.DeepEqual(bres.Ops, rres.Ops) {
		t.Fatalf("%s: operator stats diverge\nbatch: %+v\nrow:   %+v", label, bres.Ops, rres.Ops)
	}
	if b, r := bitRows(bres.Table), bitRows(rres.Table); !slices.Equal(b, r) {
		t.Fatalf("%s: rows diverge\nbatch: %v\nrow:   %v", label, b, r)
	}
}

// TestNestedLoopEmissionOrder holds the batch nested loop to the row
// reference on rows in order and on OpStats: left inputs spanning many
// outer blocks of 1, 3 and 10 rows at sizes that are not multiples of the
// block; keys duplicated on both sides and keys on one side only; a second
// condition the index does not answer (an int and a string one); a σ below
// either input; and keys whose equality crosses representations — −0 and
// +0, and 3 == 3.0 == date(3) across int, float and date columns — plus a
// NaN key, which no index answers.
func TestNestedLoopEmissionOrder(t *testing.T) {
	col := func(rel, name string, typ algebra.Type) algebra.Column {
		return algebra.Column{Relation: rel, Name: name, Type: typ}
	}
	lcols := []algebra.Column{col("L", "k", algebra.TypeInt), col("L", "b", algebra.TypeInt),
		col("L", "s", algebra.TypeString), col("L", "id", algebra.TypeInt)}
	rcols := []algebra.Column{col("R", "k", algebra.TypeInt), col("R", "b", algebra.TypeInt),
		col("R", "s", algebra.TypeString), col("R", "id", algebra.TypeInt)}
	// Left keys in [0, 12), right keys in [6, 20): keys duplicated on both
	// sides, and keys that only one side holds.
	gen := func(r *rand.Rand, n int, lo, span int64) [][]algebra.Value {
		rows := make([][]algebra.Value, n)
		for i := range rows {
			rows[i] = []algebra.Value{algebra.IntVal(lo + r.Int63n(span)), algebra.IntVal(r.Int63n(3)),
				algebra.StringVal(fmt.Sprintf("s%d", r.Intn(2))), algebra.IntVal(int64(i))}
		}
		return rows
	}
	scanL, scanR := algebra.NewScan("L", algebra.NewSchema(lcols...)), algebra.NewScan("R", algebra.NewSchema(rcols...))
	on := func(conds ...string) []algebra.JoinCond {
		var out []algebra.JoinCond
		for _, c := range conds {
			out = append(out, algebra.JoinCond{Left: algebra.Ref("L", c), Right: algebra.Ref("R", c)})
		}
		return out
	}
	lt := func(rel, c string, k int64) algebra.Predicate {
		return algebra.Compare(algebra.ColOperand(algebra.Ref(rel, c)), algebra.OpLt, algebra.LitOperand(algebra.IntVal(k)))
	}
	plans := map[string]algebra.Node{
		"keyed":             algebra.NewJoin(scanL, scanR, on("k")),
		"keyed + int cond":  algebra.NewJoin(scanL, scanR, on("k", "b")),
		"keyed + str cond":  algebra.NewJoin(scanL, scanR, on("k", "s")),
		"str cond first":    algebra.NewJoin(scanL, scanR, on("s", "k")),
		"σ left":            algebra.NewJoin(algebra.NewSelect(scanL, lt("L", "id", 17)), scanR, on("k")),
		"σ right":           algebra.NewJoin(scanL, algebra.NewSelect(scanR, lt("R", "b", 2)), on("k", "s")),
		"σ both":            algebra.NewJoin(algebra.NewSelect(scanL, lt("L", "b", 2)), algebra.NewSelect(scanR, lt("R", "id", 9)), on("k")),
		"unindexable (str)": algebra.NewJoin(scanL, scanR, on("s")),
		"σ left, two conds": algebra.NewJoin(algebra.NewSelect(scanL, lt("L", "k", 9)), scanR, on("b", "k")),
	}
	r := rand.New(rand.NewSource(42))
	for _, blockRows := range []int{1, 3, 10} {
		for _, sizes := range [][2]int{{0, 5}, {5, 0}, {1, 1}, {7, 11}, {23, 17}, {31, 4}, {47, 29}} {
			lrows, rrows := gen(r, sizes[0], 0, 12), gen(r, sizes[1], 6, 14)
			for _, name := range sortedNames(plans) {
				label := fmt.Sprintf("%s, BlockRows %d, %d×%d", name, blockRows, sizes[0], sizes[1])
				requireNestedLoopMatchesRows(t, label, blockRows, plans[name],
					nlSide{"L", lcols, lrows}, nlSide{"R", rcols, rrows})
			}
		}
	}

	// Keys across representations: a float column holding −0, +0, 3.0 and
	// 2.5 against int and date columns holding 0 and 3, each row tagged.
	negZero := math.Copysign(0, -1)
	fcols := []algebra.Column{col("F", "k", algebra.TypeFloat), col("F", "id", algebra.TypeInt)}
	icols := []algebra.Column{col("I", "k", algebra.TypeInt), col("I", "id", algebra.TypeInt)}
	dcols := []algebra.Column{col("D", "k", algebra.TypeDate), col("D", "id", algebra.TypeInt)}
	tagged := func(vs ...algebra.Value) [][]algebra.Value {
		rows := make([][]algebra.Value, len(vs))
		for i, v := range vs {
			rows[i] = []algebra.Value{v, algebra.IntVal(int64(i))}
		}
		return rows
	}
	floats := tagged(algebra.FloatVal(negZero), algebra.FloatVal(3), algebra.FloatVal(0), algebra.FloatVal(2.5),
		algebra.FloatVal(3), algebra.FloatVal(negZero), algebra.FloatVal(7))
	ints := tagged(algebra.IntVal(3), algebra.IntVal(0), algebra.IntVal(3), algebra.IntVal(5), algebra.IntVal(0))
	dates := tagged(algebra.DateVal(0), algebra.DateVal(3), algebra.DateVal(3), algebra.DateVal(1))
	withNaN := tagged(algebra.FloatVal(3), algebra.FloatVal(math.NaN()), algebra.FloatVal(negZero), algebra.FloatVal(0))
	sides := map[string]nlSide{
		"F": {"F", fcols, floats}, "I": {"I", icols, ints}, "D": {"D", dcols, dates},
	}
	scan := func(s nlSide) *algebra.Scan { return algebra.NewScan(s.name, algebra.NewSchema(s.cols...)) }
	for _, pair := range [][2]string{{"F", "I"}, {"I", "F"}, {"I", "D"}, {"D", "I"}, {"F", "D"}, {"D", "F"}, {"F", "F"}} {
		l, rt := sides[pair[0]], sides[pair[1]]
		if pair[0] == pair[1] {
			rt = nlSide{"G", []algebra.Column{col("G", "k", algebra.TypeFloat), col("G", "id", algebra.TypeInt)}, floats}
		}
		plan := algebra.NewJoin(scan(l), scan(rt), []algebra.JoinCond{{Left: algebra.Ref(l.name, "k"), Right: algebra.Ref(rt.name, "k")}})
		for _, blockRows := range []int{1, 3, 10} {
			requireNestedLoopMatchesRows(t, fmt.Sprintf("%s ⋈ %s, BlockRows %d", l.name, rt.name, blockRows), blockRows, plan, l, rt)
		}
	}
	nan := nlSide{"N", []algebra.Column{col("N", "k", algebra.TypeFloat), col("N", "id", algebra.TypeInt)}, withNaN}
	for _, blockRows := range []int{1, 3} {
		plan := algebra.NewJoin(scan(nan), scan(sides["I"]), []algebra.JoinCond{{Left: algebra.Ref("N", "k"), Right: algebra.Ref("I", "k")}})
		requireNestedLoopMatchesRows(t, fmt.Sprintf("N ⋈ I (NaN key), BlockRows %d", blockRows), blockRows, plan, nan, sides["I"])
	}
}

// nlJoinSink keeps the benchmark's result alive.
var nlJoinSink *Table

// BenchmarkNestedLoopJoin times the batch nested loop on an int key with
// about four matches per key on each side, n×n rows at BlockRows 10: the
// keyed path the paper's block charge meters.
func BenchmarkNestedLoopJoin(b *testing.B) {
	for _, n := range []int{1 << 10, 4 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			col := func(rel, name string) algebra.Column {
				return algebra.Column{Relation: rel, Name: name, Type: algebra.TypeInt}
			}
			r := rand.New(rand.NewSource(1))
			side := func(rel string) *Table {
				tab := NewTable(rel, algebra.NewSchema(col(rel, "k"), col(rel, "v")), 10)
				rows := make([][]algebra.Value, n)
				for i := range rows {
					rows[i] = []algebra.Value{algebra.IntVal(r.Int63n(int64(n / 4))), algebra.IntVal(int64(i))}
				}
				if err := tab.Insert(rows...); err != nil {
					b.Fatal(err)
				}
				return tab
			}
			l, rt := side("L"), side("R")
			j := algebra.NewJoin(algebra.NewScan("L", l.Schema), algebra.NewScan("R", rt.Schema),
				[]algebra.JoinCond{{Left: algebra.Ref("L", "k"), Right: algebra.Ref("R", "k")}})
			db := NewDB(10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := db.batchJoin(j, l, rt, nil)
				if err != nil {
					b.Fatal(err)
				}
				nlJoinSink = out
			}
		})
	}
}
