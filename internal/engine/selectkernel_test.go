package engine_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// The select kernel's own differential table and benchmark. The table
// crosses what the kernel's cost and code path depend on — how many lanes
// survive, what the column stores, and how the row count sits against the
// block size — and holds every cell to the row oracle; the benchmark times
// the same shapes on the batch executor alone.

// kernelClasses are the storage classes of the tested column v, declared
// typ. value maps a rank in [0, n) to the stored value, ascending in the
// class's own order so that "v < value(cut)" keeps exactly the cut lowest
// ranks.
var kernelClasses = []struct {
	name  string
	typ   algebra.Type
	value func(rank int) algebra.Value
}{
	{"int", algebra.TypeInt, func(r int) algebra.Value { return algebra.IntVal(int64(r)) }},
	{"date", algebra.TypeDate, func(r int) algebra.Value { return algebra.DateVal(9496 + int64(r)) }},
	{"float", algebra.TypeFloat, func(r int) algebra.Value { return algebra.FloatVal(float64(r) + 0.5) }},
	{"string", algebra.TypeString, func(r int) algebra.Value { return algebra.StringVal(fmt.Sprintf("v%05d", r)) }},
	{"nullable", algebra.TypeInt, func(r int) algebra.Value { return algebra.IntVal(int64(r)) }},
	// The miss path's shape: 50 strings, each shared by 100 ranks at
	// n = 5 000, so a column holds far fewer distinct values than rows.
	{"pooled", algebra.TypeString, pooledValue},
	// A pooled column whose lowest pool is "" and that holds nulls the way
	// nullable does: "" and null are different rows.
	{"blank", algebra.TypeString, func(r int) algebra.Value {
		if r < 100 {
			return algebra.StringVal("")
		}
		return pooledValue(r)
	}},
}

func pooledValue(r int) algebra.Value { return algebra.StringVal(fmt.Sprintf("p%02d", r/100)) }

// kernelRows builds n rows of T(k, v): k is the row index and v the class
// value of a scattered rank, so survivors are spread over every block. The
// float class swaps in NaN, ±Inf and −0 and the nullable class nulls, both
// only on lanes with k >= cut: a predicate that tests k first never reaches
// them, one that tests v alone does.
func kernelRows(class string, value func(int) algebra.Value, n, cut int) [][]algebra.Value {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	rows := make([][]algebra.Value, n)
	for i := range rows {
		v := value(i * 7919 % n) // 7919 is prime and > n: a permutation
		if i >= cut && i%3 == 0 {
			switch class {
			case "float":
				v = algebra.FloatVal(specials[i/3%len(specials)])
			case "nullable", "blank":
				v = algebra.Value{}
			}
		}
		rows[i] = []algebra.Value{algebra.IntVal(int64(i)), v}
	}
	return rows
}

// kernelPredicates are the shapes run per cell: the bare comparison under
// each operator, the And and Or forms whose first operand decides the lanes
// with k >= cut, a negation, and a column-vs-column comparison.
func kernelPredicates(lit algebra.Value, cut int) []namedPredicate {
	k, v := algebra.ColOperand(algebra.Ref("T", "k")), algebra.ColOperand(algebra.Ref("T", "v"))
	cutLit, vLit := algebra.LitOperand(algebra.IntVal(int64(cut))), algebra.LitOperand(lit)
	vLess, vAtLeast := algebra.Compare(v, algebra.OpLt, vLit), algebra.Compare(v, algebra.OpGe, vLit)
	return []namedPredicate{
		{"v<lit", vLess},
		{"v=lit", algebra.Compare(v, algebra.OpEq, vLit)},
		{"v<>lit", algebra.Compare(v, algebra.OpNotEq, vLit)},
		{shortCircuitAnd, &algebra.And{Preds: []algebra.Predicate{algebra.Compare(k, algebra.OpLt, cutLit), vLess}}},
		{"k>=cut OR v>=lit", &algebra.Or{Preds: []algebra.Predicate{algebra.Compare(k, algebra.OpGe, cutLit), vAtLeast}}},
		{"NOT v>=lit", &algebra.Not{Pred: vAtLeast}},
		{"k<cut AND NOT k=v", &algebra.And{Preds: []algebra.Predicate{
			algebra.Compare(k, algebra.OpLt, cutLit), &algebra.Not{Pred: algebra.Compare(k, algebra.OpEq, v)}}}},
	}
}

type namedPredicate struct {
	name string
	pred algebra.Predicate
}

const shortCircuitAnd = "k<cut AND v<lit"

// kernelOps are the operators the gathered and two-table plans run under.
var kernelOps = []algebra.CompareOp{algebra.OpEq, algebra.OpNotEq, algebra.OpLt, algebra.OpGe}

// TestSelectKernelParity holds σ on the batch executor to the row oracle
// over selectivity × column class × row count: the same error text, or the
// same rows in order with identical float bits and operator stats. Beside
// the predicates over the stored table, every cell runs v op lit over the
// gathered output of σ k<cut — a column that keeps its source's whole
// dictionary, so at few rows it holds more strings than lanes — and
// T.v op U.w over T ⋈ U, whose two string columns code against two
// dictionaries in different orders.
func TestSelectKernelParity(t *testing.T) {
	selectivities := []struct {
		name string
		cut  func(n int) int
	}{
		{"none", func(n int) int { return 0 }},
		{"one", func(n int) int { return min(n, 1) }},
		{"2pct", func(n int) int { return (n + 49) / 50 }},
		{"half", func(n int) int { return n / 2 }},
		{"all", func(n int) int { return n }},
	}
	sizes := []int{0, 1, engine.DefaultBlockRows - 1, engine.DefaultBlockRows + 1, 5000}
	for _, class := range kernelClasses {
		for _, n := range sizes {
			for _, sel := range selectivities {
				cut := sel.cut(n)
				label := fmt.Sprintf("%s/n=%d/%s", class.name, n, sel.name)
				rows := kernelRows(class.name, class.value, n, cut)
				bdb, rdb := dualScratch(t, engine.DefaultBlockRows, nullsSchema(class.typ), rows)
				scan := algebra.NewScan("T", nullsSchema(class.typ))
				below := ranksBelow(class.value, n, cut)
				for _, p := range kernelPredicates(class.value(cut), cut) {
					name := p.name
					bres, rres := runBoth(t, label+"/"+name, bdb, rdb, algebra.NewSelect(scan, p.pred))
					if bres == nil {
						continue // both failed with the same error
					}
					for i := 0; i < bres.Table.NumRows(); i++ {
						b, r := bres.Table.Row(i).Values[1], rres.Table.Row(i).Values[1]
						if math.Float64bits(b.Float) != math.Float64bits(r.Float) {
							t.Fatalf("%s/%s row %d: float bits diverge %x vs %x", label, name, i,
								math.Float64bits(b.Float), math.Float64bits(r.Float))
						}
					}
					// The short-circuit And never touches a special or null lane,
					// so it keeps exactly the low ranks among the first cut rows
					// in every class; that pins the table, not only the parity.
					if name == shortCircuitAnd && bres.Table.NumRows() != countLowRanks(n, cut, below) {
						t.Fatalf("%s/%s kept %d rows, want %d", label, name, bres.Table.NumRows(), countLowRanks(n, cut, below))
					}
				}
				k, v := algebra.ColOperand(algebra.Ref("T", "k")), algebra.ColOperand(algebra.Ref("T", "v"))
				gathered := algebra.NewSelect(scan, algebra.Compare(k, algebra.OpLt, algebra.LitOperand(algebra.IntVal(int64(cut)))))
				addTable(t, "U", class.typ, twoTableRows(class.value, n), bdb, rdb)
				both := algebra.NewJoin(scan, algebra.NewScan("U", twoTableSchema(class.typ)), []algebra.JoinCond{{Left: algebra.Ref("T", "k"), Right: algebra.Ref("U", "k")}})
				for _, op := range kernelOps {
					lit := algebra.LitOperand(class.value(cut))
					runBoth(t, fmt.Sprintf("%s/gathered v%slit", label, op), bdb, rdb,
						algebra.NewSelect(gathered, algebra.Compare(v, op, lit)))
					runBoth(t, fmt.Sprintf("%s/T.v%sU.w", label, op), bdb, rdb,
						algebra.NewSelect(both, algebra.Compare(v, op, algebra.ColOperand(algebra.Ref("U", "w")))))
				}
			}
		}
	}
}

// twoTableSchema is U(k, w), the second table of the column-vs-column plans,
// its w declared typ.
func twoTableSchema(typ algebra.Type) *algebra.Schema {
	return algebra.NewSchema(
		algebra.Column{Relation: "U", Name: "k", Type: algebra.TypeInt},
		algebra.Column{Relation: "U", Name: "w", Type: typ},
	)
}

// twoTableRows are U's n rows: key k meets T's row k, and w is the class
// value of another rank. The rows go in in descending k, so a pooled w
// meets its strings in another order than T's v.
func twoTableRows(value func(int) algebra.Value, n int) [][]algebra.Value {
	rows := make([][]algebra.Value, n)
	for i := range rows {
		k := n - 1 - i
		rows[i] = []algebra.Value{algebra.IntVal(int64(k)), value((k*7919 + n/3) % n)}
	}
	return rows
}

// addTable creates the table name of U's schema, its w declared typ, with
// rows on every DB, each
// of which joins by hash: the row oracle's nested loop over 5 000 × 5 000
// rows would time the oracle, not the kernel.
func addTable(t *testing.T, name string, typ algebra.Type, rows [][]algebra.Value, dbs ...*engine.DB) {
	t.Helper()
	for _, db := range dbs {
		db.SetJoinAlgorithm(engine.JoinHash)
		tab, err := db.CreateTable(name, twoTableSchema(typ))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows...); err != nil {
			t.Fatal(err)
		}
	}
}

// ranksBelow counts the ranks in [0, n) whose value orders below
// value(cut): cut itself in a class of distinct values, the pools below
// cut's in a pooled one.
func ranksBelow(value func(int) algebra.Value, n, cut int) int {
	lit, below := value(cut), 0
	for r := 0; r < n; r++ {
		if c, err := value(r).Compare(lit); err == nil && c < 0 {
			below++
		}
	}
	return below
}

// countLowRanks counts the rows i < cut whose scattered rank is below
// below.
func countLowRanks(n, cut, below int) int {
	kept := 0
	for i := 0; i < cut; i++ {
		if i*7919%n < below {
			kept++
		}
	}
	return kept
}

// BenchmarkSelectKernel times σ alone on the batch executor: n = 5 000 rows
// of T(k, v), "v < lit" keeping 2 %, 50 % and all of them, over an int
// column and a string column of distinct values; and the miss path's "v = lit" over the pooled column's 50 strings,
// keeping 2 %. DESIGN §12 and EXPERIMENTS quote it; the parity table above
// pins the answers.
func BenchmarkSelectKernel(b *testing.B) {
	const n = 5000
	v := algebra.ColOperand(algebra.Ref("T", "v"))
	for _, class := range kernelClasses {
		if class.name != "int" && class.name != "string" {
			continue
		}
		for _, sel := range []struct {
			name string
			cut  int
		}{{"0.02", n / 50}, {"0.5", n / 2}, {"1.0", n}} {
			b.Run(class.name+"/sel="+sel.name, func(b *testing.B) {
				benchSelect(b, class.typ, kernelRows(class.name, class.value, n, n),
					algebra.Compare(v, algebra.OpLt, algebra.LitOperand(class.value(sel.cut))), sel.cut)
			})
		}
	}
	b.Run("pooled/eq", func(b *testing.B) {
		benchSelect(b, algebra.TypeString, kernelRows("pooled", pooledValue, n, n),
			algebra.Compare(v, algebra.OpEq, algebra.LitOperand(pooledValue(700))), n/50)
	})
}

// benchSelect times σpred over a table T of rows, its v declared typ,
// which must keep want.
func benchSelect(b *testing.B, typ algebra.Type, rows [][]algebra.Value, pred algebra.Predicate, want int) {
	db := engine.NewDB(engine.DefaultBlockRows)
	tab, err := db.CreateTable("T", nullsSchema(typ))
	if err != nil {
		b.Fatal(err)
	}
	if err := tab.Insert(rows...); err != nil {
		b.Fatal(err)
	}
	plan := algebra.NewSelect(algebra.NewScan("T", tab.Schema), pred)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(plan)
		if err != nil {
			b.Fatal(err)
		}
		if res.Table.NumRows() != want {
			b.Fatalf("kept %d rows, want %d", res.Table.NumRows(), want)
		}
	}
}
