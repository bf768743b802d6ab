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

// kernelClasses are the storage classes of the tested column v. value
// maps a rank in [0, n) to the stored value, ascending in the class's own
// order so that "v < value(cut)" keeps exactly the cut lowest ranks.
var kernelClasses = []struct {
	name  string
	value func(rank int) algebra.Value
}{
	{"int", func(r int) algebra.Value { return algebra.IntVal(int64(r)) }},
	{"date", func(r int) algebra.Value { return algebra.DateVal(9496 + int64(r)) }},
	{"float", func(r int) algebra.Value { return algebra.FloatVal(float64(r) + 0.5) }},
	{"string", func(r int) algebra.Value { return algebra.StringVal(fmt.Sprintf("v%05d", r)) }},
	// Ints and whole floats alternate, so the column demotes to the generic
	// representation while every lane still compares numerically.
	{"generic", func(r int) algebra.Value {
		if r%2 == 0 {
			return algebra.IntVal(int64(r))
		}
		return algebra.FloatVal(float64(r))
	}},
	{"nullable", func(r int) algebra.Value { return algebra.IntVal(int64(r)) }},
}

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
			case "nullable":
				v = algebra.Value{}
			}
		}
		rows[i] = []algebra.Value{algebra.IntVal(int64(i)), v}
	}
	return rows
}

// kernelPredicates are the shapes run per cell: the bare comparison, the
// And and Or forms whose first operand decides the lanes with k >= cut, a
// negation, and a column-vs-column comparison.
func kernelPredicates(lit algebra.Value, cut int) []namedPredicate {
	k, v := algebra.ColOperand(algebra.Ref("T", "k")), algebra.ColOperand(algebra.Ref("T", "v"))
	cutLit, vLit := algebra.LitOperand(algebra.IntVal(int64(cut))), algebra.LitOperand(lit)
	vLess, vAtLeast := algebra.Compare(v, algebra.OpLt, vLit), algebra.Compare(v, algebra.OpGe, vLit)
	return []namedPredicate{
		{"v<lit", vLess},
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

// TestSelectKernelParity holds σ on the batch executor to the row oracle
// over selectivity × column class × row count: the same error text, or the
// same rows in order with identical float bits and operator stats.
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
				bdb, rdb := dualScratch(t, engine.DefaultBlockRows, nullsSchema(algebra.TypeInt), rows)
				scan := algebra.NewScan("T", nullsSchema(algebra.TypeInt))
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
					if name == shortCircuitAnd && bres.Table.NumRows() != countLowRanks(n, cut) {
						t.Fatalf("%s/%s kept %d rows, want %d", label, name, bres.Table.NumRows(), countLowRanks(n, cut))
					}
				}
			}
		}
	}
}

// countLowRanks counts the rows i < cut whose scattered rank is below cut.
func countLowRanks(n, cut int) int {
	kept := 0
	for i := 0; i < cut; i++ {
		if i*7919%n < cut {
			kept++
		}
	}
	return kept
}

// BenchmarkSelectKernel times σ alone on the batch executor: n = 5 000 rows
// of T(k, v), "v < lit" keeping 2 %, 50 % and all of them, over a typed
// int column, a string column and a generic (demoted) one. DESIGN §12 and
// EXPERIMENTS quote it; the parity table above pins the answers.
func BenchmarkSelectKernel(b *testing.B) {
	const n = 5000
	for _, class := range kernelClasses {
		if class.name != "int" && class.name != "string" && class.name != "generic" {
			continue
		}
		for _, sel := range []struct {
			name string
			cut  int
		}{{"0.02", n / 50}, {"0.5", n / 2}, {"1.0", n}} {
			b.Run(class.name+"/sel="+sel.name, func(b *testing.B) {
				db := engine.NewDB(engine.DefaultBlockRows)
				tab, err := db.CreateTable("T", nullsSchema(algebra.TypeInt))
				if err != nil {
					b.Fatal(err)
				}
				if err := tab.Insert(kernelRows(class.name, class.value, n, n)...); err != nil {
					b.Fatal(err)
				}
				plan := algebra.NewSelect(algebra.NewScan("T", tab.Schema),
					algebra.Compare(algebra.ColOperand(algebra.Ref("T", "v")), algebra.OpLt, algebra.LitOperand(class.value(sel.cut))))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := db.Execute(plan)
					if err != nil {
						b.Fatal(err)
					}
					if res.Table.NumRows() != sel.cut {
						b.Fatalf("kept %d rows, want %d", res.Table.NumRows(), sel.cut)
					}
				}
			})
		}
	}
}
