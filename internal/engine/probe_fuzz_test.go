package engine

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// probeKey decodes one join key from a byte: small ints, whole and
// fractional floats, NaN, null, short strings and the ints around 2^53
// whose float64 images coincide.
func probeKey(b byte) algebra.Value {
	v := int64(b >> 3 & 3)
	switch b & 7 {
	case 0:
		return algebra.IntVal(v)
	case 1:
		return algebra.FloatVal(float64(v))
	case 2:
		return algebra.FloatVal(float64(v) + 0.5)
	case 3:
		return algebra.FloatVal(math.NaN())
	case 4:
		return algebra.Value{}
	case 5:
		return algebra.StringVal(string(rune('a' + v)))
	case 6:
		return algebra.IntVal(1<<53 + v - 1)
	default:
		return algebra.FloatVal(1 << 53)
	}
}

// probeKeyOf decodes a key byte into a key of kind k: probeKey's when it is
// of that kind or null, else the same small number in kind k.
func probeKeyOf(k algebra.Type, b byte) algebra.Value {
	v := probeKey(b)
	if !v.IsValid() || v.Kind == k {
		return v
	}
	n := int64(b >> 3 & 3)
	switch k {
	case algebra.TypeInt:
		return algebra.IntVal(n)
	case algebra.TypeFloat:
		return algebra.FloatVal(float64(n))
	default:
		return algebra.StringVal(string(rune('a' + n)))
	}
}

// probeTables decodes the fuzz input into up to three tables A, B, C(k, g,
// n): two key bytes per row, dealt round-robin, n the row number; the last
// deltas[i] rows of table i are its pending Δ. A key column is declared of
// its first non-null key's kind (float when it has none) and decodes every
// key in that kind, so keys of different kinds meet across columns.
func probeTables(data []byte, deltas [3]int) (base, delta [3][][]algebra.Value, schemas [3]*algebra.Schema) {
	var rows [3][][]algebra.Value
	var kinds [3][2]algebra.Type
	for i := 0; i+1 < len(data) && i < 96; i += 2 {
		t := i / 2 % 3
		row := []algebra.Value{{}, {}, algebra.IntVal(int64(len(rows[t])))}
		for c := range 2 {
			if kinds[t][c] == 0 {
				kinds[t][c] = probeKey(data[i+c]).Kind
			}
			row[c] = probeKeyOf(kinds[t][c], data[i+c])
		}
		rows[t] = append(rows[t], row)
	}
	for t, rel := range []string{"A", "B", "C"} {
		cut := max(0, len(rows[t])-deltas[t])
		base[t], delta[t] = rows[t][:cut], rows[t][cut:]
		for c, k := range kinds[t] {
			if k == 0 {
				kinds[t][c] = algebra.TypeFloat
			}
		}
		schemas[t] = algebra.NewSchema(
			algebra.Column{Relation: rel, Name: "k", Type: kinds[t][0]},
			algebra.Column{Relation: rel, Name: "g", Type: kinds[t][1]},
			algebra.Column{Relation: rel, Name: "n", Type: algebra.TypeInt},
		)
	}
	return base, delta, schemas
}

// multiset renders a table's rows sorted: its contents as a multiset.
func multiset(t *Table) []string {
	if t == nil {
		return []string{}
	}
	out := make([]string, t.NumRows())
	for i := range out {
		out[i] = fmt.Sprint(t.rowValues(i))
	}
	sort.Strings(out)
	return out
}

// FuzzDeltaLegProbe: a join delta's leg that probes its operand meters and
// returns what the block nested loop over the operand built whole returns —
// the same rows as a multiset, the same OpStats — for 2- and 3-way joins on
// one or two conditions over int, float, NaN, null, string and ±2^53 keys,
// with a Δ on each side. The built operand is the plan executed on the
// epoch's old or new relation set, nested loop throughout.
func FuzzDeltaLegProbe(f *testing.F) {
	f.Add([]byte{0, 8, 8, 0, 16, 8, 0, 0, 8, 16, 24, 8, 0, 8}, uint8(0))
	f.Add([]byte{0, 1, 9, 2, 8, 3, 16, 17, 0, 4, 9, 9, 24, 1, 8, 0}, uint8(0x1f))
	f.Add([]byte{5, 5, 13, 5, 5, 13, 21, 5, 5, 13, 13, 13}, uint8(0x26))
	f.Add([]byte{6, 7, 14, 6, 22, 7, 6, 6, 7, 14, 6, 7, 22, 14}, uint8(0x3b))
	f.Add([]byte{3, 0, 4, 8, 0, 3, 8, 4, 3, 3, 0, 8, 4, 0, 16, 3}, uint8(0x7e))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		threeWay, twoConds, innerTwo, flip := shape&1 != 0, shape&2 != 0, shape&4 != 0, shape&8 != 0
		deltas := [3]int{int(shape >> 4 & 1), 1 + int(shape>>5&1), int(shape >> 6 & 3)}
		base, delta, schemas := probeTables(data, deltas)
		db := NewDB(2)
		rels := []string{"A", "B", "C"}
		for i, rel := range rels {
			tab, err := db.CreateTable(rel, schemas[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.Insert(base[i]...); err != nil {
				t.Fatal(err)
			}
			if len(delta[i]) > 0 {
				if err := db.InsertDelta(rel, delta[i]...); err != nil {
					t.Fatal(err)
				}
			}
		}
		scan := func(rel string) algebra.Node { return algebra.NewScan(rel, schemas[rel[0]-'A']) }
		cond := func(l, lc, r, rc string) algebra.JoinCond {
			return algebra.JoinCond{Left: algebra.Ref(l, lc), Right: algebra.Ref(r, rc)}
		}
		var operand algebra.Node = scan("B")
		gRel := "B"
		if threeWay {
			on := []algebra.JoinCond{cond("B", "g", "C", "k")}
			if innerTwo {
				on = append(on, cond("B", "k", "C", "g"))
			}
			operand = algebra.NewJoin(scan("B"), scan("C"), on)
			gRel = "C"
		}
		on := []algebra.JoinCond{cond("A", "k", "B", "k")}
		if twoConds {
			on = append(on, cond("A", "g", gRel, "g"))
		}
		j := algebra.NewJoin(scan("A"), operand, on)
		if flip {
			for i := range on {
				on[i].Left, on[i].Right = on[i].Right, on[i].Left
			}
			j = algebra.NewJoin(operand, scan("A"), on)
		}

		ep := db.BeginMaintenance()
		var res Result
		dl, err := ep.delta(j.Left, &res)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := ep.delta(j.Right, &res)
		if err != nil {
			t.Fatal(err)
		}
		leftOld, err := ep.base.Execute(j.Left)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
		rightNew, err := ep.next.Execute(j.Right)
		if err != nil {
			t.Fatal(err)
		}
		for _, leg := range []struct {
			name        string
			d           *Table
			deltaLeft   bool
			st          relState
			left, right *Table
		}{
			{"ΔL ⋈ R_new", dl.table, true, newState, dl.table, rightNew.Table},
			{"L_old ⋈ ΔR", dr.table, false, oldState, leftOld.Table, dr.table},
		} {
			full := rightNew.Table
			if !leg.deltaLeft {
				full = leftOld.Table
			}
			var probed, nested Result
			out, err := ep.leg(j, leg.d, leg.deltaLeft, leg.st, full.NumRows(), &probed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := db.batchJoin(j, leg.left, leg.right, &nested)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(probed.Ops, nested.Ops) {
				t.Fatalf("%s of %s: probed leg meters %+v, nested loop over the built operand %+v", leg.name, j.Label(), probed.Ops, nested.Ops)
			}
			if got, want := multiset(out), multiset(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s of %s: probed leg returns\n%v\nnested loop over the built operand\n%v", leg.name, j.Label(), got, want)
			}
		}
	})
}
