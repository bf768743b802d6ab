package engine

import (
	"fmt"
	"math"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// claimSchema has one column of every storage representation: int, float,
// string and date, a string column whose nulls fall on word boundaries, one
// that stays all-null, and a pooled string column whose strings overlap
// across tags.
var claimSchema = algebra.NewSchema(
	algebra.Column{Relation: "R", Name: "i", Type: algebra.TypeInt},
	algebra.Column{Relation: "R", Name: "f", Type: algebra.TypeFloat},
	algebra.Column{Relation: "R", Name: "s", Type: algebra.TypeString},
	algebra.Column{Relation: "R", Name: "d", Type: algebra.TypeDate},
	algebra.Column{Relation: "R", Name: "g", Type: algebra.TypeString},
	algebra.Column{Relation: "R", Name: "z", Type: algebra.TypeInt},
	algebra.Column{Relation: "R", Name: "p", Type: algebra.TypeString},
)

// claimRows draws n rows whose values all carry tag, with nulls off every
// word boundary — except column p, whose even rows draw from eight strings
// every tag shares and whose odd rows hold strings of the tag's own. So two
// tables of different tags appended to one parent each reuse the parent's
// strings and add different new ones.
func claimRows(tag, n int) [][]algebra.Value {
	rows := make([][]algebra.Value, n)
	for r := range rows {
		k := int64(tag*1000 + r)
		row := []algebra.Value{
			algebra.IntVal(k), algebra.FloatVal(float64(k) + 0.5), algebra.StringVal(fmt.Sprint("s", k)),
			algebra.DateVal(20260101 + k), algebra.StringVal(fmt.Sprint("g", k)), {},
			algebra.StringVal(fmt.Sprint("p", r/2%8)),
		}
		if r%2 == 1 {
			row[6] = algebra.StringVal(fmt.Sprint("p", tag, "-", r%5))
		}
		if r%9 == 4 {
			row[6] = algebra.Value{}
		}
		if r%3 == 1 {
			row[1] = algebra.Value{}
		}
		if r%7 == 3 {
			row[1] = algebra.FloatVal(math.NaN())
		}
		if r%5 == 2 {
			row[2] = algebra.Value{}
		}
		if r%4 == 0 {
			row[4] = algebra.Value{}
		}
		rows[r] = row
	}
	return rows
}

func claimTable(t testing.TB, tag, n int) *Table {
	t.Helper()
	tb := NewTable("R", claimSchema, 4)
	if err := tb.Insert(claimRows(tag, n)...); err != nil {
		t.Fatal(err)
	}
	return tb
}

// renderAll renders every row in stored order, each value with its kind.
func renderAll(tb *Table) []string {
	out := make([]string, tb.NumRows())
	for i := range out {
		out[i] = fmt.Sprintf("%#v", tb.rowValues(i))
	}
	return out
}

func requireRows(t testing.TB, label string, tb *Table, want ...[]string) {
	t.Helper()
	var all []string
	for _, w := range want {
		all = append(all, w...)
	}
	got := renderAll(tb)
	if len(got) != len(all) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(all))
	}
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("%s: row %d is %s, want %s", label, i, got[i], all[i])
		}
	}
}

// TestSuccessorsOfOneTable builds two successors of one table with different
// rows, successors that add none (after the claim is taken, and of a slice),
// then a successor of a successor, then grows the parent in place: each holds
// exactly its own rows, at every parent size around a bitmap word. The
// parent is itself a successor (of an empty table), the way every table a
// maintenance epoch publishes is.
func TestSuccessorsOfOneTable(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		t.Run(fmt.Sprint(n, " rows"), func(t *testing.T) {
			successorSteps(t, n, func(string, ...*Table) {})
		})
	}
}

// successorSteps is TestSuccessorsOfOneTable at parent size n. After each
// step it calls check with the step's label and every table built so far.
func successorSteps(t testing.TB, n int, check func(label string, tbs ...*Table)) {
	parent := NewTable("R", claimSchema, 4).cloneAppendTable(claimTable(t, 1, n))
	a, b, c := claimTable(t, 2, 7), claimTable(t, 3, 70), claimTable(t, 4, 3)
	want := renderAll(parent)
	wantA, wantB, wantC := renderAll(a), renderAll(b), renderAll(c)
	digest, blocks := parent.Fingerprint(), parent.NumBlocks()
	stats := referenceRelationStats("R", parent)
	check("parent", parent)

	u1 := parent.cloneAppendTable(a)
	requireRows(t, "first successor", u1, want, wantA)
	check("first successor", parent, u1)
	u0 := parent.cloneAppendTable(claimTable(t, 6, 0))
	requireRows(t, "successor without rows", u0, want)
	// A slice holds no claim and reads the parent's dictionary, whose order
	// is not its own rows': its successor without rows copies all the same.
	from := min(n, 1)
	tail := parent.Slice(from, n).cloneAppendTable(claimTable(t, 6, 0))
	requireRows(t, "successor without rows of a slice", tail, want[from:])
	requireRows(t, "parent after its slice's successor", parent, want)
	check("successor without rows", parent, u1, u0, tail)
	u2 := parent.cloneAppendTable(b)
	u3 := u1.cloneAppendTable(c)
	requireRows(t, "second successor", u2, want, wantB)
	requireRows(t, "successor of the first", u3, want, wantA, wantC)
	check("second successor and successor of the first", parent, u1, u0, u2, u3)

	// The setup-phase path: Insert on the parent after it has successors.
	if err := parent.Insert(claimRows(5, 9)...); err != nil {
		t.Fatal(err)
	}
	requireRows(t, "first successor after the parent's Insert", u1, want, wantA)
	requireRows(t, "second successor after the parent's Insert", u2, want, wantB)
	requireRows(t, "parent after its Insert", parent, want, renderAll(claimTable(t, 5, 9)))
	requireRows(t, "third generation after the parent's Insert", u3, want, wantA, wantC)
	check("the parent's Insert", parent, u1, u0, u2, u3)

	grown := parent
	parent = grown.Slice(0, n)
	requireRows(t, "parent's rows", parent, want)
	if parent.Fingerprint() != digest || parent.NumBlocks() != blocks ||
		!identicalRelation(referenceRelationStats("R", parent), stats) {
		t.Fatal("the parent's digest, blocks or statistics changed")
	}
}

// TestUnrelatedTablesNeverExtend cages the lineage token's identity: a
// snapshot store writes only the rows past its mark for a table that
// Extends the one it persisted, so a table that does not hold the marked
// rows must never claim to. Two unrelated tables of equal rows, both marked,
// extend only their own marks, empty or not; and a second successor, whose
// claim was lost and which copied, extends neither its parent's mark nor
// its sibling's, nor the sibling its.
func TestUnrelatedTablesNeverExtend(t *testing.T) {
	// successor is the first successor of an empty table holding tag's n
	// strings, the way every table a maintenance epoch publishes is built.
	successor := func(tag, n int) *Table {
		vals := make([]algebra.Value, n)
		for i := range vals {
			vals[i] = algebra.StringVal(fmt.Sprint("s", tag, "-", i))
		}
		return oneColumn(t, algebra.TypeString, nil).cloneAppendTable(oneColumn(t, algebra.TypeString, vals))
	}
	for _, n := range []int{0, 9} {
		a, b := successor(1, n), successor(2, n)
		ma, mb := a.Mark(), b.Mark()
		if !a.Extends(ma) || !b.Extends(mb) {
			t.Fatalf("%d rows: a marked table does not extend its own mark", n)
		}
		if a.Extends(mb) || b.Extends(ma) {
			t.Fatalf("%d rows: an unrelated table extends another's mark", n)
		}
	}

	parent := successor(1, 9)
	mark := parent.Mark()
	first, second := parent.cloneAppendTable(successor(3, 5)), parent.cloneAppendTable(successor(4, 5))
	if !first.Extends(mark) {
		t.Fatal("the first successor does not extend its parent's mark")
	}
	if second.Extends(mark) {
		t.Fatal("the second successor extends its parent's mark")
	}
	if second.Extends(first.Mark()) || first.Extends(second.Mark()) {
		t.Fatal("one successor of a table extends its sibling's mark")
	}
}
