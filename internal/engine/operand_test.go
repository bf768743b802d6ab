package engine_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// The operands of a join delta are charged to nobody, so the engine
// hash-joins inside them, and probes them where the probe keeps exactly the
// pairs the nested-loop kernel matches: the maintained view must stay
// multiset-equal to its recomputation, which is nested-loop. The hash
// operator matches the nested loop's pairs on every key. An operand
// evaluated whole is the probe with no filter: each join probes its right
// input by the left's keys.

// keyedDB holds L(k, g, p) and R(k, g, q): k the join key under test, g a
// small int second key, p/q the row number. The last row of each side is
// staged as a pending delta, so an operand is a dirty table's extension.
func keyedDB(t *testing.T, left, right []algebra.Value) *engine.DB {
	t.Helper()
	db := engine.NewDB(3)
	for _, side := range []struct {
		name string
		keys []algebra.Value
	}{{"L", left}, {"R", right}} {
		tab, err := db.CreateTable(side.name, keyedSchema(side.name, side.keys[0].Kind))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]algebra.Value, len(side.keys))
		for i, k := range side.keys {
			rows[i] = []algebra.Value{k, algebra.IntVal(int64(i % 2)), algebra.IntVal(int64(i))}
		}
		if err := tab.Insert(rows[:len(rows)-1]...); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertDelta(side.name, rows[len(rows)-1]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func keyedSchema(rel string, key algebra.Type) *algebra.Schema {
	return algebra.NewSchema(
		algebra.Column{Relation: rel, Name: "k", Type: key},
		algebra.Column{Relation: rel, Name: "g", Type: algebra.TypeInt},
		algebra.Column{Relation: rel, Name: "n", Type: algebra.TypeInt},
	)
}

func keyedJoin(left, right algebra.Type, cols ...string) *algebra.Join {
	on := make([]algebra.JoinCond, len(cols))
	for i, c := range cols {
		on[i] = algebra.JoinCond{Left: algebra.Ref("L", c), Right: algebra.Ref("R", c)}
	}
	return algebra.NewJoin(algebra.NewScan("L", keyedSchema("L", left)), algebra.NewScan("R", keyedSchema("R", right)), on)
}

func TestOperandJoinParity(t *testing.T) {
	nan := math.NaN()
	ints := func(ks ...int64) []algebra.Value {
		out := make([]algebra.Value, len(ks))
		for i, k := range ks {
			out[i] = algebra.IntVal(k)
		}
		return out
	}
	floats := func(ks ...float64) []algebra.Value {
		out := make([]algebra.Value, len(ks))
		for i, k := range ks {
			out[i] = algebra.FloatVal(k)
		}
		return out
	}
	null := algebra.Value{}
	for _, tc := range []struct {
		name        string
		left, right []algebra.Value
		on          []string
		wantProbe   bool
		wantRows    int
	}{
		{name: "int", left: ints(1, 2, 2, 3, 7), right: ints(2, 3, 3, 9, 2), wantProbe: true, wantRows: 6},
		{name: "int, two conditions", left: ints(1, 2, 2, 3, 7), right: ints(2, 3, 3, 9, 2), on: []string{"k", "g"}, wantProbe: true, wantRows: 3},
		{name: "date", left: []algebra.Value{algebra.DateVal(9496), algebra.DateVal(9497), algebra.DateVal(9497)},
			right: []algebra.Value{algebra.DateVal(9497), algebra.DateVal(9500)}, wantProbe: true, wantRows: 2},
		{name: "int against whole floats", left: ints(1, 2, 3, 3), right: floats(2, 3, 4, 3), wantProbe: true, wantRows: 5},
		{name: "fractional floats and signed zero", left: floats(1.5, 0, 2.5, 1.5), right: floats(math.Copysign(0, -1), 1.5, 9.25), wantProbe: true, wantRows: 3},
		// NaN compares equal to everything; a probe's key set would match
		// it only to NaN, so this operand is not probed.
		{name: "float with NaN", left: floats(1.5, nan, 2.5), right: floats(1.5, nan, 3.5), wantRows: 1 + 3 + 2},
		// A null matches nothing; a nullable key column is not probed.
		{name: "nullable int", left: []algebra.Value{algebra.IntVal(1), null, algebra.IntVal(2)},
			right: []algebra.Value{algebra.IntVal(2), null, null}, wantRows: 1},
		{name: "string", left: []algebra.Value{algebra.StringVal("a"), algebra.StringVal("b"), algebra.StringVal("b")},
			right: []algebra.Value{algebra.StringVal("b"), algebra.StringVal("c")}, wantProbe: true, wantRows: 2},
		// Beyond 2^53 two ints can share a float64 image: Value.Compare
		// goes through float64 and matches them; the equality index and a
		// probe key on the image too.
		{name: "int beyond 2^53", left: ints(1<<53, 5), right: ints(1<<53+1, 5), wantProbe: true, wantRows: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.on == nil {
				tc.on = []string{"k"}
			}
			join := keyedJoin(tc.left[0].Kind, tc.right[0].Kind, tc.on...)
			bdb, rdb := keyedDB(t, tc.left, tc.right), keyedDB(t, tc.left, tc.right)
			useRowOracle(t, rdb)
			spy := bdb.SpyJoins()
			operand, err := bdb.BeginMaintenance().Operand(join)
			if err != nil {
				t.Fatal(err)
			}
			if spy.Hash != 1 || spy.NestedLoop != 0 {
				t.Fatalf("operand join ran hash %d× and nested-loop %d×, want hash once", spy.Hash, spy.NestedLoop)
			}
			if gotProbe := spy.Probe == 1; gotProbe != tc.wantProbe || spy.Probe > 1 {
				t.Fatalf("operand join probed its right input %d×, want probe=%v", spy.Probe, tc.wantProbe)
			}
			rowOperand, err := rdb.BeginMaintenance().Operand(join)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(orderedRows(operand), orderedRows(rowOperand)) {
				t.Fatalf("batch and row operands differ:\n%v\n%v", orderedRows(operand), orderedRows(rowOperand))
			}
			// The reference: the same join, metered, nested-loop, over the
			// folded tables.
			applyDeltas(t, bdb)
			ref, err := bdb.Execute(join)
			if err != nil {
				t.Fatal(err)
			}
			if spy.NestedLoop == 0 {
				t.Fatal("the reference join did not run the nested-loop kernel")
			}
			if tableKey(operand) != tableKey(ref.Table) {
				t.Fatalf("operand differs from the nested-loop join as a multiset:\noperand %s\nnlj     %s", tableKey(operand), tableKey(ref.Table))
			}
			if operand.NumRows() != tc.wantRows {
				t.Fatalf("operand has %d rows, want %d", operand.NumRows(), tc.wantRows)
			}
		})
	}
}

// TestMaintainedViewNaNJoinKeyParity maintains (L ⋈ R) ⋈ S where L ⋈ R is
// keyed on floats with NaN lanes. L ⋈ R is the old-state operand of the
// outer join delta; had it lost a NaN-to-number pair, the maintained view
// would fall short of its recomputation.
func TestMaintainedViewNaNJoinKeyParity(t *testing.T) {
	nan := math.NaN()
	db := engine.NewDB(3)
	sSchema := algebra.NewSchema(
		algebra.Column{Relation: "S", Name: "n", Type: algebra.TypeInt},
		algebra.Column{Relation: "S", Name: "w", Type: algebra.TypeInt},
	)
	load := func(name string, schema *algebra.Schema, rows ...[]algebra.Value) {
		tab, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows...); err != nil {
			t.Fatal(err)
		}
	}
	keyed := func(ks ...float64) [][]algebra.Value {
		rows := make([][]algebra.Value, len(ks))
		for i, k := range ks {
			rows[i] = []algebra.Value{algebra.FloatVal(k), algebra.IntVal(0), algebra.IntVal(int64(i))}
		}
		return rows
	}
	load("L", keyedSchema("L", algebra.TypeFloat), keyed(1.5, nan, 2.5)...)
	load("R", keyedSchema("R", algebra.TypeFloat), keyed(1.5, nan, 3.5)...)
	load("S", sSchema, []algebra.Value{algebra.IntVal(0), algebra.IntVal(10)})
	plan := algebra.NewJoin(
		keyedJoin(algebra.TypeFloat, algebra.TypeFloat, "k"),
		algebra.NewScan("S", sSchema),
		[]algebra.JoinCond{{Left: algebra.Ref("R", "n"), Right: algebra.Ref("S", "n")}})
	if _, err := db.Materialize("v", plan); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []tableRows{
		{"S", [][]algebra.Value{{algebra.IntVal(1), algebra.IntVal(11)}, {algebra.IntVal(2), algebra.IntVal(12)}}},
		{"L", [][]algebra.Value{{algebra.FloatVal(3.5), algebra.IntVal(0), algebra.IntVal(3)}}},
	} {
		if err := db.InsertDelta(tr.table, tr.rows...); err != nil {
			t.Fatal(err)
		}
	}
	runEpoch(t, db, "v")
	assertViewsMatchRecompute(t, "NaN join key", db, []string{"v"})
	// Eight L ⋈ R pairs under nested-loop matching (NaN pairs with
	// everything), each with one S row once the deltas are in.
	if v, _ := db.View("v"); v.Table().NumRows() != 8 {
		t.Fatalf("maintained view has %d rows, want 8", v.Table().NumRows())
	}
}

// TestMaintenanceEpochReleasesOperands: what an epoch derived dies with the
// epoch value — an operand evaluated whole included; what the DB keeps for
// the next epoch is row counts. A memo that outlived its owner once grew the
// live heap fivefold; this is the check that it cannot come back unnoticed.
func TestMaintenanceEpochReleasesOperands(t *testing.T) {
	s := newStarSchemas()
	gen, load := starLoad(0.002, 7)
	views := s.benchViews()
	db := newStarDB(t, s, load, views)
	stage(t, db, []tableRows{{"Fact", gen.fact(3)}, {starDim(5), gen.dim(5, 1)}})

	collected := make(chan struct{})
	func() {
		ep := db.BeginMaintenance()
		for _, v := range views {
			if _, err := ep.IncrementalRefresh(v.name); err != nil {
				t.Fatal(err)
			}
		}
		// Dim05 ⋈ Fact in the new state, under eleven of the views,
		// evaluated whole.
		before, _ := ep.Operands()
		operand, err := ep.Operand(s.J(5, s.D(5), s.F()))
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := ep.Operands(); after != before+1 || operand.NumRows() == 0 {
			t.Fatalf("the whole operand (%d rows) counted %d → %d", operand.NumRows(), before, after)
		}
		runtime.SetFinalizer(operand, func(*engine.Table) { close(collected) })
		if err := ep.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
		if err := ep.Commit(); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("an operand of a finished epoch is still reachable")
	}
	if db.CarriedCounts() == 0 {
		t.Fatal("the committed epoch handed the next no row count")
	}
}
