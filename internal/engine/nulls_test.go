package engine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// Null-bitmap and batch-shape edge cases. The row engine never had these
// shapes as first-class states — a null was just a zero Value in a row
// slice — so every case here runs both executors and requires identical
// behavior, then pins the behavior itself.

// nullsSchema is a two-column scratch schema: an int key and a payload.
func nullsSchema(payloadType algebra.Type) *algebra.Schema {
	return algebra.NewSchema(
		algebra.Column{Relation: "T", Name: "k", Type: algebra.TypeInt},
		algebra.Column{Relation: "T", Name: "v", Type: payloadType},
	)
}

// dualScratch builds one table of the given rows in a batch DB and a row
// DB.
func dualScratch(t *testing.T, blockRows int, schema *algebra.Schema, rows [][]algebra.Value) (bdb, rdb *engine.DB) {
	t.Helper()
	build := func() *engine.DB {
		db := engine.NewDB(blockRows)
		tab, err := db.CreateTable("T", schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		return db
	}
	bdb, rdb = build(), build()
	useRowOracle(t, rdb)
	return bdb, rdb
}

// runBoth executes the same plan on both databases and requires
// identical outcomes — same error text or same ordered rows and stats.
func runBoth(t *testing.T, label string, bdb, rdb *engine.DB, plan algebra.Node) (*engine.Result, *engine.Result) {
	t.Helper()
	bres, berr := bdb.Execute(plan)
	rres, rerr := rdb.Execute(plan)
	if (berr == nil) != (rerr == nil) || (berr != nil && berr.Error() != rerr.Error()) {
		t.Fatalf("%s: executor errors diverge\nbatch: %v\nrow:   %v", label, berr, rerr)
	}
	if berr != nil {
		return nil, nil
	}
	assertResultsIdentical(t, label, bres, rres)
	return bres, rres
}

// TestAllNullColumnParity drives an entirely-null payload column through
// select, project, join, and every aggregate, asserting both executors
// agree; nulls never satisfy a comparison, never match a join key, and
// leave SUM/AVG/MIN the null identically.
func TestAllNullColumnParity(t *testing.T) {
	schema := nullsSchema(algebra.TypeInt)
	rows := make([][]algebra.Value, 13)
	for i := range rows {
		rows[i] = []algebra.Value{algebra.IntVal(int64(i % 3)), {}}
	}
	bdb, rdb := dualScratch(t, 4, schema, rows)
	scan := func(db *engine.DB) algebra.Node {
		tab, err := db.Table("T")
		if err != nil {
			t.Fatal(err)
		}
		return algebra.NewScan("T", tab.Schema)
	}

	// Comparisons against a null lane are evaluation errors in both modes.
	sel := algebra.NewSelect(scan(bdb),
		algebra.Compare(algebra.ColOperand(algebra.Ref("T", "v")), algebra.OpGt,
			algebra.LitOperand(algebra.IntVal(0))))
	if _, err := bdb.Execute(sel); err == nil {
		t.Fatal("expected comparison against an all-null column to fail")
	}
	runBoth(t, "select over all-null column", bdb, rdb, sel)

	// Projection carries nulls through untouched.
	proj := algebra.NewProject(scan(bdb), []algebra.ColumnRef{algebra.Ref("T", "v")})
	bres, _ := runBoth(t, "project all-null column", bdb, rdb, proj)
	if got := bres.Table.Row(0).Values[0]; got.IsValid() {
		t.Fatalf("projected null became %v", got)
	}

	// A self-join keyed on the null column. Both algorithms match on
	// Value.Equal, which is false on comparison errors: nulls match nothing.
	join := algebra.NewJoin(scan(bdb), scan(bdb),
		[]algebra.JoinCond{{Left: algebra.Ref("T", "v"), Right: algebra.Ref("T", "v")}})
	for _, c := range []struct {
		algo engine.JoinAlgorithm
		want int
	}{
		{engine.JoinNestedLoop, 0},
		{engine.JoinHash, 0},
	} {
		bdb.SetJoinAlgorithm(c.algo)
		rdb.SetJoinAlgorithm(c.algo)
		bres, _ := runBoth(t, fmt.Sprintf("null-key join algo=%d", c.algo), bdb, rdb, join)
		if bres.Table.NumRows() != c.want {
			t.Fatalf("join on all-null key (algo=%d) matched %d rows, want %d",
				c.algo, bres.Table.NumRows(), c.want)
		}
	}
	bdb.SetJoinAlgorithm(engine.JoinNestedLoop)
	rdb.SetJoinAlgorithm(engine.JoinNestedLoop)

	// COUNT(*) counts null rows and COUNT(v) does not; SUM, AVG and MIN over
	// nulls alone are the null; grouping BY the null column groups all nulls
	// together. All identical across modes.
	for _, c := range []struct {
		name string
		fn   algebra.AggFunc
		arg  algebra.ColumnRef
	}{
		{"count-star", algebra.AggCount, algebra.ColumnRef{}},
		{"count-col", algebra.AggCount, algebra.Ref("T", "v")},
		{"sum", algebra.AggSum, algebra.Ref("T", "v")},
		{"avg", algebra.AggAvg, algebra.Ref("T", "v")},
		{"min", algebra.AggMin, algebra.Ref("T", "v")},
	} {
		agg := algebra.NewAggregate(scan(bdb),
			[]algebra.ColumnRef{algebra.Ref("T", "k")},
			[]algebra.Aggregation{{Func: c.fn, Arg: c.arg, Alias: "a"}})
		runBoth(t, "aggregate "+c.name, bdb, rdb, agg)
	}
	nullGroup := algebra.NewAggregate(scan(bdb),
		[]algebra.ColumnRef{algebra.Ref("T", "v")},
		[]algebra.Aggregation{{Func: algebra.AggCount, Alias: "n"}})
	bres, _ = runBoth(t, "group by all-null column", bdb, rdb, nullGroup)
	if bres.Table.NumRows() != 1 {
		t.Fatalf("grouping by an all-null column built %d groups, want 1", bres.Table.NumRows())
	}
	if got := bres.Table.Row(0).Values[1]; got != algebra.IntVal(13) {
		t.Fatalf("null group counted %s, want 13", got)
	}
}

// TestMixedNullColumnParity interleaves nulls with typed values — the
// shape that forces the batch executor off its typed fast paths lane by
// lane — and checks select/join/aggregate parity plus the values
// themselves.
func TestMixedNullColumnParity(t *testing.T) {
	schema := nullsSchema(algebra.TypeInt)
	var rows [][]algebra.Value
	for i := 0; i < 23; i++ {
		v := algebra.Value{}
		if i%3 != 0 {
			v = algebra.IntVal(int64(i * 10))
		}
		rows = append(rows, []algebra.Value{algebra.IntVal(int64(i % 4)), v})
	}
	bdb, rdb := dualScratch(t, 4, schema, rows)
	tab, err := bdb.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	scan := algebra.NewScan("T", tab.Schema)

	// Equality against a literal: null lanes error out of the comparison,
	// identically in both modes (the row engine hits the error on the
	// first null row).
	sel := algebra.NewSelect(scan,
		algebra.Compare(algebra.ColOperand(algebra.Ref("T", "v")), algebra.OpGe,
			algebra.LitOperand(algebra.IntVal(0))))
	runBoth(t, "select over mixed nulls", bdb, rdb, sel)

	// Joining on the mixed column. Valid values are all distinct, so they
	// contribute exactly the diagonal; null rows match nothing under either
	// algorithm.
	valid := 0
	for i := 0; i < 23; i++ {
		if i%3 != 0 {
			valid++
		}
	}
	join := algebra.NewJoin(algebra.Clone(scan), algebra.Clone(scan),
		[]algebra.JoinCond{{Left: algebra.Ref("T", "v"), Right: algebra.Ref("T", "v")}})
	for _, c := range []struct {
		algo engine.JoinAlgorithm
		want int
	}{
		{engine.JoinNestedLoop, valid},
		{engine.JoinHash, valid},
	} {
		bdb.SetJoinAlgorithm(c.algo)
		rdb.SetJoinAlgorithm(c.algo)
		bres, _ := runBoth(t, fmt.Sprintf("mixed-null join algo=%d", c.algo), bdb, rdb, join)
		if bres.Table.NumRows() != c.want {
			t.Fatalf("mixed-null self-join (algo=%d) matched %d rows, want %d",
				c.algo, bres.Table.NumRows(), c.want)
		}
	}
	bdb.SetJoinAlgorithm(engine.JoinNestedLoop)
	rdb.SetJoinAlgorithm(engine.JoinNestedLoop)

	// COUNT(v) per group counts the non-null rows; MIN skips the nulls —
	// identically.
	count := algebra.NewAggregate(algebra.Clone(scan),
		[]algebra.ColumnRef{algebra.Ref("T", "k")},
		[]algebra.Aggregation{{Func: algebra.AggCount, Arg: algebra.Ref("T", "v"), Alias: "n"}})
	runBoth(t, "count over mixed nulls", bdb, rdb, count)
	min := algebra.NewAggregate(algebra.Clone(scan),
		[]algebra.ColumnRef{algebra.Ref("T", "k")},
		[]algebra.Aggregation{{Func: algebra.AggMin, Arg: algebra.Ref("T", "v"), Alias: "m"}})
	runBoth(t, "min over mixed nulls", bdb, rdb, min)
}

// TestAggregateNullsFollowSQL runs every aggregate BY k over T(k, v)
// holding (1, 5), (1, NULL) and (2, NULL): COUNT(*) counts rows, COUNT(v)
// the non-null values, and SUM, AVG, MIN and MAX skip the null and are the
// null for group 2, which holds nothing else. Both executors give that
// answer, row for row.
func TestAggregateNullsFollowSQL(t *testing.T) {
	null := algebra.Value{}
	bdb, rdb := dualScratch(t, 4, nullsSchema(algebra.TypeInt), [][]algebra.Value{
		{algebra.IntVal(1), algebra.IntVal(5)},
		{algebra.IntVal(1), null},
		{algebra.IntVal(2), null},
	})
	tab, err := bdb.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	v := algebra.Ref("T", "v")
	plan := algebra.NewAggregate(algebra.NewScan("T", tab.Schema),
		[]algebra.ColumnRef{algebra.Ref("T", "k")},
		[]algebra.Aggregation{
			{Func: algebra.AggCount, Alias: "n"},
			{Func: algebra.AggCount, Arg: v, Alias: "nv"},
			{Func: algebra.AggSum, Arg: v, Alias: "total"},
			{Func: algebra.AggAvg, Arg: v, Alias: "mean"},
			{Func: algebra.AggMin, Arg: v, Alias: "lo"},
			{Func: algebra.AggMax, Arg: v, Alias: "hi"},
		})
	bres, _ := runBoth(t, "every aggregate over a null measure", bdb, rdb, plan)
	if bres == nil {
		t.Fatal("aggregating a null measure failed")
	}
	want := [][]algebra.Value{
		{algebra.IntVal(1), algebra.IntVal(2), algebra.IntVal(1), algebra.IntVal(5), algebra.FloatVal(5), algebra.IntVal(5), algebra.IntVal(5)},
		{algebra.IntVal(2), algebra.IntVal(1), algebra.IntVal(0), null, null, null, null},
	}
	got := bres.Rows()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("γ over nulls:\n got %v\nwant %v", got, want)
	}
}

// TestEmptyBatchParity drives zero-row tables through every operator in
// both modes: empty in, empty out, zero write blocks, no spurious groups.
func TestEmptyBatchParity(t *testing.T) {
	schema := nullsSchema(algebra.TypeString)
	bdb, rdb := dualScratch(t, 4, schema, nil)
	tab, err := bdb.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	scan := algebra.NewScan("T", tab.Schema)

	sel := algebra.NewSelect(scan,
		algebra.Eq(algebra.Ref("T", "v"), algebra.StringVal("x")))
	bres, _ := runBoth(t, "select on empty", bdb, rdb, sel)
	if bres.Table.NumRows() != 0 || bres.Ops[0].Writes != 0 {
		t.Fatalf("empty select produced rows=%d writes=%d", bres.Table.NumRows(), bres.Ops[0].Writes)
	}
	proj := algebra.NewProject(algebra.Clone(scan), []algebra.ColumnRef{algebra.Ref("T", "v")})
	runBoth(t, "project on empty", bdb, rdb, proj)
	join := algebra.NewJoin(algebra.Clone(scan), algebra.Clone(scan),
		[]algebra.JoinCond{{Left: algebra.Ref("T", "k"), Right: algebra.Ref("T", "k")}})
	for _, algo := range []engine.JoinAlgorithm{engine.JoinNestedLoop, engine.JoinHash} {
		bdb.SetJoinAlgorithm(algo)
		rdb.SetJoinAlgorithm(algo)
		runBoth(t, fmt.Sprintf("join on empty algo=%d", algo), bdb, rdb, join)
	}
	agg := algebra.NewAggregate(algebra.Clone(scan), nil,
		[]algebra.Aggregation{{Func: algebra.AggCount, Alias: "n"}})
	bres, _ = runBoth(t, "global aggregate on empty", bdb, rdb, agg)
	if bres.Table.NumRows() != 0 {
		t.Fatalf("global aggregate over zero rows emitted %d rows, want 0 (no input groups)", bres.Table.NumRows())
	}
}

// TestBatchBoundaryDeltasParity exercises delta batches whose sizes land
// exactly on, one under, and one over the block boundary, including an
// empty refresh (no pending deltas) and null-bearing delta rows. Both
// executors must agree on every refresh result and the final view.
func TestBatchBoundaryDeltasParity(t *testing.T) {
	const blockRows = 4
	schema := nullsSchema(algebra.TypeInt)
	seed := make([][]algebra.Value, blockRows) // exactly one full block
	for i := range seed {
		seed[i] = []algebra.Value{algebra.IntVal(int64(i)), algebra.IntVal(int64(100 + i))}
	}
	bdb, rdb := dualScratch(t, blockRows, schema, seed)
	for _, db := range []*engine.DB{bdb, rdb} {
		tab, err := db.Table("T")
		if err != nil {
			t.Fatal(err)
		}
		plan := algebra.NewSelect(algebra.NewScan("T", tab.Schema),
			algebra.Compare(algebra.ColOperand(algebra.Ref("T", "k")), algebra.OpGe,
				algebra.LitOperand(algebra.IntVal(0))))
		if _, err := db.Materialize("mv", plan); err != nil {
			t.Fatal(err)
		}
	}

	// One whole epoch on each side: refresh, apply, commit.
	refreshBoth := func(label string) {
		t.Helper()
		assertResultsIdentical(t, label, runEpoch(t, bdb, "mv")[0], runEpoch(t, rdb, "mv")[0])
	}

	// No pending deltas at all: an empty refresh.
	refreshBoth("empty refresh")

	// Delta sizes straddling the block boundary: blockRows-1, blockRows,
	// blockRows+1, and a lone row — applying each immediately.
	for _, n := range []int{blockRows - 1, blockRows, blockRows + 1, 1} {
		rows := make([][]algebra.Value, n)
		for i := range rows {
			v := algebra.IntVal(int64(1000*n + i))
			if i == 0 && n == blockRows {
				v = algebra.Value{} // null landing exactly on a block boundary
			}
			rows[i] = []algebra.Value{algebra.IntVal(int64(n)), v}
		}
		for _, db := range []*engine.DB{bdb, rdb} {
			if err := db.InsertDelta("T", rows...); err != nil {
				t.Fatal(err)
			}
		}
		refreshBoth(fmt.Sprintf("delta of %d rows", n))
		assertTablesIdentical(t, fmt.Sprintf("after %d-row delta", n), bdb, rdb, "T")
	}

	bv, err := bdb.View("mv")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := rdb.View("mv")
	if err != nil {
		t.Fatal(err)
	}
	b, r := orderedRows(bv.Table()), orderedRows(rv.Table())
	if strings.Join(b, "\n") != strings.Join(r, "\n") {
		t.Fatalf("maintained views diverge:\nbatch:\n%s\nrow:\n%s",
			strings.Join(b, "\n"), strings.Join(r, "\n"))
	}
	// 4 seed rows + (3+4+5+1) delta rows, all satisfying k >= 0.
	if len(b) != 17 {
		t.Fatalf("maintained view has %d rows, want 17", len(b))
	}
}

// TestFloatJoinSpecialValuesParity pins join matching on NaN, infinities,
// and signed zero. Value.Compare reports cmp 0 when either side is NaN —
// both orderings fail — so a NaN key matches *every* row, under nested loop
// and hash join alike. Signed zeros compare equal everywhere. The batch
// executor's equality-index fast paths must refuse NaN-bearing columns to
// keep this.
func TestFloatJoinSpecialValuesParity(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mkRows := func(vals ...float64) [][]algebra.Value {
		rows := make([][]algebra.Value, len(vals))
		for i, f := range vals {
			rows[i] = []algebra.Value{algebra.IntVal(int64(i)), algebra.FloatVal(f)}
		}
		return rows
	}
	for _, tc := range []struct {
		name     string
		vals     []float64
		wantNLJ  int
		wantHash int
	}{
		{
			// 5 non-NaN rows: 1.5 pairs 2*2, Inf, -Inf, 2.5 each 1 -> 7
			// matches; every pair touching a NaN row matches (49 total -
			// 25 NaN-free = 24).
			name:     "nan and infinities",
			vals:     []float64{1.5, nan, inf, -inf, 2.5, nan, 1.5},
			wantNLJ:  7 + 24,
			wantHash: 7 + 24,
		},
		{
			// ±0.0 compare equal: a 2x2 zero block plus 1.0.
			name:     "signed zero",
			vals:     []float64{0, math.Copysign(0, -1), 1},
			wantNLJ:  5,
			wantHash: 5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema := nullsSchema(algebra.TypeFloat)
			bdb, rdb := dualScratch(t, 3, schema, mkRows(tc.vals...))
			tab, err := bdb.Table("T")
			if err != nil {
				t.Fatal(err)
			}
			scan := algebra.NewScan("T", tab.Schema)
			join := algebra.NewJoin(scan, scan,
				[]algebra.JoinCond{{Left: algebra.Ref("T", "v"), Right: algebra.Ref("T", "v")}})
			for _, c := range []struct {
				algo engine.JoinAlgorithm
				want int
			}{
				{engine.JoinNestedLoop, tc.wantNLJ},
				{engine.JoinHash, tc.wantHash},
			} {
				bdb.SetJoinAlgorithm(c.algo)
				rdb.SetJoinAlgorithm(c.algo)
				bres, _ := runBoth(t, fmt.Sprintf("%s algo=%d", tc.name, c.algo), bdb, rdb, join)
				if got := bres.Table.NumRows(); got != c.want {
					t.Fatalf("self-join (%s, algo=%d) matched %d rows, want %d",
						tc.name, c.algo, got, c.want)
				}
			}
		})
	}
}
