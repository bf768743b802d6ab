package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// The selection vector's cage. σ returns its input's columns with the lanes
// it keeps, π shares both, a join, γ or Execute's root gathers the columns
// it keeps, and a stored string column answers col = 'lit' from its
// postings. These tests hold the postings to the lane kernels and every
// plan shape to the row oracle (rows, order, per-operator stats), keep every
// selection inside RelationSet.exec, and race the first σ's of a fresh view.

// missSchemas are the miss path's shape in small: a fact F(id, attr, name,
// note, measure, fk) whose attr is pooled (far fewer strings than rows),
// name unique and note pooled with nulls, beside a dimension D(id, label,
// tag).
func missSchemas() (f, d *algebra.Schema) {
	col := func(rel, name string, typ algebra.Type) algebra.Column {
		return algebra.Column{Relation: rel, Name: name, Type: typ}
	}
	f = algebra.NewSchema(col("F", "id", algebra.TypeInt), col("F", "attr", algebra.TypeString),
		col("F", "name", algebra.TypeString), col("F", "note", algebra.TypeString),
		col("F", "measure", algebra.TypeFloat), col("F", "fk", algebra.TypeInt))
	d = algebra.NewSchema(col("D", "id", algebra.TypeInt), col("D", "label", algebra.TypeString),
		col("D", "tag", algebra.TypeString))
	return f, d
}

// missRows fills F with n rows and D with 24, from seed.
func missRows(n int, seed int64) (f, d [][]algebra.Value) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		note := algebra.StringVal(fmt.Sprintf("q%d", r.Intn(3)))
		if i%7 == 3 {
			note = algebra.Value{}
		}
		f = append(f, []algebra.Value{algebra.IntVal(int64(i)), algebra.StringVal(fmt.Sprintf("p%d", r.Intn(8))),
			algebra.StringVal(fmt.Sprintf("n%05d", i)), note, algebra.FloatVal(float64(r.Intn(1000)) / 4),
			algebra.IntVal(int64(r.Intn(30)))})
	}
	for i := 0; i < 24; i++ {
		d = append(d, []algebra.Value{algebra.IntVal(int64(i)), algebra.StringVal(fmt.Sprintf("d%02d", i)),
			algebra.StringVal(fmt.Sprintf("t%d", i%3))})
	}
	return f, d
}

// missJoin is F ⋈ D on F.fk = D.id.
func missJoin() *algebra.Join {
	fs, ds := missSchemas()
	return algebra.NewJoin(algebra.NewScan("F", fs), algebra.NewScan("D", ds),
		[]algebra.JoinCond{{Left: algebra.Ref("F", "fk"), Right: algebra.Ref("D", "id")}})
}

// missDB builds F and D with n fact rows and materializes V = F ⋈ D.
func missDB(t testing.TB, n int, seed int64) *DB {
	t.Helper()
	db := NewDB(8)
	fs, ds := missSchemas()
	frows, drows := missRows(n, seed)
	for _, spec := range []struct {
		name   string
		schema *algebra.Schema
		rows   [][]algebra.Value
	}{{"F", fs, frows}, {"D", ds, drows}} {
		tab, err := db.CreateTable(spec.name, spec.schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(spec.rows...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Materialize("V", missJoin()); err != nil {
		t.Fatal(err)
	}
	return db
}

// eqLit is rel.col = 'lit'.
func eqLit(rel, col, lit string) algebra.Predicate {
	return algebra.Eq(algebra.Ref(rel, col), algebra.StringVal(lit))
}

// intCmp is rel.col op k.
func intCmp(rel, col string, op algebra.CompareOp, k int64) algebra.Predicate {
	return algebra.Compare(algebra.ColOperand(algebra.Ref(rel, col)), op, algebra.LitOperand(algebra.IntVal(k)))
}

// TestPostingsMatchLaneScan holds σ col = 'lit' over a stored column, which
// reads postings, to the lane kernels the same column runs under an
// anonymous table: random dictionaries from 1 string to one per row, every
// literal of the dictionary and one absent from it, with and without an
// incoming selection, over an empty table too.
func TestPostingsMatchLaneScan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	schema := algebra.NewSchema(algebra.Column{Relation: "T", Name: "s", Type: algebra.TypeString})
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(400)
		if trial == 0 {
			n = 0
		}
		pool := 1 + r.Intn(n+1)
		stored := NewTable("T", schema, 4)
		for i := 0; i < n; i++ {
			if err := stored.Insert([]algebra.Value{algebra.StringVal(fmt.Sprintf("s%d", r.Intn(pool)))}); err != nil {
				t.Fatal(err)
			}
		}
		anon := &Table{Schema: schema, BlockRows: 4, cols: stored.cols, nrows: stored.nrows}
		var sels [][]int32
		sels = append(sels, nil)
		for _, keep := range []int{2, 5} {
			sel := []int32{}
			for i := 0; i < n; i++ {
				if r.Intn(keep) == 0 {
					sel = append(sel, int32(i))
				}
			}
			sels = append(sels, sel)
		}
		lits := []string{"absent"}
		for k := 0; k < pool; k++ {
			lits = append(lits, fmt.Sprintf("s%d", k))
		}
		for _, lit := range lits {
			for si, sel := range sels {
				var fp, fl laneFail
				pred := eqLit("T", "s", lit)
				got := evalPredBatch(pred, stored, sel, &fp)
				want := evalPredBatch(pred, anon, sel, &fl)
				if fp.err != nil || fl.err != nil {
					t.Fatalf("trial %d: errors %v / %v", trial, fp.err, fl.err)
				}
				if !slices.Equal(got, want) || got == nil {
					t.Fatalf("trial %d (n %d, pool %d), s = %q, selection %d: postings %v, lane scan %v", trial, n, pool, lit, si, got, want)
				}
			}
		}
		if c := stored.cols[0]; n > 0 && len(c.dict) < c.n && c.post.Load() == nil {
			t.Fatalf("trial %d: σ over a stored column of %d rows and %d strings built no postings", trial, c.n, len(c.dict))
		}
		if anon.storedCols() || stored.cols[0].post.Load() != nil && len(stored.cols[0].dict) >= n {
			t.Fatalf("trial %d: postings where the lane kernels should run", trial)
		}
	}
}

// TestPostingsAfterSetupInsert: Insert grows a setup-phase table's columns
// in place after σ built postings for them, and the next σ sees the new
// rows (the row-count guard); an empty Insert changes nothing.
func TestPostingsAfterSetupInsert(t *testing.T) {
	db := NewDB(4)
	fs, _ := missSchemas()
	tab, err := db.CreateTable("F", fs)
	if err != nil {
		t.Fatal(err)
	}
	frows, _ := missRows(300, 7)
	if err := tab.Insert(frows[:200]...); err != nil {
		t.Fatal(err)
	}
	plan := algebra.NewSelect(algebra.NewScan("F", fs), eqLit("F", "attr", "p3"))
	count := func() int {
		res, err := db.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.NumRows()
	}
	want := func(rows [][]algebra.Value) (k int) {
		for _, row := range rows {
			if row[1].Str == "p3" {
				k++
			}
		}
		return k
	}
	if got := count(); got != want(frows[:200]) {
		t.Fatalf("before Insert: %d rows, want %d", got, want(frows[:200]))
	}
	first := tab.cols[1].post.Load()
	if first == nil {
		t.Fatal("σ built no postings for F.attr")
	}
	if err := tab.Insert(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != want(frows[:200]) || tab.cols[1].post.Load() != first {
		t.Fatalf("after an empty Insert: %d rows (want %d), postings rebuilt %v", got, want(frows[:200]), tab.cols[1].post.Load() != first)
	}
	if err := tab.Insert(frows[200:]...); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != want(frows) {
		t.Fatalf("after Insert: %d rows, want %d: σ read postings the column outgrew", got, want(frows))
	}
}

// selectionPlans are the plan shapes a selection vector travels through,
// over F, D and the stored view V.
func selectionPlans(t testing.TB, db *DB) map[string]algebra.Node {
	fs, ds := missSchemas()
	v, err := db.View("V")
	if err != nil {
		t.Fatal(err)
	}
	scanF, scanD, scanV := algebra.NewScan("F", fs), algebra.NewScan("D", ds), algebra.NewScan("V", v.table.Schema)
	sel := func(in algebra.Node, p algebra.Predicate) algebra.Node { return algebra.NewSelect(in, p) }
	proj := func(in algebra.Node, cols ...algebra.ColumnRef) algebra.Node { return algebra.NewProject(in, cols) }
	on := []algebra.JoinCond{{Left: algebra.Ref("F", "fk"), Right: algebra.Ref("D", "id")}}
	agg := func(in algebra.Node, group []algebra.ColumnRef) algebra.Node {
		return algebra.NewAggregate(in, group, []algebra.Aggregation{
			{Func: algebra.AggCount, Alias: "n"},
			{Func: algebra.AggSum, Arg: algebra.Ref("F", "measure"), Alias: "total"},
			{Func: algebra.AggMin, Arg: algebra.Ref("F", "name"), Alias: "first"},
			{Func: algebra.AggMax, Arg: algebra.Ref("F", "note"), Alias: "last"},
		})
	}
	p3 := eqLit("F", "attr", "p3")
	return map[string]algebra.Node{
		"σ":                 sel(scanF, p3),
		"σ absent":          sel(scanF, eqLit("F", "attr", "nowhere")),
		"σ unique strings":  sel(scanF, eqLit("F", "name", "n00042")),
		"σ nulls":           sel(scanF, eqLit("F", "note", "q1")),
		"σ and":             sel(scanF, algebra.NewAnd(p3, intCmp("F", "id", algebra.OpLt, 150))),
		"σ or":              sel(scanF, algebra.NewOr(p3, eqLit("F", "attr", "p5"), intCmp("F", "id", algebra.OpGe, 190))),
		"σ not":             sel(scanF, algebra.NewNot(p3)),
		"π∘σ view":          proj(sel(scanV, p3), algebra.Ref("F", "id"), algebra.Ref("F", "measure"), algebra.Ref("D", "label")),
		"σ∘σ postings":      sel(sel(scanF, intCmp("F", "id", algebra.OpGe, 60)), eqLit("F", "attr", "p1")),
		"σ∘σ lanes":         sel(sel(scanF, p3), intCmp("F", "id", algebra.OpLt, 120)),
		"σ∘σ same":          sel(sel(scanV, p3), p3),
		"σ∘π":               sel(proj(scanF, algebra.Ref("F", "attr"), algebra.Ref("F", "id")), eqLit("F", "attr", "p6")),
		"σ∘σ∘σ empty":       sel(sel(sel(scanF, p3), eqLit("F", "attr", "p4")), intCmp("F", "id", algebra.OpGt, 3)),
		"σ over join":       sel(missJoin(), eqLit("D", "tag", "t1")),
		"σ ⋈ D":             algebra.NewJoin(sel(scanF, p3), scanD, on),
		"F ⋈ σ":             algebra.NewJoin(scanF, sel(scanD, eqLit("D", "tag", "t2")), on),
		"σ ⋈ σ":             algebra.NewJoin(sel(scanF, p3), sel(scanD, eqLit("D", "tag", "t0")), on),
		"π∘σ ⋈ D":           algebra.NewJoin(proj(sel(scanF, p3), algebra.Ref("F", "fk"), algebra.Ref("F", "name")), scanD, on),
		"γ∘σ":               agg(sel(scanF, intCmp("F", "id", algebra.OpLt, 170)), []algebra.ColumnRef{algebra.Ref("F", "attr")}),
		"γ∘σ global":        agg(sel(scanV, p3), nil),
		"γ∘σ by tag":        agg(sel(scanV, eqLit("F", "attr", "p2")), []algebra.ColumnRef{algebra.Ref("D", "tag")}),
		"σ unbound over σ":  sel(sel(scanF, p3), eqLit("X", "y", "z")),
		"σ∘σ over nothing":  sel(sel(scanF, eqLit("F", "attr", "nowhere")), eqLit("X", "y", "z")),
		"π∘σ∘σ view":        proj(sel(sel(scanV, eqLit("D", "tag", "t1")), p3), algebra.Ref("D", "label")),
		"γ∘π∘σ view":        agg(proj(sel(scanV, p3), algebra.Ref("F", "measure"), algebra.Ref("F", "name"), algebra.Ref("F", "note")), nil),
		"σ on a view's key": sel(scanV, intCmp("D", "id", algebra.OpEq, 5)),
	}
}

// TestSelectionVectorParity runs every plan shape a selection travels
// through on the batch executor and on the row oracle, under both join
// algorithms, and requires the same rows in the same order, the same
// per-operator stats, or the same error.
func TestSelectionVectorParity(t *testing.T) {
	for _, algo := range []JoinAlgorithm{JoinNestedLoop, JoinHash} {
		bdb, rdb := missDB(t, 200, 5), missDB(t, 200, 5)
		oracle := rdb.UseRowOracle()
		bdb.SetJoinAlgorithm(algo)
		rdb.SetJoinAlgorithm(algo)
		plans := selectionPlans(t, bdb)
		for _, name := range sortedNames(plans) {
			label := fmt.Sprintf("%s (join %d)", name, algo)
			bres, berr := bdb.Execute(plans[name])
			rres, rerr := rdb.Execute(plans[name])
			if (berr == nil) != (rerr == nil) || berr != nil && berr.Error() != rerr.Error() {
				t.Fatalf("%s: errors diverge\nbatch: %v\nrow:   %v", label, berr, rerr)
			}
			if berr != nil {
				continue
			}
			if !reflect.DeepEqual(bres.Ops, rres.Ops) {
				t.Fatalf("%s: operator stats diverge\nbatch: %+v\nrow:   %+v", label, bres.Ops, rres.Ops)
			}
			if b, r := renderRows(bres.Table), renderRows(rres.Table); !slices.Equal(b, r) {
				t.Fatalf("%s: rows diverge\nbatch: %v\nrow:   %v", label, b, r)
			}
			if bres.Table.sel != nil {
				t.Fatalf("%s: Execute returned a table that carries a selection", label)
			}
		}
		if oracle.Ran() == 0 {
			t.Fatal("the row oracle executed no operator")
		}
	}
}

// renderRows renders a table's rows in stored order.
func renderRows(tab *Table) []string {
	out := make([]string, tab.NumRows())
	for i := range out {
		out[i] = tab.Row(i).String()
	}
	return out
}

// selSpy sits in the operators seam and records every operator input that
// carries a selection while watch is set.
type selSpy struct {
	operators
	watch   bool
	reached []string
}

func (s *selSpy) saw(op string, ins ...*Table) {
	for _, in := range ins {
		if s.watch && in.sel != nil {
			s.reached = append(s.reached, op)
		}
	}
}

func (s *selSpy) sel(db *DB, v *algebra.Select, in *Table, res *Result) (*Table, error) {
	s.saw("σ", in)
	return s.operators.sel(db, v, in, res)
}

func (s *selSpy) project(db *DB, p *algebra.Project, in *Table, res *Result) (*Table, error) {
	s.saw("π", in)
	return s.operators.project(db, p, in, res)
}

func (s *selSpy) nlJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	s.saw("⋈", left, right)
	return s.operators.nlJoin(db, j, left, right, res)
}

func (s *selSpy) hashJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	s.saw("hash ⋈", left, right)
	return s.operators.hashJoin(db, j, left, right, res)
}

func (s *selSpy) aggregate(db *DB, a *algebra.Aggregate, in *Table, res *Result) (*Table, error) {
	s.saw("γ", in)
	return s.operators.aggregate(db, a, in, res)
}

func (s *selSpy) probe(db *DB, in *Table, col int, ks *keySet) *Table {
	s.saw("probe", in)
	return s.operators.probe(db, in, col, ks)
}

// TestSelectionStaysInExec maintains views whose plans hold σ under π, a
// join and γ through an epoch's delta walker and its operands, and requires
// that no operator there was handed a selection, that no Δ the epoch
// memoized, no operand and no published table carries one, and that
// Execute — what the result cache stores — returns none.
func TestSelectionStaysInExec(t *testing.T) {
	db := missDB(t, 200, 9)
	fs, ds := missSchemas()
	p3 := eqLit("F", "attr", "p3")
	views := map[string]algebra.Node{
		"W_pis": algebra.NewProject(algebra.NewSelect(algebra.NewScan("F", fs), p3),
			[]algebra.ColumnRef{algebra.Ref("F", "id"), algebra.Ref("F", "fk")}),
		"W_join": algebra.NewJoin(algebra.NewSelect(algebra.NewScan("F", fs), p3),
			algebra.NewSelect(algebra.NewScan("D", ds), eqLit("D", "tag", "t1")),
			[]algebra.JoinCond{{Left: algebra.Ref("F", "fk"), Right: algebra.Ref("D", "id")}}),
		"W_agg": algebra.NewAggregate(algebra.NewSelect(algebra.NewSelect(algebra.NewScan("F", fs), p3),
			intCmp("F", "id", algebra.OpGe, 10)), []algebra.ColumnRef{algebra.Ref("F", "fk")},
			[]algebra.Aggregation{{Func: algebra.AggSum, Arg: algebra.Ref("F", "measure"), Alias: "total"}}),
	}
	for _, name := range sortedNames(views) {
		if _, err := db.Materialize(name, views[name]); err != nil {
			t.Fatal(err)
		}
	}
	spy := &selSpy{operators: db.ops}
	db.ops = spy
	frows, drows := missRows(40, 10)
	for i := range frows {
		frows[i][0] = algebra.IntVal(int64(1000 + i))
	}
	for i := range drows {
		drows[i][0] = algebra.IntVal(int64(100 + i))
	}
	if err := db.InsertDelta("F", frows...); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertDelta("D", drows...); err != nil {
		t.Fatal(err)
	}

	ep := db.BeginMaintenance()
	spy.watch = true
	for _, name := range sortedNames(views) {
		if _, err := ep.IncrementalRefresh(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, plan := range views {
		if agg, ok := plan.(*algebra.Aggregate); ok {
			plan = agg.Input // an operand is select-project-join
		}
		out, err := ep.Operand(plan)
		if err != nil {
			t.Fatal(err)
		}
		if out.sel != nil {
			t.Errorf("the operand of %s carries a selection", plan.Canonical())
		}
	}
	spy.watch = false
	for id, e := range ep.memo {
		if e.table != nil && e.table.sel != nil {
			t.Errorf("the epoch memoized a Δ (expression %d) that carries a selection", id)
		}
	}
	if err := ep.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(spy.reached) > 0 {
		t.Errorf("a selection reached the epoch's operators: %v", spy.reached)
	}
	rs := db.Relations()
	for _, name := range rs.Views() {
		if v, _ := rs.View(name); v.table.sel != nil {
			t.Errorf("view %s is stored with a selection", name)
		}
	}
	for _, plan := range selectionPlans(t, db) {
		if res, err := rs.Execute(plan); err == nil && res.Table.sel != nil {
			t.Errorf("Execute(%s) returned a table that carries a selection", plan.Canonical())
		}
	}
}

// TestPostingsConcurrentFirstSelect races the first σ's over a fresh view:
// every reader builds or reuses the same column's postings (the race
// detector watches the cache), and all of them answer with the same rows.
func TestPostingsConcurrentFirstSelect(t *testing.T) {
	db := missDB(t, 400, 13)
	v, err := db.View("V")
	if err != nil {
		t.Fatal(err)
	}
	scanV := algebra.NewScan("V", v.table.Schema)
	lits := []string{"p0", "p3", "p7", "nowhere"}
	want := make([][]string, len(lits))
	for i, lit := range lits {
		// The answers computed by the lane kernels, before any postings.
		anon := &Table{Schema: v.table.Schema, BlockRows: v.table.BlockRows, cols: v.table.cols, nrows: v.table.nrows}
		var f laneFail
		want[i] = renderRows(anon.gatherTable(anon.Schema, anon.BlockRows, evalPredBatch(eqLit("F", "attr", lit), anon, nil, &f)))
	}
	if v.table.cols[1].post.Load() != nil {
		t.Fatal("the fresh view already has postings")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(lits))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range lits {
				i := (g + k) % len(lits)
				res, err := db.Execute(algebra.NewSelect(scanV, eqLit("F", "attr", lits[i])))
				if err != nil {
					errs <- err
					return
				}
				if got := renderRows(res.Table); !slices.Equal(got, want[i]) {
					errs <- fmt.Errorf("reader %d, attr = %q: %d rows, want %d", g, lits[i], len(got), len(want[i]))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v.table.cols[1].post.Load() == nil {
		t.Fatal("no reader cached the view column's postings")
	}
}
