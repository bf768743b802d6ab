package engine_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/snapshot"
)

// The maintenance-epoch cage: a generated multi-view, multi-epoch schedule
// on the star warehouse, run three ways — every view through one shared
// epoch, every view alone in an epoch that is then let go (the per-view
// accounting the shared epoch must reproduce), and the shared epoch again on
// the row oracle — with every maintained view compared against recomputation
// from base after every epoch.

// tableRows is one InsertDelta call.
type tableRows struct {
	table string
	rows  [][]algebra.Value
}

// starEpoch is one generated epoch: the staged deltas; optionally a
// straggler batch that arrives after the first view refreshed — the next
// epoch's delta, so refreshing that view a second time repeats the first —
// optionally an ApplyDeltas that is injected to fail, after which the epoch
// is let go with nothing published, a retry batch arrives, and the next
// epoch takes the old rows and the retry batch in together.
type starEpoch struct {
	deltas    []tableRows
	straggler []tableRows
	failApply bool
	retry     []tableRows
}

// genStarSchedule draws the schedule. Epochs 0–4 pin the shapes the cage
// must cover (every table dirty; fact only, so every dimension Δ is empty;
// dimensions only, so the fact Δ is empty; a straggler; a failed apply);
// the rest dirty a random subset.
func genStarSchedule(g *starRows, epochs int) []starEpoch {
	batch := func(fact int, dims ...int) []tableRows {
		var out []tableRows
		// Dimension rows first, so a fact row of the same batch may
		// reference them (Δ ⋈ Δ).
		for _, d := range dims {
			out = append(out, tableRows{starDim(d), g.dim(d, 1+g.r.Intn(2))})
		}
		if fact > 0 {
			out = append(out, tableRows{"Fact", g.fact(fact)})
		}
		return out
	}
	allDims := []int{0, 1, 2, 3, 4, 5}
	sched := make([]starEpoch, epochs)
	for e := range sched {
		switch e {
		case 0:
			sched[e].deltas = batch(5, allDims...)
		case 1:
			sched[e].deltas = batch(6)
		case 2:
			sched[e].deltas = batch(0, 1, 3, 4)
		case 3:
			sched[e] = starEpoch{deltas: batch(4, allDims...), straggler: batch(2, 3)}
		case 4:
			// The epoch that is let go adds strings no table holds yet; its
			// retry adds others, to a dimension the failed batch grew too.
			sched[e] = starEpoch{deltas: novel(batch(5, 0, 5), "lost"), failApply: true, retry: novel(batch(3, 0, 2), "retry")}
		default:
			var dims []int
			for _, d := range allDims {
				if g.r.Intn(2) == 0 {
					dims = append(dims, d)
				}
			}
			sched[e].deltas = batch(g.r.Intn(7), dims...)
		}
	}
	return sched
}

// novel gives the dimension rows of batch strings of their own: every name,
// and the attr of every other row, becomes tag followed by the row's id.
func novel(batch []tableRows, tag string) []tableRows {
	for _, tr := range batch {
		if tr.table == "Fact" {
			continue
		}
		for i, row := range tr.rows {
			row[2] = algebra.StringVal(fmt.Sprintf("%s-n%d", tag, row[0].Int))
			if i%2 == 0 {
				row[1] = algebra.StringVal(fmt.Sprintf("%s-v%d", tag, row[0].Int))
			}
		}
	}
	return batch
}

// namedResult is one refresh of the schedule.
type namedResult struct {
	label string
	res   *engine.Result
}

func stage(t testing.TB, db *engine.DB, batch []tableRows) {
	t.Helper()
	for _, tr := range batch {
		if err := db.InsertDelta(tr.table, tr.rows...); err != nil {
			t.Fatal(err)
		}
	}
}

// epochRun is what runStarEpoch saw: every incremental refresh in call
// order beside what the same view's refresh is when it is alone in its epoch,
// every recomputation, and the engine epochs it opened (for their counts).
type epochRun struct {
	got, alone []namedResult
	recomputed []namedResult
	epochs     []*engine.MaintenanceEpoch
}

// runStarEpoch drives one generated epoch on db — stage, refresh every view
// in name order, apply, recompute the recompute views in name order, commit.
// The reference epochs are let go: they publish and consume nothing.
func runStarEpoch(t testing.TB, db *engine.DB, views, recompute []string, ep starEpoch) epochRun {
	t.Helper()
	var run epochRun
	refreshAll := func(pass string, straggler []tableRows) *engine.MaintenanceEpoch {
		byView := make(map[string]*engine.Result, len(views))
		for _, view := range views {
			res, err := db.BeginMaintenance().IncrementalRefresh(view)
			if err != nil {
				t.Fatalf("%s alone: %v", pass+view, err)
			}
			byView[view] = res
		}
		epoch := db.BeginMaintenance()
		run.epochs = append(run.epochs, epoch)
		reads, writes := db.Counter.Reads(), db.Counter.Writes()
		call := func(label, view string) {
			res, err := epoch.IncrementalRefresh(view)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			run.got = append(run.got, namedResult{label, res})
			run.alone = append(run.alone, namedResult{label, byView[view]})
			reads += byView[view].TotalReads()
			writes += byView[view].TotalWrites()
		}
		for i, view := range views {
			call(pass+view, view)
			if i == 0 && straggler != nil {
				stage(t, db, straggler)
				call(pass+view+" after straggler", view)
			}
		}
		// The shared epoch moved the counter as the views alone would have.
		if r, w := db.Counter.Reads(), db.Counter.Writes(); r != reads || w != writes {
			t.Fatalf("%sshared epoch left the counter at %d reads / %d writes, the views alone add up to %d / %d",
				pass, r, w, reads, writes)
		}
		return epoch
	}
	stage(t, db, ep.deltas)
	epoch := refreshAll("", ep.straggler)
	if ep.failApply {
		before := db.Relations()
		db.SetInjector(fault.New(1, fault.Plan{fault.SiteEngineApplyDeltas: {ErrProb: 1}}))
		if err := epoch.ApplyDeltas(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("ApplyDeltas under injection returned %v", err)
		}
		db.SetInjector(nil)
		// The epoch is let go: the next one finds the old rows and the retry
		// batch pending together.
		if db.Relations() != before {
			t.Fatal("the epoch whose ApplyDeltas failed published something")
		}
		stage(t, db, ep.retry)
		epoch = refreshAll("retry ", nil)
	}
	if err := epoch.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	for _, view := range recompute {
		res, err := epoch.Refresh(view)
		if err != nil {
			t.Fatalf("recompute %s: %v", view, err)
		}
		run.recomputed = append(run.recomputed, namedResult{"recompute " + view, res})
	}
	if err := epoch.Commit(); err != nil {
		t.Fatal(err)
	}
	return run
}

// joinOperands is how many distinct operands the views' join deltas pair
// against that are no stored table: the row counts an epoch needs, one per
// distinct join input that is no scan.
func joinOperands(plans []algebra.Node) int {
	seen := make(map[string]bool)
	for _, plan := range plans {
		algebra.Walk(plan, func(n algebra.Node) {
			if _, ok := n.(*algebra.Join); ok {
				for _, c := range n.Children() {
					if _, scan := c.(*algebra.Scan); !scan {
						seen[c.Canonical()] = true
					}
				}
			}
		})
	}
	return len(seen)
}

// assertViewsMatchRecompute compares every stored view, as a multiset, with
// its plan executed over the base tables.
func assertViewsMatchRecompute(t *testing.T, label string, db *engine.DB, views []string) {
	t.Helper()
	for _, name := range views {
		v, err := db.View(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Execute(v.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if tableKey(v.Table()) != tableKey(res.Table) {
			t.Fatalf("%s: maintained view %s (%d rows) differs from recomputation (%d rows)",
				label, name, v.Table().NumRows(), res.Table.NumRows())
		}
	}
}

// cageViews is the benchmark's view set plus what it lacks: a MIN/MAX root,
// a second view with the plan of an existing one, and a three-way join keyed
// on NaN, null and mixed int/float columns (see gateTables).
func cageViews(s *star) []starView {
	return append(s.benchViews(),
		starView{"minmax", s.A(1, s.J(1, s.D(1), s.F()), algebra.AggMin, algebra.AggMax, algebra.AggCount)},
		starView{"twin8", s.A(3, s.J(3, s.D(3), s.F()), algebra.AggCount, algebra.AggSum)},
		starView{"gate3", gateJoin()},
	)
}

// The gate tables KA, KB, KC(f, n, m) carry the join keys on which the
// nested loop's match is not plain equality: f is a float column with NaN
// lanes (NaN matches everything), n an int column with nulls (a null matches
// nothing) and m an int column in KA and KB but a float one in KC, so the
// join on it matches an int with a float (1 = 1.0).
var gateRels = []string{"KA", "KB", "KC"}

func gateSchema(rel string) *algebra.Schema {
	return algebra.NewSchema(
		algebra.Column{Relation: rel, Name: "f", Type: algebra.TypeFloat},
		algebra.Column{Relation: rel, Name: "n", Type: algebra.TypeInt},
		algebra.Column{Relation: rel, Name: "m", Type: gateM(rel)},
	)
}

// gateM is the declared type of rel's column m.
func gateM(rel string) algebra.Type {
	if rel == "KC" {
		return algebra.TypeFloat
	}
	return algebra.TypeInt
}

// gateJoin is (KA ⋈f KB) ⋈n,m KC.
func gateJoin() algebra.Node {
	scan := func(rel string) algebra.Node { return algebra.NewScan(rel, gateSchema(rel)) }
	ab := algebra.NewJoin(scan("KA"), scan("KB"),
		[]algebra.JoinCond{{Left: algebra.Ref("KA", "f"), Right: algebra.Ref("KB", "f")}})
	return algebra.NewJoin(ab, scan("KC"), []algebra.JoinCond{
		{Left: algebra.Ref("KB", "n"), Right: algebra.Ref("KC", "n")},
		{Left: algebra.Ref("KA", "m"), Right: algebra.Ref("KC", "m")},
	})
}

// gateRows draws n rows of gate table rel from small domains, so that every
// kind of key meets every other.
func gateRows(r *rand.Rand, rel string, n int) [][]algebra.Value {
	fs := []float64{1.5, 2.5, 3, math.NaN()}
	ms := []algebra.Value{algebra.IntVal(1), algebra.IntVal(2)}
	if gateM(rel) == algebra.TypeFloat {
		ms = []algebra.Value{algebra.FloatVal(1), algebra.FloatVal(2.5)}
	}
	rows := make([][]algebra.Value, n)
	for i := range rows {
		key := algebra.Value{}
		if k := r.Intn(4); k < 3 {
			key = algebra.IntVal(int64(1 + k))
		}
		rows[i] = []algebra.Value{algebra.FloatVal(fs[r.Intn(len(fs))]), key, ms[r.Intn(len(ms))]}
	}
	return rows
}

// gateTables creates the gate tables on db, loaded from their own seed.
func gateTables(t testing.TB, db *engine.DB, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for _, rel := range gateRels {
		tb, err := db.CreateTable(rel, gateSchema(rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(gateRows(r, rel, 8)...); err != nil {
			t.Fatal(err)
		}
	}
}

// newCageDB is the star warehouse plus the gate tables, with the cage views.
func newCageDB(t testing.TB, s *star, load map[string][][]algebra.Value, views []starView) *engine.DB {
	t.Helper()
	db := newStarDB(t, s, load, nil)
	gateTables(t, db, 7)
	for _, v := range views {
		if _, err := db.Materialize(v.name, v.plan); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// cageShape is what the cage does around one generated epoch beyond its
// deltas: a publication that is no maintenance epoch before it, or a view a
// policy holds back.
type cageShape struct {
	// swap is dropped and materialized again, under another plan, before
	// the epoch.
	swap *starView
	// restore is dropped and restored from its own stored rows (what a
	// restart's recovery installs) before the epoch.
	restore string
	// deferred is not refreshed in the epoch; the next one recomputes it.
	deferred string
	// refresh is recomputed in an epoch of its own, which applies no delta,
	// before the epoch.
	refresh string
}

// published reports whether the shape publishes before its epoch.
func (c cageShape) published() bool { return c.swap != nil || c.restore != "" || c.refresh != "" }

// cageShapes pins the shapes after the schedule's own (epochs 0–4).
func cageShapes(s *star) map[int]cageShape {
	return map[int]cageShape{
		5: {deferred: "tmp14"},
		6: {swap: &starView{"tmp33", s.J(1, s.F(), s.D(1))}},
		7: {restore: "result8"},
		8: {refresh: "tmp6"},
	}
}

// overView is a view over a view: tmp6 joined with a dimension, recomputed
// after the deltas are applied in every epoch, so it reads the epoch's own
// successor of tmp6.
func overView(s *star, db *engine.DB) starView {
	v, err := db.View("tmp6")
	if err != nil {
		panic(err)
	}
	return starView{"over6", s.J(2, algebra.NewScan("tmp6", v.Table().Schema), s.D(2))}
}

// applyShape makes the publications of shape on db before its epoch.
func applyShape(t *testing.T, db *engine.DB, shape cageShape) {
	t.Helper()
	if shape.swap != nil {
		if err := db.DropView(shape.swap.name); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Materialize(shape.swap.name, shape.swap.plan); err != nil {
			t.Fatal(err)
		}
	}
	if shape.refresh != "" {
		if _, err := db.Refresh(shape.refresh); err != nil {
			t.Fatal(err)
		}
	}
	if shape.restore != "" {
		v, err := db.View(shape.restore)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DropView(shape.restore); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RestoreView(shape.restore, v.Plan, v.Table()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaintenanceEpochsMatchRecompute(t *testing.T) {
	const (
		scale  = 0.004
		seed   = 20261003
		epochs = 10
	)
	s := newStarSchemas()
	gen, load := starLoad(scale, seed)
	sched := genStarSchedule(gen, epochs)
	gateGen := rand.New(rand.NewSource(seed))
	views := cageViews(s)
	shapes := cageShapes(s)
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.name
	}
	sort.Strings(names)

	shared := newCageDB(t, s, load, views)
	oracle := newCageDB(t, s, load, views)
	useRowOracle(t, oracle)
	over := overView(s, shared)
	for _, db := range []*engine.DB{shared, oracle} {
		if _, err := db.Materialize(over.name, over.plan); err != nil {
			t.Fatal(err)
		}
	}
	staged := make(map[string]int)
	rowsBefore := make(map[string]int)
	for _, name := range shared.Tables() {
		tb, _ := shared.Table(name)
		rowsBefore[name] = tb.NumRows()
	}

	var recomputeNext []string
	for e, ep := range sched {
		label := fmt.Sprintf("epoch %d", e)
		// Gate-table rows ride along in two epochs of three.
		if e%3 != 1 {
			for _, rel := range gateRels {
				if gateGen.Intn(3) > 0 {
					ep.deltas = append(ep.deltas, tableRows{rel, gateRows(gateGen, rel, 1+gateGen.Intn(2))})
				}
			}
		}
		for _, batch := range [][]tableRows{ep.deltas, ep.straggler, ep.retry} {
			for _, tr := range batch {
				staged[tr.table] += len(tr.rows)
			}
		}
		shape := shapes[e]
		for _, db := range []*engine.DB{shared, oracle} {
			applyShape(t, db, shape)
		}
		incremental := make([]string, 0, len(names))
		for _, name := range names {
			if name != shape.deferred && !slices.Contains(recomputeNext, name) {
				incremental = append(incremental, name)
			}
		}
		recompute := append(recomputeNext, over.name)
		sort.Strings(recompute)
		// The reference: every refresh alone in its epoch.
		run := runStarEpoch(t, shared, incremental, recompute, ep)
		row := runStarEpoch(t, oracle, incremental, recompute, ep)
		got, want := run.got, run.alone
		if len(got) != len(want) || len(got) != len(row.got) {
			t.Fatalf("%s: %d / %d / %d refreshes", label, len(got), len(want), len(row.got))
		}
		for i := range got {
			at := label + " " + got[i].label
			if !reflect.DeepEqual(got[i].res.Ops, want[i].res.Ops) {
				t.Fatalf("%s: operator stats differ from the per-view epoch\nshared:   %+v\nper view: %+v",
					at, got[i].res.Ops, want[i].res.Ops)
			}
			if tableKey(got[i].res.Table) != tableKey(want[i].res.Table) {
				t.Fatalf("%s: refreshed rows differ from the per-view epoch", at)
			}
			assertResultsIdentical(t, at+" (row oracle)", got[i].res, row.got[i].res)
		}
		for i := range run.recomputed {
			assertResultsIdentical(t, label+" "+run.recomputed[i].label+" (row oracle)", run.recomputed[i].res, row.recomputed[i].res)
		}
		current := append(slices.Clone(incremental), recompute...)
		for _, db := range []*engine.DB{shared, oracle} {
			assertViewsMatchRecompute(t, label, db, current)
		}
		assertCountersIdentical(t, label+" shared vs row oracle", shared, oracle)
		recomputeNext = nil
		if shape.deferred != "" {
			recomputeNext = []string{shape.deferred}
		}

		// Every row count once: taken by evaluating its operand whole in the
		// first epoch and after every publication that is no maintenance
		// epoch, carried in every other — past the epoch that was let go too.
		var plans []algebra.Node
		for _, name := range incremental {
			v, _ := shared.View(name)
			plans = append(plans, v.Plan)
		}
		need := joinOperands(plans)
		for i, epoch := range run.epochs {
			whole, carried := epoch.Operands()
			if e == 0 || shape.published() {
				if carried != 0 || whole < need {
					t.Fatalf("%s (engine epoch %d): %d row counts carried and %d operands evaluated whole past a publication; the plans need %d counts",
						label, i, carried, whole, need)
				}
			} else if carried != need {
				t.Fatalf("%s (engine epoch %d): %d row counts carried, %d evaluated whole; the plans need %d counts",
					label, i, carried, whole, need)
			}
		}
	}
	// Lost by no epoch: every staged row — stragglers and the rows of the
	// epoch that was let go included — is in its base table, once.
	for name, was := range rowsBefore {
		tb, _ := shared.Table(name)
		if pending := shared.PendingDeltaRows(name); tb.NumRows() != was+staged[name] || pending != 0 {
			t.Errorf("%s: %d rows and %d pending after the schedule, want %d and 0", name, tb.NumRows(), pending, was+staged[name])
		}
	}
}

// TestDictionaryHoldsNoStringTwice checks the invariant grouping by code
// rests on — a string column's dictionary holds each string once, and every
// code and index entry points at its own string — on every string column of
// every published table and view after each epoch of the cage's schedule
// (shapes, straggler and the epoch let go with new strings included), and on
// every table TestSuccessorsOfOneTable's steps build.
func TestDictionaryHoldsNoStringTwice(t *testing.T) {
	check := func(label string, tbs ...*engine.Table) {
		t.Helper()
		for _, tb := range tbs {
			if err := tb.DictionaryFault(); err != nil {
				t.Fatalf("%s: %s: %v", label, tb.Name, err)
			}
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		engine.SuccessorSteps(t, n, func(label string, tbs ...*engine.Table) {
			check(fmt.Sprintf("%d rows, %s", n, label), tbs...)
		})
	}

	s := newStarSchemas()
	gen, load := starLoad(0.004, 20261003)
	views := cageViews(s)
	shapes := cageShapes(s)
	db := newCageDB(t, s, load, views)
	over := overView(s, db)
	if _, err := db.Materialize(over.name, over.plan); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range views {
		names = append(names, v.name)
	}
	sort.Strings(names)
	published := func(label string) {
		rs := db.Relations()
		for _, name := range rs.Tables() {
			tb, _ := rs.Table(name)
			check(label, tb)
		}
		for _, name := range rs.Views() {
			v, _ := rs.View(name)
			check(label, v.Table())
		}
	}
	published("loaded")
	deferred := ""
	for e, ep := range genStarSchedule(gen, 10) {
		shape := shapes[e]
		applyShape(t, db, shape)
		published(fmt.Sprintf("epoch %d, before", e))
		var incremental []string
		recompute := []string{over.name}
		for _, name := range names {
			switch name {
			case shape.deferred:
			case deferred:
				recompute = append(recompute, name)
			default:
				incremental = append(incremental, name)
			}
		}
		sort.Strings(recompute)
		runStarEpoch(t, db, incremental, recompute, ep)
		published(fmt.Sprintf("epoch %d", e))
		deferred = shape.deferred
	}
}

// TestCarriedCountsMatchForgotten is the carried-count cage. Over the
// cage's schedule and shapes, every epoch runs on the carried row counts in
// an epoch that applies its deltas and is let go, then on the same DB with
// its carried counts hidden — every count taken afresh, by evaluating its
// operand whole — and then for real, on the carried counts; all three must
// meter every operator identically. The counts must survive every let-go
// epoch (those and the schedule's failed apply) and die with every other
// publication (a view swapped, a view restored, a recomputation in an epoch
// of its own). The mutation that turns it red: a count carried from a let-go
// epoch's new state — ApplyDeltas handing the next epoch its counts instead
// of Commit.
func TestCarriedCountsMatchForgotten(t *testing.T) {
	const seed = 20261016
	s := newStarSchemas()
	gen, load := starLoad(0.004, seed)
	sched := genStarSchedule(gen, 10)
	gateGen := rand.New(rand.NewSource(seed))
	views := cageViews(s)
	shapes := cageShapes(s)
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.name
	}
	sort.Strings(names)
	db := newCageDB(t, s, load, views)

	// refresh runs every view but the skipped one in a fresh epoch.
	refresh := func(skip string) (*engine.MaintenanceEpoch, [][]engine.OpStats) {
		ep := db.BeginMaintenance()
		var ops [][]engine.OpStats
		for _, name := range names {
			if name == skip {
				continue
			}
			res, err := ep.IncrementalRefresh(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ops = append(ops, res.Ops)
		}
		return ep, ops
	}
	// compare runs the epoch three times on the pending rows: on the carried
	// counts, applying its deltas and then let go; with the counts hidden,
	// let go too; and for real, on the carried counts again, which returns
	// the epoch. All three must meter every operator identically.
	compare := func(label, skip string) *engine.MaintenanceEpoch {
		letGo, first := refresh(skip)
		if err := letGo.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
		restore := db.HideCarriedCounts()
		_, want := refresh(skip)
		restore()
		ep, got := refresh(skip)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) || !reflect.DeepEqual(first[i], want[i]) {
				t.Fatalf("%s: refresh %d meters otherwise on carried counts than on counts taken afresh\ncarried: %+v\nlet go:  %+v\nafresh:  %+v",
					label, i, got[i], first[i], want[i])
			}
		}
		return ep
	}

	deferred := ""
	for e, ep := range sched {
		label := fmt.Sprintf("epoch %d", e)
		shape := shapes[e]
		applyShape(t, db, shape)
		if published := e == 0 || shape.published(); published != (db.CarriedCounts() == 0) {
			t.Fatalf("%s: %d row counts carried; a publication came between: %v", label, db.CarriedCounts(), published)
		}
		if e%3 != 1 {
			for _, rel := range gateRels {
				ep.deltas = append(ep.deltas, tableRows{rel, gateRows(gateGen, rel, 1)})
			}
		}
		stage(t, db, ep.deltas)
		epoch := compare(label, shape.deferred)
		if ep.failApply {
			carried := db.CarriedCounts()
			db.SetInjector(fault.New(1, fault.Plan{fault.SiteEngineApplyDeltas: {ErrProb: 1}}))
			if err := epoch.ApplyDeltas(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("ApplyDeltas under injection returned %v", err)
			}
			db.SetInjector(nil)
			if got := db.CarriedCounts(); got != carried || got == 0 {
				t.Fatalf("%s: the epoch let go at a failed apply left %d carried counts of %d", label, got, carried)
			}
			stage(t, db, ep.retry)
			epoch = compare(label+" retry", shape.deferred)
		}
		stage(t, db, ep.straggler)
		if err := epoch.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
		if deferred != "" {
			if _, err := epoch.Refresh(deferred); err != nil {
				t.Fatal(err)
			}
		}
		if err := epoch.Commit(); err != nil {
			t.Fatal(err)
		}
		deferred = shape.deferred
		if db.CarriedCounts() == 0 {
			t.Fatalf("%s: the committed epoch carried no row count", label)
		}
	}
	assertViewsMatchRecompute(t, "after the schedule", db, names)
}

// TestIdenticalViewSharesEverything: a second view with the plan of an
// existing one costs an epoch no evaluation at all — no join, no probe, no
// row count — in the epoch that takes the counts and in the next, which
// carries them.
func TestIdenticalViewSharesEverything(t *testing.T) {
	s := newStarSchemas()
	type work struct{ joins, probes, whole, carried int }
	epochs := func(views []starView) []work {
		gen, load := starLoad(0.002, 3)
		db := newStarDB(t, s, load, views)
		spy := db.SpyJoins()
		var out []work
		for e := 0; e < 2; e++ {
			stage(t, db, []tableRows{{"Fact", gen.fact(4)}, {starDim(3), gen.dim(3, 1)}, {starDim(0), gen.dim(0, 2)}})
			joins, probes := spy.NestedLoop+spy.Hash, spy.Probe
			ep := db.BeginMaintenance()
			for _, v := range views {
				if _, err := ep.IncrementalRefresh(v.name); err != nil {
					t.Fatal(err)
				}
			}
			w := work{joins: spy.NestedLoop + spy.Hash - joins, probes: spy.Probe - probes}
			w.whole, w.carried = ep.Operands()
			out = append(out, w)
			if err := ep.ApplyDeltas(); err != nil {
				t.Fatal(err)
			}
			if err := ep.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	alone := epochs(s.benchViews())
	twin := epochs(append(s.benchViews(),
		starView{"twin8", s.A(3, s.J(3, s.D(3), s.F()), algebra.AggCount, algebra.AggSum)}))
	if !reflect.DeepEqual(alone, twin) {
		t.Fatalf("a second identical view changed the epochs' work: %+v → %+v", alone, twin)
	}
	if alone[1].whole != 0 || alone[1].carried == 0 || alone[1].probes == 0 {
		t.Fatalf("the second epoch did not run on carried counts and probes: %+v", alone[1])
	}
}

// streamBatch is one streamed batch on all seven tables: 5 fact rows, one
// per dimension — what StreamDeltas(0.0025) sends.
func streamBatch(gen *starRows) []tableRows {
	batch := []tableRows{{"Fact", gen.fact(5)}}
	for d := 0; d < starDims; d++ {
		batch = append(batch, tableRows{starDim(d), gen.dim(d, 1)})
	}
	return batch
}

// refreshEpoch refreshes every view in one epoch value, applies and commits.
func refreshEpoch(b testing.TB, db *engine.DB, views []starView) {
	ep := db.BeginMaintenance()
	for _, v := range views {
		if _, err := ep.IncrementalRefresh(v.name); err != nil {
			b.Fatal(err)
		}
	}
	if err := ep.ApplyDeltas(); err != nil {
		b.Fatal(err)
	}
	if err := ep.Commit(); err != nil {
		b.Fatal(err)
	}
}

// TestMaintenanceEpochAllocBudget guards the O(Δ) epoch without a wall
// clock, after the precedent of TestMissAllocBudget: on the benchmark's star
// warehouse, a steady epoch — a streamBatch staged, the 22 views refreshed in
// one epoch value, ApplyDeltas, Commit, on carried row counts — allocates at
// most 1 MB at the mixed_fresh scale (0.02), and at ten times the rows (0.2)
// at most 1.5 × what it does at 0.02. An epoch that builds the operands its
// join deltas pair against again allocated 8.7 MB at 0.02 and 73.7 MB at 0.2.
func TestMaintenanceEpochAllocBudget(t *testing.T) {
	const epochs, budget = 10, 1 << 20
	perEpoch := func(scale float64) float64 {
		s := newStarSchemas()
		gen, load := starLoad(scale, 1)
		views := s.benchViews()
		db := newStarDB(t, s, load, views)
		sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
		batches := make([][]tableRows, epochs+1)
		for i := range batches {
			batches[i] = streamBatch(gen)
		}
		epoch := func(batch []tableRows) (whole int) {
			stage(t, db, batch)
			ep := db.BeginMaintenance()
			for _, v := range views {
				if _, err := ep.IncrementalRefresh(v.name); err != nil {
					t.Fatal(err)
				}
			}
			if err := ep.ApplyDeltas(); err != nil {
				t.Fatal(err)
			}
			if err := ep.Commit(); err != nil {
				t.Fatal(err)
			}
			whole, _ = ep.Operands()
			return whole
		}
		epoch(batches[0]) // takes the row counts, off the budget
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		steady := 0
		for _, batch := range batches[1:] {
			steady += epoch(batch)
		}
		runtime.ReadMemStats(&after)
		if steady != 0 {
			t.Fatalf("scale %g: the steady epochs evaluated %d operands whole", scale, steady)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / epochs
	}
	small, large := perEpoch(0.02), perEpoch(0.2)
	t.Logf("one steady epoch allocates %.0f bytes at scale 0.02, %.0f at 0.2 (budget %d and 1.5×)", small, large, budget)
	if small > budget {
		t.Errorf("a steady epoch at scale 0.02 allocates %.0f bytes, budget %d", small, budget)
	}
	if large > 1.5*small {
		t.Errorf("a steady epoch at scale 0.2 allocates %.0f bytes, %.2f× the %.0f at 0.02 (budget 1.5×)", large, large/small, small)
	}
}

// BenchmarkMaintenanceEpoch is the delta-refresh layer's own number: the
// benchmark's 22-view star warehouse at its mixed_fresh scale (0.02) and at
// ten times its rows (0.2), one epoch = a streamBatch staged, every view
// refreshed in one epoch value, ApplyDeltas, Commit. Tables and views grow by
// a batch per iteration, as they do under the benchmark's writer. One epoch
// runs before the timer starts: it takes every row count once, by
// evaluating the operands whole; every timed epoch carries them.
func BenchmarkMaintenanceEpoch(b *testing.B) {
	for _, scale := range []float64{0.02, 0.2} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			s := newStarSchemas()
			gen, load := starLoad(scale, 1)
			views := s.benchViews()
			db := newStarDB(b, s, load, views)
			sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
			stage(b, db, streamBatch(gen))
			refreshEpoch(b, db, views)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := streamBatch(gen)
				b.StartTimer()
				stage(b, db, batch)
				refreshEpoch(b, db, views)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/epoch")
		})
	}
}

// BenchmarkCheckpointTables is the checkpoint's own number, on the warehouse
// and the epochs of BenchmarkMaintenanceEpoch, at its two scales: every 8
// epochs, what the serving layer's checkpoint does — the lineage digest of
// every view, then a real snapshot.Store.Checkpoint of every table and view
// (statistics, the pack of what is new, the manifest) into b.TempDir(),
// retention 3. Only the checkpoint is timed, and the first one of the store,
// which writes every relation whole, is taken before the timer starts.
// "kernels" is the code; "reference" first runs, over every relation, the
// boxed statistics and digest oracles the typed kernels replaced. ms, MB
// written (the pack) and files fsynced (the pack, when anything is new, and
// the manifest; two directory syncs come on top) per checkpoint; B/op is what
// one checkpoint allocates.
func BenchmarkCheckpointTables(b *testing.B) {
	reference := func(rels *engine.RelationSet) {
		for _, name := range rels.Tables() {
			t, _ := rels.Table(name)
			engine.ReferenceRelationStats(name, t)
		}
		for _, name := range rels.Views() {
			v, _ := rels.View(name)
			engine.ReferenceRelationStats(name, v.Table())
			engine.ReferenceFingerprint(v.Table())
		}
	}
	for _, run := range []struct {
		name string
		pass func(*engine.RelationSet)
	}{{"kernels", nil}, {"reference", reference}} {
		for _, scale := range []float64{0.02, 0.2} {
			b.Run(fmt.Sprintf("%s/scale=%g", run.name, scale), func(b *testing.B) {
				checkpointTables(b, scale, run.pass)
			})
		}
	}
}

// checkpointTables is one BenchmarkCheckpointTables run at one scale; pass,
// when not nil, runs inside the timer before each checkpoint.
func checkpointTables(b *testing.B, scale float64, pass func(*engine.RelationSet)) {
	s := newStarSchemas()
	gen, load := starLoad(scale, 1)
	views := s.benchViews()
	db := newStarDB(b, s, load, views)
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	st, err := snapshot.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var written int64
	files := 0
	checkpoint := func(epoch int) {
		b.StopTimer()
		for e := 0; e < 8; e++ {
			stage(b, db, streamBatch(gen))
			refreshEpoch(b, db, views)
		}
		rels := db.Relations()
		in := snapshot.CheckpointInput{Epoch: uint64(epoch)}
		for _, name := range rels.Tables() {
			t, _ := rels.Table(name)
			in.Tables = append(in.Tables, t)
		}
		b.StartTimer()
		if pass != nil {
			pass(rels)
		}
		for _, v := range views {
			mv, _ := rels.View(v.name)
			in.Views = append(in.Views, snapshot.ViewData{Name: v.name, Plan: v.plan, Table: mv.Table(),
				Lineage: snapshot.LineageMark{Fingerprint: fmt.Sprintf("%016x", mv.Table().Fingerprint())}})
		}
		res, err := st.Checkpoint(in)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		written += res.Written
		files++
		if res.Written > 0 {
			files++
		}
		if _, err := st.GC(3); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	checkpoint(0)
	written, files = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpoint(i + 1)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/checkpoint")
	b.ReportMetric(float64(written)/1e6/float64(b.N), "MB-written/checkpoint")
	b.ReportMetric(float64(files)/float64(b.N), "files-fsynced/checkpoint")
}
