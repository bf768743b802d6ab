package engine_test

import (
	"errors"
	"fmt"
	"reflect"
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
			sched[e] = starEpoch{deltas: batch(5, 0, 5), failApply: true, retry: batch(3, 2)}
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

// runStarEpoch drives one generated epoch on db — stage, refresh every view
// in name order, apply, commit — and returns every refresh in call order
// beside what the same view's refresh is when it is alone in its epoch, and
// the engine epochs it opened (for their counts). The reference epochs are
// let go: they publish and consume nothing.
func runStarEpoch(t testing.TB, db *engine.DB, views []string, ep starEpoch) (got, alone []namedResult, epochs []*engine.MaintenanceEpoch) {
	t.Helper()
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
		epochs = append(epochs, epoch)
		reads, writes := db.Counter.Reads(), db.Counter.Writes()
		call := func(label, view string) {
			res, err := epoch.IncrementalRefresh(view)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got = append(got, namedResult{label, res})
			alone = append(alone, namedResult{label, byView[view]})
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
	if err := epoch.Commit(); err != nil {
		t.Fatal(err)
	}
	return got, alone, epochs
}

// operandRequests walks the views' plans the way a propagation does and
// returns how many unmetered relations one epoch is asked for — per join,
// the right input in the new state and the left in the old, every
// subexpression of each — and how many of those are distinct (expression,
// state) pairs. The old state of a base table is the stored table, which is
// read in place and is no request.
func operandRequests(views []starView, dirty map[string]bool) (requests, distinct int) {
	seen := make(map[string]bool)
	var operand func(n algebra.Node, state string)
	operand = func(n algebra.Node, state string) {
		if scan, ok := n.(*algebra.Scan); ok && (state == "old" || !dirty[scan.Relation]) {
			return
		}
		requests++
		seen[state+" "+n.Canonical()] = true
		for _, c := range n.Children() {
			operand(c, state)
		}
	}
	for _, v := range views {
		algebra.Walk(v.plan, func(n algebra.Node) {
			if j, ok := n.(*algebra.Join); ok {
				operand(j.Right, "new")
				operand(j.Left, "old")
			}
		})
	}
	return requests, len(seen)
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

// cageViews is the benchmark's view set plus what it lacks: a MIN/MAX root
// and a second view with the plan of an existing one.
func cageViews(s *star) []starView {
	return append(s.benchViews(),
		starView{"minmax", s.A(1, s.J(1, s.D(1), s.F()), algebra.AggMin, algebra.AggMax, algebra.AggCount)},
		starView{"twin8", s.A(3, s.J(3, s.D(3), s.F()), algebra.AggCount, algebra.AggSum)},
	)
}

func TestMaintenanceEpochsMatchRecompute(t *testing.T) {
	const (
		scale  = 0.004
		seed   = 20261003
		epochs = 8
	)
	s := newStarSchemas()
	gen, load := starLoad(scale, seed)
	sched := genStarSchedule(gen, epochs)
	views := cageViews(s)
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.name
	}
	sort.Strings(names)

	shared := newStarDB(t, s, load, views)
	oracle := newStarDB(t, s, load, views)
	useRowOracle(t, oracle)
	staged := make(map[string]int)
	rowsBefore := make(map[string]int)
	for _, name := range shared.Tables() {
		tb, _ := shared.Table(name)
		rowsBefore[name] = tb.NumRows()
	}

	for e, ep := range sched {
		label := fmt.Sprintf("epoch %d", e)
		for _, batch := range [][]tableRows{ep.deltas, ep.straggler, ep.retry} {
			for _, tr := range batch {
				staged[tr.table] += len(tr.rows)
			}
		}
		// The reference: every refresh alone in its epoch.
		got, want, epochs := runStarEpoch(t, shared, names, ep)
		row, _, _ := runStarEpoch(t, oracle, names, ep)
		if len(got) != len(want) || len(got) != len(row) {
			t.Fatalf("%s: %d / %d / %d refreshes", label, len(got), len(want), len(row))
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
			assertResultsIdentical(t, at+" (row oracle)", got[i].res, row[i].res)
		}
		for _, db := range []*engine.DB{shared, oracle} {
			assertViewsMatchRecompute(t, label, db, names)
		}
		assertCountersIdentical(t, label+" shared vs row oracle", shared, oracle)

		// Every distinct operand once, every dirty table cloned once per
		// state: checked where the test can count the requests itself.
		if ep.straggler == nil && !ep.failApply {
			dirty := make(map[string]bool)
			for _, tr := range ep.deltas {
				dirty[tr.table] = true
			}
			requests, distinct := operandRequests(views, dirty)
			evaluated, reused := epochs[0].Operands()
			if evaluated+reused != requests || evaluated > distinct || (len(dirty) == 1+starDims && evaluated != distinct) {
				t.Fatalf("%s: %d operands evaluated + %d reused; the plans ask for %d, %d of them distinct",
					label, evaluated, reused, requests, distinct)
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

// TestIdenticalViewSharesEverything: a second view with the plan of an
// existing one costs an epoch no evaluation at all.
func TestIdenticalViewSharesEverything(t *testing.T) {
	s := newStarSchemas()
	operands := func(views []starView) (evaluated, reused int) {
		gen, load := starLoad(0.002, 3)
		db := newStarDB(t, s, load, views)
		stage(t, db, []tableRows{{"Fact", gen.fact(4)}, {starDim(3), gen.dim(3, 1)}, {starDim(0), gen.dim(0, 2)}})
		ep := db.BeginMaintenance()
		for _, v := range views {
			if _, err := ep.IncrementalRefresh(v.name); err != nil {
				t.Fatal(err)
			}
		}
		return ep.Operands()
	}
	evaluated, reused := operands(s.benchViews())
	twinEvaluated, twinReused := operands(append(s.benchViews(),
		starView{"twin8", s.A(3, s.J(3, s.D(3), s.F()), algebra.AggCount, algebra.AggSum)}))
	if twinEvaluated != evaluated || twinReused <= reused {
		t.Fatalf("a second identical view: evaluated %d → %d, reused %d → %d", evaluated, twinEvaluated, reused, twinReused)
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
func refreshEpoch(b *testing.B, db *engine.DB, views []starView) {
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

// BenchmarkMaintenanceEpoch is the delta-refresh layer's own number: the
// benchmark's 22-view star warehouse at its mixed_fresh scale, one epoch =
// a streamBatch staged, every view refreshed in one epoch value,
// ApplyDeltas, Commit. Tables and views grow by a batch per iteration, as
// they do under the benchmark's writer.
func BenchmarkMaintenanceEpoch(b *testing.B) {
	s := newStarSchemas()
	gen, load := starLoad(0.02, 1)
	views := s.benchViews()
	db := newStarDB(b, s, load, views)
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
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
}

// BenchmarkCheckpointTables is the checkpoint's own number, on the warehouse
// and the epochs of BenchmarkMaintenanceEpoch: every 8 epochs, what the
// serving layer's checkpoint does — the lineage digest of every view, then a
// real snapshot.Store.Checkpoint of every table and view (statistics, the
// pack of what is new, the manifest) into b.TempDir(), retention 3. Only the
// checkpoint is timed, and the first one of the store, which writes every
// relation whole, is taken before the timer starts. "kernels" is the code;
// "reference" first runs, over every relation, the boxed statistics and
// digest oracles the typed kernels replaced. ms, MB written (the pack) and
// files fsynced (the pack, when anything is new, and the manifest; two
// directory syncs come on top) per checkpoint; B/op is what one checkpoint
// allocates.
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
		b.Run(run.name, func(b *testing.B) {
			s := newStarSchemas()
			gen, load := starLoad(0.02, 1)
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
				if run.pass != nil {
					run.pass(rels)
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
		})
	}
}
