package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// deltaProductRow builds one synthetic Product delta row.
func deltaProductRow(i int64, did int64) []algebra.Value {
	return []algebra.Value{algebra.IntVal(900000 + i), algebra.StringVal("product-Δ"), algebra.IntVal(did)}
}

// TestConcurrentExecuteVsRefresh runs readers through a materialized view
// while a maintainer recomputes it in a tight loop: every read must see a
// complete epoch (constant row count, since the base data never changes)
// and no read or refresh may fail. Run with -race to check the epoch swap.
func TestConcurrentExecuteVsRefresh(t *testing.T) {
	db := smallPaperDB(t)
	plan := laJoinPlan(t, db)
	if _, err := db.Materialize("tmp2", plan); err != nil {
		t.Fatal(err)
	}
	base, err := db.Execute(db.RewriteForViewSet(plan).Plan)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := base.Table.NumRows()

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Execute(db.RewriteForViewSet(plan).Plan)
				if err != nil {
					errs <- err
					return
				}
				if res.Table.NumRows() != wantRows {
					errs <- errors.New("read a half-refreshed view epoch")
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Refresh("tmp2"); err != nil {
			errs <- err
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentExecuteVsIncrementalEpochs drives full maintenance epochs
// (InsertDelta → IncrementalRefresh → ApplyDeltas → Commit) from one maintainer
// goroutine while readers execute view-rewritten and base-table plans.
// Readers must only ever observe whole epochs: the view's row count must
// be one of the per-epoch counts the maintainer published. Every reader also
// holds the set it read from and, after its query, re-checks every table and
// view of it — rows in order, digest, statistics, blocks — while the
// maintainer builds the next ones by appending to exactly those tables.
func TestConcurrentExecuteVsIncrementalEpochs(t *testing.T) {
	db := smallPaperDB(t)
	plan := laJoinPlan(t, db)
	if _, err := db.Materialize("tmp2", plan); err != nil {
		t.Fatal(err)
	}

	// Every epoch adds one product of an LA division, so the published row
	// counts are n₀ … n₀+epochs — known before the readers start.
	const epochs = 30
	did := laDivision(t, db)
	res, err := db.Execute(db.RewriteForViewSet(plan).Plan)
	if err != nil {
		t.Fatal(err)
	}
	n0 := res.Table.NumRows()

	const readers = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rels := db.Relations()
				held := holdSet(rels)
				res, err := db.Execute(db.RewriteForViewSet(plan).Plan)
				if err != nil {
					errs <- err
					return
				}
				if n := res.Table.NumRows(); n < n0 || n > n0+epochs {
					errs <- fmt.Errorf("view has %d rows, no published epoch does (%d … %d)", n, n0, n0+epochs)
					return
				}
				if err := held.check(rels); err != nil {
					errs <- fmt.Errorf("a held set changed under the maintainer: %w", err)
					return
				}
			}
		}()
	}

	// Maintainer: each epoch inserts one Product row joining an existing
	// LA division, refreshes incrementally (which must grow the view by that
	// row), then folds the delta into the base table.
	for i := int64(0); i < epochs; i++ {
		if err := db.InsertDelta("Product", deltaProductRow(i, did)); err != nil {
			errs <- err
			break
		}
		ref := runEpoch(t, db, "tmp2")[0]
		if want := n0 + int(i) + 1; ref.Table.NumRows() != want {
			errs <- fmt.Errorf("epoch %d left the view at %d rows, want %d: the delta did not reach it", i, ref.Table.NumRows(), want)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final state check: the maintained view equals a recompute.
	got, err := db.Execute(db.RewriteForViewSet(plan).Plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if tableKey(got.Table) != tableKey(want.Table) {
		t.Error("maintained view diverged from recompute after concurrent epochs")
	}
}

// TestConcurrentRewriteVsViewChurn races rewrite + execute against a
// maintainer that drops the view and rematerializes it, every other time
// under a different definition (the SF join) with the same name.
//
// The two-call arm (DB.RewriteForViewSet, then DB.Execute) may lose the
// race between its calls: the view it rewrote onto was dropped — a clean
// "unknown table" error — or replaced, and it reads the other definition's
// complete rows. Never a torn read or a crash.
//
// The one-set arm rewrites and executes on one db.Relations() value, so it
// finds exactly the view it planned against: no error at all, and only the
// right answer.
func TestConcurrentRewriteVsViewChurn(t *testing.T) {
	db := smallPaperDB(t)
	plan := laJoinPlan(t, db)
	other := algebra.NewJoin(plan.(*algebra.Join).Left,
		algebra.NewSelect(plan.(*algebra.Join).Right.(*algebra.Select).Input,
			algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("SF"))),
		plan.(*algebra.Join).On)
	if _, err := db.Materialize("tmp2", plan); err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantKey := want.Table.NumRows(), tableKey(want.Table)
	otherRes, err := db.Execute(other)
	if err != nil {
		t.Fatal(err)
	}
	otherRows := otherRes.Table.NumRows()
	if otherRows == wantRows || otherRows == 0 {
		t.Fatalf("the SF join has %d rows, the LA join %d: the test cannot tell the definitions apart", otherRows, wantRows)
	}

	const readers = 3 // per arm
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, lostRace, fromView atomic.Int64
	errs := make(chan error, 2*readers+1)
	arm := func(read func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		arm(func() error {
			res, err := db.Execute(db.RewriteForViewSet(plan).Plan)
			switch {
			case errors.Is(err, engine.ErrUnknownRelation):
				lostRace.Add(1)
			case err != nil:
				return err
			case res.Table.NumRows() == otherRows:
				lostRace.Add(1)
			case res.Table.NumRows() != wantRows:
				return errors.New("two-call arm: rewritten execution returned a torn result")
			}
			return nil
		})
		arm(func() error {
			rels := db.Relations()
			pp := rels.Rewrite(plan)
			res, err := rels.Execute(pp.Plan)
			if err != nil {
				return fmt.Errorf("one-set arm: %w", err)
			}
			if tableKey(res.Table) != wantKey {
				return fmt.Errorf("one-set arm: %d rows that are not the base-relation plan's %d", res.Table.NumRows(), wantRows)
			}
			fromView.Add(int64(len(pp.Views)))
			return nil
		})
	}
	// The maintainer lets a few reads through after every step, so each of
	// the three states (no view, LA view, SF view) is actually read.
	step := func() {
		for target := reads.Load() + readers; reads.Load() < target && len(errs) == 0; {
			runtime.Gosched()
		}
	}
	for i := 0; i < 40; i++ {
		if err := db.DropView("tmp2"); err != nil {
			errs <- err
			break
		}
		step()
		def := plan
		if i%2 == 0 {
			def = other
		}
		if _, err := db.Materialize("tmp2", def); err != nil {
			errs <- err
			break
		}
		step()
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if fromView.Load() == 0 {
		t.Error("the one-set arm never answered from the view: the race was not exercised")
	}
	t.Logf("two-call arm lost %d races; one-set arm answered %d times from tmp2", lostRace.Load(), fromView.Load())
}

// TestIncrementalRefreshTwiceNoDoubleApply: refreshing a view twice in one
// epoch takes the pending delta in exactly once — the second refresh starts
// from the same published rows and the same frozen delta as the first.
func TestIncrementalRefreshTwiceNoDoubleApply(t *testing.T) {
	db := smallPaperDB(t)
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	n0 := viewRows(t, db, "tmp2")
	if err := db.InsertDelta("Product", deltaProductRow(1, laDivision(t, db))); err != nil {
		t.Fatal(err)
	}
	refreshes := runEpoch(t, db, "tmp2", "tmp2")
	if got := viewRows(t, db, "tmp2"); got != n0+1 {
		t.Fatalf("view has %d rows after the epoch, want %d: the delta reached it %d times", got, n0+1, got-n0)
	}
	if first, second := tableKey(refreshes[0].Table), tableKey(refreshes[1].Table); second != first {
		t.Errorf("second refresh for the same delta changed the view\n got: %s\nwas: %s", second, first)
	}
	if !reflect.DeepEqual(refreshes[0].Ops, refreshes[1].Ops) {
		t.Errorf("second refresh accounted different operators\n got: %+v\nwas: %+v", refreshes[1].Ops, refreshes[0].Ops)
	}
	assertViewsMatchRecompute(t, "after the epoch", db, []string{"tmp2"})
}

// TestIncrementalRefreshStagedBatches: rows staged after an epoch began are
// the next epoch's delta, and they join against the first epoch's rows as
// base state (the L_old ⋈ ΔR path across two epochs). Neither epoch loses
// or repeats a row.
func TestIncrementalRefreshStagedBatches(t *testing.T) {
	db := smallPaperDB(t)
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	n0 := viewRows(t, db, "tmp2")
	// Batch 1: a product joining an existing LA division, and a new LA
	// division.
	if err := db.InsertDelta("Product", deltaProductRow(1, laDivision(t, db))); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertDelta("Division",
		[]algebra.Value{algebra.IntVal(999991), algebra.StringVal("division-x"), algebra.StringVal("LA")}); err != nil {
		t.Fatal(err)
	}
	ep := db.BeginMaintenance()
	// Batch 2 arrives while the epoch is open: a product joining the batch-1
	// delta division.
	if err := db.InsertDelta("Product", deltaProductRow(2, 999991)); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.IncrementalRefresh("tmp2"); err != nil {
		t.Fatal(err)
	}
	if err := ep.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := viewRows(t, db, "tmp2"); got != n0+1 {
		t.Fatalf("view has %d rows after the first epoch, want %d: only batch 1 is its delta", got, n0+1)
	}
	if got := db.PendingDeltaRows("Product"); got != 1 {
		t.Fatalf("%d Product rows pending after the first epoch, want batch 2's 1", got)
	}
	assertViewsMatchRecompute(t, "after the first epoch", db, []string{"tmp2"})

	runEpoch(t, db, "tmp2")
	if got := viewRows(t, db, "tmp2"); got != n0+2 {
		t.Fatalf("view has %d rows after both epochs, want %d: a delta did not reach it", got, n0+2)
	}
	if got := db.PendingDeltaRows("Product"); got != 0 {
		t.Fatalf("%d Product rows still pending after the second epoch", got)
	}
	assertViewsMatchRecompute(t, "after the second epoch", db, []string{"tmp2"})
}

// TestRematerializedViewReceivesPendingRows: a view dropped and materialized
// again while rows are pending is computed from the base tables without
// them, and the next epoch gives them to it — whatever an epoch that was
// let go had done to its predecessor.
func TestRematerializedViewReceivesPendingRows(t *testing.T) {
	db := smallPaperDB(t)
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	n0 := viewRows(t, db, "tmp2")
	if err := db.InsertDelta("Product", deltaProductRow(1, laDivision(t, db))); err != nil {
		t.Fatal(err)
	}
	// An epoch takes the delta into the first view and is let go.
	if _, err := db.BeginMaintenance().IncrementalRefresh("tmp2"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropView("tmp2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	if got := viewRows(t, db, "tmp2"); got != n0 {
		t.Fatalf("rematerialized view has %d rows, want %d: the delta is still pending", got, n0)
	}
	runEpoch(t, db, "tmp2")
	if got := viewRows(t, db, "tmp2"); got != n0+1 {
		t.Fatalf("rematerialized view has %d rows after its epoch, want %d", got, n0+1)
	}
	assertViewsMatchRecompute(t, "after the epoch", db, []string{"tmp2"})
}

// laDivision looks an LA division up in the generated data and returns its
// Did: a Product delta row reaches tmp2 (Product ⋈ σ city='LA' Division)
// only when it points at one.
func laDivision(t *testing.T, db *engine.DB) int64 {
	t.Helper()
	div, err := db.Table("Division")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < div.NumRows(); i++ {
		if row := div.Row(i); row.Values[2].Str == "LA" {
			return row.Values[0].Int
		}
	}
	t.Fatal("the generated Division table has no LA row")
	return 0
}

// viewRows returns the stored row count of a view as published right now.
func viewRows(t *testing.T, db *engine.DB, name string) int {
	t.Helper()
	v, err := db.View(name)
	if err != nil {
		t.Fatal(err)
	}
	return v.Table().NumRows()
}

// TestExecuteScansOneRelationSet executes a plan that scans view tmp2 twice
// (σ city='LA' over the scan ⋈ the scan, on Product.Did) while a maintainer
// grows the view one row per epoch. Both scans must resolve to the same
// published state: an execution that reads epoch k on one side and k+1 on
// the other returns (c+k)(c+k+1) rows for the growing division — strictly
// between two consecutive squares, so a count no state ever had. The
// consistent counts are computed before the readers start.
func TestExecuteScansOneRelationSet(t *testing.T) {
	const epochs = 250
	db := smallPaperDB(t)
	if _, err := db.Materialize("tmp2", laJoinPlan(t, db)); err != nil {
		t.Fatal(err)
	}
	did := laDivision(t, db)
	v, err := db.View("tmp2")
	if err != nil {
		t.Fatal(err)
	}
	tmp2 := v.Table()
	scan := algebra.NewScan("tmp2", tmp2.Schema)
	plan := algebra.NewJoin(
		algebra.NewSelect(scan, algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA"))),
		scan,
		[]algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Product", "Did")}})

	// Self-join size at epoch k: the other divisions' groups never change,
	// the growing one contributes (c+k)² instead of c².
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	c := 0
	for i := 0; i < tmp2.NumRows(); i++ {
		if tmp2.Row(i).Values[2].Int == did {
			c++
		}
	}
	rowsAt := func(k int) int { return res.Table.NumRows() - c*c + (c+k)*(c+k) }
	consistent := make(map[int]bool, epochs+1)
	for k := 0; k <= epochs; k++ {
		consistent[rowsAt(k)] = true
	}

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var executions, torn atomic.Int64
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Execute(plan)
				if err != nil {
					errs <- err
					return
				}
				executions.Add(1)
				if !consistent[res.Table.NumRows()] {
					torn.Add(1)
				}
			}
		}()
	}
	for i := int64(0); i < epochs; i++ {
		if err := db.InsertDelta("Product", deltaProductRow(i, did)); err != nil {
			errs <- err
			break
		}
		runEpoch(t, db, "tmp2")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := torn.Load(); n > 0 {
		t.Errorf("%d of %d executions returned a row count no published state has: the two scans of tmp2 read different states",
			n, executions.Load())
	}
	t.Logf("%d executions beside %d epochs", executions.Load(), epochs)
	final, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := rowsAt(epochs); final.Table.NumRows() != want {
		t.Errorf("after %d epochs the self-join has %d rows, want %d: the deltas did not reach the view",
			epochs, final.Table.NumRows(), want)
	}
}
