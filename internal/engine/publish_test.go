package engine_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
)

// The publication cage: whatever a maintenance epoch does — refresh some
// views, fail to apply, get dropped — a reader only ever loads a relation set
// in which every view equals its plan over the set's own base tables.

// publishFixture is a small paper warehouse with the differential's two
// incrementally maintained views (one append path, one merge path) and an
// injector that is armed per epoch through SetRule, which is safe beside
// readers.
func publishFixture(t *testing.T) (*engine.DB, *fault.Injector, []string) {
	t.Helper()
	db, err := datagen.PaperDB(8, 0.002, 20261005)
	if err != nil {
		t.Fatal(err)
	}
	diffViews(t, db)
	inj := fault.New(1, fault.Plan{})
	db.SetInjector(inj)
	return db, inj, []string{"mv_agg", "mv_spj"}
}

// publishRows is one epoch's batch: the head of the differential's, so 200
// epochs do not grow the warehouse past what a reader can recompute per set.
func publishRows(epoch int64) []tableRows {
	batch := diffDeltaRows(epoch)
	return []tableRows{{"Order", batch["Order"][:3]}, {"Product", batch["Product"][:1]}}
}

// tornViews lists the views of rs whose stored rows are not their plan over
// rs's own tables.
func tornViews(rs *engine.RelationSet, views []string) ([]string, error) {
	var torn []string
	for _, name := range views {
		v, err := rs.View(name)
		if err != nil {
			return nil, err
		}
		res, err := rs.Execute(v.Plan)
		if err != nil {
			return nil, err
		}
		if rowsHash(v.Table()) != rowsHash(res.Table) {
			torn = append(torn, name)
		}
	}
	return torn, nil
}

// rowsHash is an order-independent digest of a table's rows (the row count
// and the sum of the rows' hashes): tableKey's comparison at a price a reader
// loop can pay per loaded set.
func rowsHash(tb *engine.Table) [2]uint64 {
	sum := [2]uint64{uint64(tb.NumRows())}
	for i := 0; i < tb.NumRows(); i++ {
		h := fnv.New64a()
		for _, v := range tb.Row(i).Values {
			h.Write([]byte(v.String()))
			h.Write([]byte{0})
		}
		sum[1] += h.Sum64()
	}
	return sum
}

func TestEpochPublishesOnce(t *testing.T) {
	t.Run("nothing before the commit, nothing from a dropped epoch", func(t *testing.T) {
		db, inj, views := publishFixture(t)
		before := db.Relations()
		stage(t, db, publishRows(0))

		ep := db.BeginMaintenance()
		if _, err := ep.IncrementalRefresh("mv_spj"); err != nil {
			t.Fatal(err)
		}
		if db.Relations() != before {
			t.Error("a refresh inside an open epoch published a relation set")
		}
		inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{ErrProb: 1})
		if err := ep.ApplyDeltas(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("ApplyDeltas under injection returned %v", err)
		}
		inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{})
		if db.Relations() != before {
			t.Error("an epoch whose ApplyDeltas failed left something published")
		}

		// The epoch is let go. The next one lands the same rows, and one more
		// batch, whole — and only at its commit.
		stage(t, db, publishRows(1))
		ep = db.BeginMaintenance()
		for _, view := range views {
			if _, err := ep.IncrementalRefresh(view); err != nil {
				t.Fatal(err)
			}
		}
		if err := ep.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
		if db.Relations() != before {
			t.Error("ApplyDeltas inside an open epoch published a relation set")
		}
		if err := ep.Commit(); err != nil {
			t.Fatal(err)
		}
		if db.Relations() == before {
			t.Fatal("the landed epoch published nothing")
		}
		assertViewsMatchRecompute(t, "after the retried epoch", db, views)
		for i, tr := range publishRows(0) {
			was, _ := before.Table(tr.table)
			now, _ := db.Table(tr.table)
			if want := was.NumRows() + len(tr.rows) + len(publishRows(1)[i].rows); now.NumRows() != want {
				t.Errorf("%s has %d rows after both batches landed, want %d", tr.table, now.NumRows(), want)
			}
		}
	})

	t.Run("a commit that would lose rows or another epoch's work is refused", func(t *testing.T) {
		db, _, _ := publishFixture(t)
		before := db.Relations()
		stage(t, db, publishRows(0))
		// Refreshed but not applied: the next epoch would add the rows again.
		ep := db.BeginMaintenance()
		if _, err := ep.IncrementalRefresh("mv_agg"); err != nil {
			t.Fatal(err)
		}
		if err := ep.Commit(); err == nil {
			t.Error("an epoch that refreshed a view without ApplyDeltas committed")
		}
		// Two epochs on one base: the second to commit would undo the first.
		first, second := db.BeginMaintenance(), db.BeginMaintenance()
		if db.Relations() != before {
			t.Fatal("the refused commit published something")
		}
		if err := first.DropView("mv_agg"); err != nil {
			t.Fatal(err)
		}
		if err := first.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := second.Commit(); err == nil {
			t.Error("an epoch whose base set is no longer the published one committed")
		}
		if _, err := db.View("mv_agg"); err == nil {
			t.Error("the refused commit brought the dropped view back")
		}
	})

	t.Run("readers beside failing epochs", func(t *testing.T) {
		const (
			epochs  = 200
			readers = 2
		)
		db, inj, views := publishFixture(t)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var looks, sets, torn atomic.Int64
		errs := make(chan error, readers+1)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last *engine.RelationSet
				for {
					select {
					case <-stop:
						return
					default:
					}
					if rs := db.Relations(); rs != last {
						last = rs
						bad, err := tornViews(rs, views)
						if err != nil {
							errs <- err
							return
						}
						sets.Add(1)
						if len(bad) > 0 {
							torn.Add(1)
						}
					}
					looks.Add(1)
				}
			}()
		}
		// After every maintainer step each reader gets a look at what is
		// published, so a state that must stay private is seen if it is not.
		step := func() {
			for target := looks.Load() + 2*readers; looks.Load() < target && len(errs) == 0; {
				runtime.Gosched()
			}
		}
		failed := 0
		for e := int64(0); e < epochs && len(errs) == 0; e++ {
			stage(t, db, publishRows(e))
			ep := db.BeginMaintenance()
			for _, view := range views {
				if _, err := ep.IncrementalRefresh(view); err != nil {
					errs <- err
					break
				}
			}
			step()
			fail := e%5 == 3
			if fail {
				inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{ErrProb: 1})
			}
			err := ep.ApplyDeltas()
			inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{})
			step()
			switch {
			case fail && errors.Is(err, fault.ErrInjected):
				failed++ // the epoch is let go
			case fail:
				errs <- fmt.Errorf("epoch %d: ApplyDeltas under injection returned %v", e, err)
			case err != nil:
				errs <- err
			default:
				if err := ep.Commit(); err != nil {
					errs <- err
				}
			}
			step()
		}
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if n := torn.Load(); n > 0 {
			t.Errorf("%d of %d relation sets the readers loaded held a view that is not its plan over the set's own tables", n, sets.Load())
		}
		t.Logf("%d sets checked beside %d epochs, %d of them dropped at ApplyDeltas", sets.Load(), epochs, failed)
		assertViewsMatchRecompute(t, "after the last epoch", db, views)
	})
}
