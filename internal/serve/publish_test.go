package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/repro"
)

// The serving half of the publication cage (engine: TestEpochPublishesOnce):
// an epoch or an advice swap that fails part-way has published nothing.

// TestEpochPublishesOnceAbortedFlush runs cache-less readers beside epochs
// whose ApplyDeltas fails past its retries. Nothing lands, so every answer —
// through tmp2, whose incremental refresh succeeded inside each aborted
// epoch — must stay the base-relation plan's, and the serving epoch must not
// move. Once the fault clears, one epoch lands every batch.
func TestEpochPublishesOnceAbortedFlush(t *testing.T) {
	const aborted = 5
	inj := fault.New(1, fault.Plan{fault.SiteEngineApplyDeltas: {ErrProb: 1}})
	s, db := serveFixture(t, Config{DeltaBatch: 1 << 20, CacheCapacity: -1, Injector: inj, Retry: fastRetry})
	db.SetInjector(inj)
	before, err := db.Execute(s.queries["QLA"].spec.Plan)
	if err != nil {
		t.Fatal(err)
	}

	hammer(t, s, db, 2, func(answered func(int64)) {
		for i := int64(0); i < aborted; i++ {
			div, prod := deltaPair(i)
			if err := s.Ingest("Division", div); err != nil {
				t.Error(err)
				return
			}
			if err := s.Ingest("Product", prod); err != nil {
				t.Error(err)
				return
			}
			if err := s.Flush(); !errors.Is(err, fault.ErrInjected) {
				t.Errorf("Flush with ApplyDeltas failing returned %v", err)
				return
			}
			if got := s.Epoch(); got != 0 {
				t.Errorf("the serving epoch moved to %d on an aborted maintenance epoch", got)
				return
			}
			answered(8)
		}
	})
	if t.Failed() {
		return
	}

	inj.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 1 {
		t.Errorf("epoch = %d after the one landed flush, want 1", got)
	}
	res, err := s.Query(context.Background(), "QLA")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Execute(s.queries["QLA"].spec.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || !sameRows(rowsFingerprint(res.Table), rowsFingerprint(direct.Table)) {
		t.Errorf("after the landed epoch QLA (degraded=%v, %d rows) is not the base-relation plan's %d rows",
			res.Degraded, res.Table.NumRows(), direct.Table.NumRows())
	}
	if got, want := direct.Table.NumRows(), before.Table.NumRows()+aborted; got != want {
		t.Errorf("QLA has %d rows, want %d: every batch of the aborted epochs lands once", got, want)
	}
}

// failSecondHit returns an injector whose first Hit at site passes and whose
// second returns an injected error (one seeded draw per Hit at ErrProb ½).
func failSecondHit(site fault.Site) *fault.Injector {
	for seed := int64(1); ; seed++ {
		r := rand.New(rand.NewSource(seed))
		if r.Float64() >= 0.5 && r.Float64() < 0.5 {
			return fault.New(seed, fault.Plan{site: {ErrProb: 0.5}})
		}
	}
}

// TestApplyAdviceAllOrNothing: an advice swap whose second materialization
// fails leaves the registry, the stored view set and its generation as they
// were, and the same advice applies cleanly afterwards.
func TestApplyAdviceAllOrNothing(t *testing.T) {
	db, err := datagen.PaperDB(10, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, model, err := repro.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	var queries []QuerySpec
	for name, root := range m.Roots {
		queries = append(queries, QuerySpec{Name: name, Plan: root.Op, Frequency: m.Fq[name]})
	}
	s, err := New(Config{DB: db, Queries: queries, MVPP: m, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	advice, err := s.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Add) < 2 {
		t.Fatalf("the advice adds %v: the test needs a second materialization to fail", advice.Add)
	}

	inj := failSecondHit(fault.SiteEngineExecute)
	db.SetInjector(inj)
	views, stored, gen, epoch := s.Views(), db.Views(), db.Relations().Generation(), s.Epoch()
	if err := s.ApplyAdvice(advice); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("ApplyAdvice with the second materialization failing returned %v", err)
	}
	if got := inj.SiteCounts(fault.SiteEngineExecute).Errors; got != 1 {
		t.Fatalf("%d injected errors, want exactly the second materialization's", got)
	}
	if got := s.Views(); !reflect.DeepEqual(got, views) {
		t.Errorf("the registry maintains %v after the failed swap, was %v", got, views)
	}
	if got := db.Views(); !reflect.DeepEqual(got, stored) {
		t.Errorf("the warehouse stores %v after the failed swap, was %v", got, stored)
	}
	if got := db.Relations().Generation(); got != gen {
		t.Errorf("view-set generation %d after the failed swap, was %d", got, gen)
	}
	if got := s.Epoch(); got != epoch {
		t.Errorf("serving epoch %d after the failed swap, was %d", got, epoch)
	}

	inj.Disarm()
	if err := s.ApplyAdvice(advice); err != nil {
		t.Fatalf("the same advice after the fault cleared: %v", err)
	}
	if got := s.Views(); !reflect.DeepEqual(got, advice.Proposed) {
		t.Errorf("the registry maintains %v, the advice proposed %v", got, advice.Proposed)
	}
	if got := db.Views(); !reflect.DeepEqual(got, advice.Proposed) {
		t.Errorf("the warehouse stores %v, the advice proposed %v", got, advice.Proposed)
	}
}
