package engine_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/snapshot"
)

// The statistics cage: over a maintained warehouse, every catalog entry the
// engine hands out — for a base table or a view, published or in an epoch
// that is let go, asked when the relation is new or long after — is the
// reference's, bit for bit.

// requireSetStats checks the entry of every table and view of rels against
// the reference, and that a table asked before at its rows returns the very
// entry it returned then, from its cache; asked records every entry.
func requireSetStats(t *testing.T, label string, rels *engine.RelationSet, asked map[*engine.Table]*catalog.Relation) {
	t.Helper()
	for name, tb := range setTables(rels) {
		got := engine.TableStats(name, tb)
		if want := engine.ReferenceRelationStats(name, tb); !engine.IdenticalRelation(got, want) {
			t.Fatalf("%s: %s (%d rows): statistics differ from the reference\n got: %+v\nwant: %+v",
				label, name, tb.NumRows(), got.Attrs, want.Attrs)
		}
		if prev := asked[tb]; prev != nil && prev.Rows == got.Rows && prev != got {
			t.Fatalf("%s: %s (%d rows) was asked again at its rows and derived another entry", label, name, tb.NumRows())
		}
		asked[tb] = got
	}
}

// TestStatsMatchReferenceAlongSchedule runs the maintenance cage's generated
// schedule on the star warehouse and asks every entry of the published set
// after every epoch, and, on a second warehouse, after every 8th only. Around
// the schedule's own shapes (every table dirty, fact only, dimensions only, a
// view refreshed twice in one epoch) it adds what replaces a relation by a
// table of another lineage: a view dropped and materialized under another
// plan, a view restored from a segment, a view recomputed, every aggregate
// view's merge, and an epoch that applies its deltas and is let go, after
// which the retry appends a different Δ to the same published tables. Before
// the first view, each base table's entry is cached and the table then grows
// by a setup-phase Insert.
func TestStatsMatchReferenceAlongSchedule(t *testing.T) {
	for _, every := range []int{1, 8} {
		t.Run(fmt.Sprintf("every %d epochs", every), func(t *testing.T) {
			statsSchedule(t, every)
		})
	}
}

func statsSchedule(t *testing.T, every int) {
	const (
		seed   = 20261016
		epochs = 24
	)
	s := newStarSchemas()
	gen, load := starLoad(0.004, seed)
	sched := genStarSchedule(gen, epochs)
	views := s.benchViews()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })

	db := newStarDB(t, s, load, nil)
	asked := make(map[*engine.Table]*catalog.Relation)
	requireSetStats(t, "loaded", db.Relations(), asked)
	for _, tr := range streamBatch(gen) {
		tb, err := db.Table(tr.table)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(tr.rows...); err != nil {
			t.Fatal(err)
		}
	}
	requireSetStats(t, "after a setup-phase insert", db.Relations(), asked)
	for _, v := range views {
		if _, err := db.Materialize(v.name, v.plan); err != nil {
			t.Fatal(err)
		}
	}

	refreshAll := func() *engine.MaintenanceEpoch {
		ep := db.BeginMaintenance()
		for _, v := range views {
			if _, err := ep.IncrementalRefresh(v.name); err != nil {
				t.Fatal(err)
			}
		}
		return ep
	}
	for e, ep := range sched {
		label := fmt.Sprintf("epoch %d", e)
		switch e {
		case 6:
			if err := db.DropView("tmp33"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Materialize("tmp33", s.J(1, s.F(), s.D(1))); err != nil {
				t.Fatal(err)
			}
		case 7:
			v, err := db.View("tmp6")
			if err != nil {
				t.Fatal(err)
			}
			var seg bytes.Buffer
			if _, err := engine.WriteTableSegment(&seg, v.Table()); err != nil {
				t.Fatal(err)
			}
			restored, err := engine.ReadTableSegment(&seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.DropView("tmp6"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.RestoreView("tmp6", v.Plan, restored); err != nil {
				t.Fatal(err)
			}
		case 9:
			if _, err := db.Refresh("tmp14"); err != nil {
				t.Fatal(err)
			}
		}
		before := db.Relations()
		stage(t, db, ep.deltas)
		epoch := refreshAll()
		if ep.straggler != nil {
			stage(t, db, ep.straggler)
			if _, err := epoch.IncrementalRefresh(views[0].name); err != nil {
				t.Fatal(err)
			}
		}
		if ep.failApply {
			if err := epoch.ApplyDeltas(); err != nil {
				t.Fatal(err)
			}
			requireSetStats(t, label+", let go", epoch.Relations(), asked)
			requireSetStats(t, label+", the set the let-go epoch grew", before, asked)
			stage(t, db, ep.retry)
			epoch = refreshAll()
		}
		if err := epoch.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
		if err := epoch.Commit(); err != nil {
			t.Fatal(err)
		}
		if (e+1)%every == 0 {
			requireSetStats(t, label, db.Relations(), asked)
		}
	}
	requireSetStats(t, "after the schedule", db.Relations(), asked)
}

// TestCheckpointStatsAllocBudget guards the statistics kernels without a
// wall clock, after the precedent of TestMaintenanceEpochAllocBudget: on the
// benchmark's star warehouse, the statistics of a steady checkpoint — every
// table's and view's entry, 8 epochs after the last checkpoint's — allocate
// at most 100 KB at the mixed_fresh scale (0.02), and at ten times the rows
// (0.2) at most 1.5× what they do at 0.02. A string column counts its codes
// in the scratch's slots and allocates nothing. Passing over every string
// into a set of its own allocated 604 KB at 0.02 and 2.58 MB at 0.2.
func TestCheckpointStatsAllocBudget(t *testing.T) {
	// The first two checkpoints are off the budget: they grow the scratch's
	// slots to the widest span and the longest dictionary they count.
	const warm, checkpoints, budget = 2, 3, 100 << 10
	perCheckpoint := func(scale float64) float64 {
		s := newStarSchemas()
		gen, load := starLoad(scale, 1)
		views := s.benchViews()
		db := newStarDB(t, s, load, views)
		sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
		var total uint64
		var scratch engine.StatsScratch
		for c := 0; c < warm+checkpoints; c++ {
			for e := 0; e < 8; e++ {
				stage(t, db, streamBatch(gen))
				refreshEpoch(t, db, views)
			}
			// What a checkpoint does: derive the entry of every table and view
			// of the published set, in the scratch its store keeps.
			tables := setTables(db.Relations())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for name, tb := range tables {
				scratch.Derive(name, tb)
			}
			runtime.ReadMemStats(&after)
			if c >= warm {
				total += after.TotalAlloc - before.TotalAlloc
			}
		}
		return float64(total) / checkpoints
	}
	small, large := perCheckpoint(0.02), perCheckpoint(0.2)
	t.Logf("a steady checkpoint's statistics allocate %.0f bytes at scale 0.02, %.0f at 0.2 (budget %d and 1.5×)", small, large, budget)
	if small > budget {
		t.Errorf("a steady checkpoint's statistics at scale 0.02 allocate %.0f bytes, budget %d", small, budget)
	}
	if large > 1.5*small {
		t.Errorf("a steady checkpoint's statistics at scale 0.2 allocate %.0f bytes, %.2f× the %.0f at 0.02 (budget 1.5×)", large, large/small, small)
	}
}

// TestStatsBesideMaintainer is the statistics' race cage: readers
// derive catalogs — Catalog(true) of the published set and of sets they
// hold, so that tables of one lineage are asked at different row counts and
// older ones after newer — while the maintainer extends the warehouse and
// checkpoints it every fourth epoch, deriving the same entries. Every entry
// a reader gets is the reference's for the table it describes. Meant for
// -race (CI's differential step).
func TestStatsBesideMaintainer(t *testing.T) {
	const epochs, readers = 24, 2
	s := newStarSchemas()
	gen, load := starLoad(0.004, 3)
	views := s.benchViews()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	db := newStarDB(t, s, load, views)
	st, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// check derives rels' catalog and compares every entry with the
	// reference.
	check := func(rels *engine.RelationSet) error {
		cat, err := rels.Catalog(true)
		if err != nil {
			return err
		}
		tables := make(map[string]*engine.Table)
		for _, name := range rels.Tables() {
			tables[name], _ = rels.Table(name)
		}
		for _, name := range rels.Views() {
			v, _ := rels.View(name)
			tables[name] = v.Table()
		}
		for name, tb := range tables {
			got, err := cat.Relation(name)
			if err != nil {
				return err
			}
			if want := engine.ReferenceRelationStats(name, tb); !engine.IdenticalRelation(got, want) {
				return fmt.Errorf("%s (%d rows): statistics differ from the reference\n got: %+v\nwant: %+v",
					name, tb.NumRows(), got.Attrs, want.Attrs)
			}
		}
		return nil
	}
	var done atomic.Bool
	var checks atomic.Int64
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held []*engine.RelationSet
			for i := 0; !done.Load(); i++ {
				rels := db.Relations()
				held = append(held, rels)
				// The newest set, then one held since, picked so the two
				// readers ask different ages.
				for _, set := range []*engine.RelationSet{rels, held[(i*(r+1))%len(held)]} {
					if err := check(set); err != nil {
						errs <- err
						return
					}
					checks.Add(1)
				}
			}
		}(r)
	}
	for e := 1; e <= epochs; e++ {
		stage(t, db, streamBatch(gen))
		refreshEpoch(t, db, views)
		if e%4 != 0 {
			continue
		}
		rels := db.Relations()
		in := snapshot.CheckpointInput{Epoch: uint64(e)}
		for _, name := range rels.Tables() {
			tb, _ := rels.Table(name)
			in.Tables = append(in.Tables, tb)
		}
		for _, v := range views {
			mv, _ := rels.View(v.name)
			in.Views = append(in.Views, snapshot.ViewData{Name: v.name, Plan: v.plan, Table: mv.Table()})
		}
		if _, err := st.Checkpoint(in); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if checks.Load() == 0 {
		t.Fatal("no reader derived a catalog beside the maintainer")
	}
	if err := check(db.Relations()); err != nil {
		t.Fatal(err)
	}
}
