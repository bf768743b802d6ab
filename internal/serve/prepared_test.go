package serve

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/repro"
)

// A named query's view rewrite is derived once per view-set generation, when
// the server publishes that generation, and travels with the served state
// (serve.go, publish). These tests hold the two promises that come with it: a
// kept plan never answers under a view set other than the one it was derived
// for, and a miss does not pay for a rewrite.

// orderedDigest renders a table's rows in stored order.
func orderedDigest(tab *engine.Table) string {
	var b strings.Builder
	for i := 0; i < tab.NumRows(); i++ {
		b.WriteString(tab.Row(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// hammer runs readers goroutines that loop Query over every named query
// until churn returns, failing the test on any error and on any answer that
// differs from the base-relation plan's (the data never changes, so there
// is one right answer per query). churn paces itself with answered, which
// blocks until that many more queries have been answered.
func hammer(t *testing.T, s *Server, db *engine.DB, readers int, churn func(answered func(n int64))) {
	t.Helper()
	ctx := context.Background()
	want := make(map[string]string)
	for name, qs := range s.queries {
		res, err := db.Execute(qs.spec.Plan)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = orderedDigest(res.Table)
	}
	var stop atomic.Bool
	var done atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, name := range s.order {
					res, err := s.Query(ctx, name)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					if got := orderedDigest(res.Table); got != want[name] {
						t.Errorf("%s answered %d rows that are not the base-relation plan's %d",
							name, res.Table.NumRows(), strings.Count(want[name], "\n"))
						return
					}
					done.Add(1)
				}
			}
		}()
	}
	churn(func(n int64) {
		for target := done.Load() + n; done.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	})
	stop.Store(true)
	wg.Wait()
}

// generationCounter counts the view-set generations a server has published:
// the one New served, plus one per maintenance call that moved it.
type generationCounter struct {
	s         *Server
	last      uint64
	published int64
}

func countGenerations(s *Server) *generationCounter {
	return &generationCounter{s: s, last: s.state.Load().rels.Generation(), published: 1}
}

// afterPublication notes the state a maintenance call just published and
// reports whether it moved the generation.
func (g *generationCounter) afterPublication() bool {
	gen := g.s.state.Load().rels.Generation()
	moved := gen != g.last
	if moved {
		g.published++
		g.last = gen
	}
	return moved
}

// requireRewritesBounded checks that every named query was rewritten exactly
// once per generation published — by the maintainer, never by a miss. (No
// test here submits an ad-hoc plan, which costs one rewrite per miss.)
func requireRewritesBounded(t *testing.T, s *Server, generations int64) {
	t.Helper()
	st := s.Stats()
	if want := int64(len(s.order)) * generations; st.PlanRewrites != want {
		t.Errorf("%d plan rewrites for %d queries over %d published view-set generations, want %d",
			st.PlanRewrites, len(s.order), generations, want)
	}
	if st.CacheMisses < 4*st.PlanRewrites {
		t.Errorf("only %d misses against %d rewrites: the run does not show rewrites staying below misses",
			st.CacheMisses, st.PlanRewrites)
	}
	t.Logf("%d misses, %d rewrites, %d generations", st.CacheMisses, st.PlanRewrites, generations)
}

// TestPreparedPlanAdvisorSwaps alternates ApplyAdvice between the Figure 9
// selections for two opposite workloads while readers query with the result
// cache off, so every answer is a miss executed from a prepared plan.
func TestPreparedPlanAdvisorSwaps(t *testing.T) {
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
	s, err := New(Config{DB: db, Queries: queries, MVPP: m, Model: model, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Two workloads whose selections differ: everything asks Q1, or Q4.
	workloads := make([]map[string]float64, 2)
	for i, hot := range []string{"Q1", "Q4"} {
		workloads[i] = make(map[string]float64)
		for _, q := range queries {
			workloads[i][q.Name] = 0.01
		}
		workloads[i][hot] = 1000
	}
	swaps := 0
	gens := countGenerations(s)
	hammer(t, s, db, 4, func(answered func(int64)) {
		for i := 0; i < 24; i++ {
			advice, err := s.adviseWith(workloads[i%2])
			if err != nil {
				t.Error(err)
				return
			}
			if advice.Changed() {
				swaps++
			}
			if err := s.ApplyAdvice(advice); err != nil {
				t.Error(err)
				return
			}
			if moved := gens.afterPublication(); moved != advice.Changed() {
				t.Errorf("swap %d changed the view set: %v, moved the served generation: %v", i, advice.Changed(), moved)
			}
			answered(40)
		}
	})
	if swaps < 12 {
		t.Fatalf("only %d of 24 advices changed the view set: the two workloads select the same views", swaps)
	}
	requireRewritesBounded(t, s, gens.published)
}

// TestPreparedPlanSameNameRematerialized is the case only the generation
// catches: view "v" is dropped and materialized again under the same name
// and schema with a different plan (LA's products, then SF's). A plan
// prepared while v held the other city's rows would execute without error
// and answer with the wrong rows. The test changes the view set on the DB
// behind the server, which serves such a change from its next publication:
// each round ends in RefreshAllViews.
func TestPreparedPlanSameNameRematerialized(t *testing.T) {
	db := paperServeDB(t)
	la := laJoinPlan(t, db)
	// The same join for another city: same schema, different rows.
	sfJoin := la.(*algebra.Join)
	div := sfJoin.Right.(*algebra.Select).Input
	sf := algebra.NewJoin(sfJoin.Left, algebra.NewSelect(div,
		algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("SF"))), sfJoin.On)
	if _, err := db.Materialize("v", la); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		DB:            db,
		Queries:       []QuerySpec{{Name: "QLA", Plan: la, Frequency: 1}, {Name: "QSF", Plan: sf, Frequency: 1}},
		Views:         []ViewSpec{{Name: "v", Strategy: core.MaintRecompute}},
		CacheCapacity: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plans := []algebra.Node{sf, la}
	gens := countGenerations(s)
	hammer(t, s, db, 4, func(answered func(int64)) {
		for i := 0; i < 60; i++ {
			if err := db.DropView("v"); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Materialize("v", plans[i%2]); err != nil {
				t.Error(err)
				return
			}
			if err := s.RefreshAllViews(); err != nil {
				t.Error(err)
				return
			}
			if !gens.afterPublication() {
				t.Errorf("round %d: the server did not publish the rematerialized view set", i)
			}
			answered(20)
		}
	})
	requireRewritesBounded(t, s, gens.published)
}

// TestMissAllocBudget guards the miss path without a wall clock: one
// uncached Query of σ city='LA' over a stored Product ⋈ Division view at
// scale 0.05 — one state load, the served plan, one selection-vector
// pass, one gather — may allocate at most 1.25× what it does since string
// columns are dictionary-coded (32 allocations, 9.7 KB: the gather copies
// 4-byte codes, and σ's per-code table lives on the stack). When the
// selection-vector kernels and prepared plans landed it was 35 allocations
// and 10.9 KB (EXPERIMENTS "Miss path"); the bool-mask kernels with a
// rewrite per miss took 72 allocations and 9.5 KB — a lane of the selection
// vector is 4 bytes where the two masks spent 2. A change that goes back to
// rewriting per miss, or allocates per conjunct over every row, fails here.
func TestMissAllocBudget(t *testing.T) {
	const measuredAllocs, measuredBytes = 32, 9_700
	db, err := datagen.PaperDB(10, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := db.Table("Product")
	dv, _ := db.Table("Division")
	join := algebra.NewJoin(algebra.NewScan("Product", pd.Schema), algebra.NewScan("Division", dv.Schema),
		[]algebra.JoinCond{{Left: algebra.Ref("Product", "Did"), Right: algebra.Ref("Division", "Did")}})
	if _, err := db.Materialize("pd", join); err != nil {
		t.Fatal(err)
	}
	query := algebra.NewSelect(join, algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	s, err := New(Config{
		DB:            db,
		Queries:       []QuerySpec{{Name: "Q", Plan: query, Frequency: 1}},
		Views:         []ViewSpec{{Name: "pd", Strategy: core.MaintRecompute}},
		Workers:       1,
		CacheCapacity: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	miss := func() {
		res, err := s.Query(ctx, "Q")
		if err != nil || res.Cached || res.Table.NumRows() == 0 {
			t.Fatalf("miss: %v (cached %v)", err, res != nil && res.Cached)
		}
	}
	miss() // warm the worker off the clock

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, miss)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("one miss: %.0f allocations, %.0f bytes (budget 1.25 × %d, 1.25 × %d)", allocs, bytes, measuredAllocs, measuredBytes)
	if allocs > measuredAllocs*5/4 {
		t.Errorf("one miss allocates %.0f times, budget %d (1.25 × %d)", allocs, measuredAllocs*5/4, measuredAllocs)
	}
	if bytes > measuredBytes*5/4 {
		t.Errorf("one miss allocates %.0f bytes, budget %d (1.25 × %d)", bytes, measuredBytes*5/4, measuredBytes)
	}
}
