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

// TestMissAllocBudget guards the miss path without a wall clock. Each row
// is one uncached Query over a stored Product ⋈ Division view at scale 0.05
// — one state load, the served plan, σ city='LA' answered from the city
// column's postings, one gather at the root — and may allocate at most
// 1.25× what it measured when σ began to carry its selection vector and π
// to share it: a row's bytes are the columns the answer keeps, gathered
// once. The history of the σ row: 35 allocations and 10.9 KB when the
// selection-vector kernels and prepared plans landed (EXPERIMENTS "Miss
// path"), 32 and 9.7 KB once string columns were dictionary-coded, when σ
// gathered every column of the view itself; the bool-mask kernels with a
// rewrite per miss took 72 allocations and 9.5 KB. A change that goes back
// to rewriting per miss, allocates per conjunct over every row, or gathers
// columns the answer drops fails here: the π∘σ row keeps two of the view's
// columns and must cost a fraction of the σ row's bytes. The π∘σ row took 37
// allocations and 2.5 KB while π re-resolved its output schema and column
// positions and rendered its label on every execution; it resolves them
// once per plan node now. Both rows took 4 allocations and 100–160 bytes
// more (31 and 3.6 KB, 29 and 2.3 KB) while σ and ⋈ rendered their labels on
// every execution; each node keeps its label now. And 27 and 3.4 KB, 25 and
// 2.2 KB while a miss went to a pool worker and back (a request and its reply
// channel), Execute validated the whole plan on every run, and every
// operator built its event's attributes with no observer to read them.
func TestMissAllocBudget(t *testing.T) {
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
	sel := algebra.NewSelect(join, algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")))
	proj := algebra.NewProject(sel, []algebra.ColumnRef{algebra.Ref("Product", "Pid"), algebra.Ref("Division", "city")})
	s, err := New(Config{
		DB:            db,
		Queries:       []QuerySpec{{Name: "Q", Plan: sel, Frequency: 1}, {Name: "QP", Plan: proj, Frequency: 1}},
		Views:         []ViewSpec{{Name: "pd", Strategy: core.MaintRecompute}},
		Workers:       1,
		CacheCapacity: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows := []struct {
		query                         string
		measuredAllocs, measuredBytes int
	}{
		{"Q", 18, 2_950},
		{"QP", 13, 1_500},
	}
	bytesOf := map[string]float64{}
	for _, row := range rows {
		allocs, bytes := missAllocs(t, s, row.query)
		bytesOf[row.query] = bytes
		t.Logf("%s: one miss: %.0f allocations, %.0f bytes (budget 1.25 × %d, 1.25 × %d)",
			row.query, allocs, bytes, row.measuredAllocs, row.measuredBytes)
		if allocs > float64(row.measuredAllocs*5/4) {
			t.Errorf("%s: one miss allocates %.0f times, budget %d (1.25 × %d)", row.query, allocs, row.measuredAllocs*5/4, row.measuredAllocs)
		}
		if bytes > float64(row.measuredBytes*5/4) {
			t.Errorf("%s: one miss allocates %.0f bytes, budget %d (1.25 × %d)", row.query, bytes, row.measuredBytes*5/4, row.measuredBytes)
		}
	}
	// The projection keeps 2 of the view's columns. While σ gathered every
	// column, π∘σ cost σ's bytes and π's own on top.
	if bytesOf["QP"] >= bytesOf["Q"] {
		t.Errorf("π∘σ allocates %.0f bytes, σ alone %.0f: the miss gathers columns its answer drops", bytesOf["QP"], bytesOf["Q"])
	}
}

// missAllocs returns what one uncached Query of the named query allocates,
// as a count and in bytes, on average over 200 runs.
func missAllocs(t *testing.T, s *Server, name string) (allocs, bytes float64) {
	t.Helper()
	ctx := context.Background()
	miss := func() {
		res, err := s.Query(ctx, name)
		if err != nil || res.Cached || res.Table.NumRows() == 0 {
			t.Fatalf("%s: miss: %v (cached %v)", name, err, res != nil && res.Cached)
		}
	}
	miss() // warm the plan off the clock

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, miss)
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
}

// TestHitAllocBudget pins an unsampled cache hit at one allocation, the
// *Result it returns, with and without a trace ring (one query in 2^20
// sampled, the first: the warm-up takes it). A stage's attributes escape to
// the heap even when traceStage drops them, so building them for an
// unsampled hit cost two more.
func TestHitAllocBudget(t *testing.T) {
	for _, every := range []int{0, 1 << 20} {
		db := paperServeDB(t)
		s, err := New(Config{
			DB:               db,
			Queries:          []QuerySpec{{Name: "Q", Plan: laJoinPlan(t, db), Frequency: 1}},
			TraceSampleEvery: every,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Query(ctx, "Q"); err != nil { // the miss that fills the cache
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			res, err := s.Query(ctx, "Q")
			if err != nil || !res.Cached {
				t.Fatalf("hit: %v (cached %v)", err, res != nil && res.Cached)
			}
		})
		s.Close()
		if allocs > 1 {
			t.Errorf("TraceSampleEvery %d: one unsampled hit allocates %.0f times, want 1 (its *Result)", every, allocs)
		}
	}
}
