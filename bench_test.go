// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure), plus the ablation and scaling studies DESIGN.md calls out.
// Cost results are attached as custom metrics (blocks-total etc.) so
// `go test -bench . -benchmem` reproduces the evaluation's numbers
// alongside the runtime of our implementations of the paper's algorithms.
package mvpp_test

import (
	"fmt"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/optimizer"
	"github.com/warehousekit/mvpp/internal/paper"
	"github.com/warehousekit/mvpp/internal/repro"
	"github.com/warehousekit/mvpp/internal/sqlparse"
	"github.com/warehousekit/mvpp/internal/workload"
)

// benchFigure3 builds the paper MVPP once per iteration set.
func benchFigure3(b *testing.B) (*core.MVPP, cost.Model) {
	b.Helper()
	m, model, err := repro.Figure3()
	if err != nil {
		b.Fatal(err)
	}
	return m, model
}

// BenchmarkTable1Catalog regenerates Table 1 (catalog construction with
// the paper's statistics).
func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.NewCatalog(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Strategies regenerates Table 2: evaluating the paper's
// five materialization strategies on the Figure 3 MVPP.
func BenchmarkTable2Strategies(b *testing.B) {
	m, model := benchFigure3(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ref := range repro.Table2Reference {
			if ref.Views == nil {
				total = m.AllVirtual(model).Total
				continue
			}
			c, err := m.EvaluateNames(model, ref.Views)
			if err != nil {
				b.Fatal(err)
			}
			total = c.Total
		}
	}
	b.ReportMetric(total, "blocks-last-total")
}

// BenchmarkFigure2Merge regenerates Figure 2: merging Q1 and Q2 on their
// common subexpression.
func BenchmarkFigure2Merge(b *testing.B) {
	ex, err := paper.Load()
	if err != nil {
		b.Fatal(err)
	}
	plans, err := paper.Figure3Plans(ex.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	model := repro.Model()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := cost.NewEstimator(ex.Catalog, cost.PaperOptions())
		builder := core.NewBuilder(est, model)
		for _, s := range plans[:2] {
			if err := builder.AddQuery(s.Name, s.Freq, s.Plan); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := builder.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3MVPP regenerates Figure 3: building and annotating the
// full four-query MVPP.
func BenchmarkFigure3MVPP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5IndividualPlans regenerates Figure 5: per-query optimal
// plans via join-order dynamic programming.
func BenchmarkFigure5IndividualPlans(b *testing.B) {
	ex, err := paper.Load()
	if err != nil {
		b.Fatal(err)
	}
	model := repro.Model()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := cost.NewEstimator(ex.Catalog, cost.PaperOptions())
		opt := optimizer.New(est, model, optimizer.Options{})
		if _, _, err := opt.OptimizeAll(ex.Queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Generation regenerates Figure 6: the rotation merge
// producing multiple MVPPs (Figure 4's algorithm).
func BenchmarkFigure6Generation(b *testing.B) {
	ex, err := paper.Load()
	if err != nil {
		b.Fatal(err)
	}
	est := cost.NewEstimator(ex.Catalog, cost.PaperOptions())
	model := repro.Model()
	opt := optimizer.New(est, model, optimizer.Options{})
	var plans []core.QueryPlan
	for _, q := range ex.Queries {
		p, _, err := opt.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, core.QueryPlan{Name: q.Name, Freq: ex.Frequencies[q.Name], Plan: p})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(est, model, plans, core.GenOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7and8Pushdown regenerates Figures 7–8: MVPP generation
// without and with selection/projection push-down.
func BenchmarkFigure7and8Pushdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Figure7and8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9Selection regenerates the Figure 9 heuristic's traced
// run on the paper MVPP.
func BenchmarkFigure9Selection(b *testing.B) {
	m, model := benchFigure3(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m.SelectViews(model, core.SelectOptions{})
		total = res.Costs.Total
	}
	b.ReportMetric(total, "blocks-total")
}

// BenchmarkExhaustiveSelection prices the 2^11 exhaustive search on the
// paper MVPP — the ground truth the heuristic is judged against.
func BenchmarkExhaustiveSelection(b *testing.B) {
	m, model := benchFigure3(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.ExhaustiveOptimal(model)
		if err != nil {
			b.Fatal(err)
		}
		total = res.Costs.Total
	}
	b.ReportMetric(total, "blocks-total")
}

// BenchmarkHeuristicVsExhaustive reports the heuristic's quality gap
// (heuristic total / optimal total) as a metric while timing both.
func BenchmarkHeuristicVsExhaustive(b *testing.B) {
	m, model := benchFigure3(b)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heur := m.SelectViews(model, core.SelectOptions{})
		opt, err := m.ExhaustiveOptimal(model)
		if err != nil {
			b.Fatal(err)
		}
		ratio = heur.Costs.Total / opt.Costs.Total
	}
	b.ReportMetric(ratio, "heuristic/optimal")
}

// BenchmarkDesignObserved times the whole public-API pipeline on the paper
// workload with a fresh trace recorder per iteration, to price the
// instrumented path (rebuilding per iteration keeps one recorder from
// accumulating every prior trace). The allocation guard in observe_test.go
// compares it with the same pipeline under a nil observer; the uninstrumented
// design latency itself is the repo benchmark's design_star32.
func BenchmarkDesignObserved(b *testing.B) {
	benchDesignPaper(b, func() mvpp.Observer { return mvpp.NewTraceRecorder(nil) })
}

// benchDesignPaper builds the paper designer and designs, once per
// iteration, under the observer the callback supplies.
func benchDesignPaper(b *testing.B, observer func() mvpp.Observer) {
	for i := 0; i < b.N; i++ {
		d := benchPaperDesignerOpts(b, mvpp.Options{Observer: observer()})
		if _, err := d.Design(); err != nil {
			b.Fatal(err)
		}
	}
}

// starDesign returns one design op — estimator, per-query optimization,
// Figure 4 with every rotation and delta pricing, best candidate — over n
// generated queries on the 6-dimension star.
func starDesign(tb testing.TB, n int) func() *core.Candidate {
	tb.Helper()
	spec := workload.DefaultStar(6)
	cat, err := workload.Star(spec)
	if err != nil {
		tb.Fatal(err)
	}
	queries, err := workload.Queries(cat, spec, workload.DefaultQueries(spec), n, 7)
	if err != nil {
		tb.Fatal(err)
	}
	freqs := workload.ZipfFrequencies(n, 1, 20)
	model := repro.Model()
	return func() *core.Candidate {
		est := cost.NewEstimator(cat, cost.DefaultOptions())
		opt := optimizer.New(est, model, optimizer.Options{})
		plans := make([]core.QueryPlan, n)
		for j, q := range queries {
			p, _, err := opt.Optimize(q)
			if err != nil {
				tb.Fatal(err)
			}
			plans[j] = core.QueryPlan{Name: q.Name, Freq: freqs[j], Plan: p}
		}
		cands, err := core.Generate(est, model, plans, core.GenOptions{
			Delta: &cost.DeltaSpec{DefaultFraction: 0.01},
		})
		if err != nil {
			tb.Fatal(err)
		}
		return core.Best(cands)
	}
}

// BenchmarkDesignScaling grows the workload on a star schema — the
// scalability study the paper's future work calls for, with every rotation
// generated (EXPERIMENTS.md records ns/op, allocs/op and the fitted
// exponent).
func BenchmarkDesignScaling(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			design := starDesign(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				design()
			}
		})
	}
}

// BenchmarkDesignScalingAggregates repeats the scaling study on a mixed
// detail/summary workload (40% aggregate queries).
func BenchmarkDesignScalingAggregates(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			spec := workload.DefaultStar(6)
			cat, err := workload.Star(spec)
			if err != nil {
				b.Fatal(err)
			}
			qs := workload.DefaultQueries(spec)
			qs.AggregateProb = 0.4
			queries, err := workload.Queries(cat, spec, qs, n, 23)
			if err != nil {
				b.Fatal(err)
			}
			freqs := workload.ZipfFrequencies(n, 1, 20)
			model := repro.Model()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est := cost.NewEstimator(cat, cost.DefaultOptions())
				opt := optimizer.New(est, model, optimizer.Options{})
				plans := make([]core.QueryPlan, n)
				for j, q := range queries {
					p, _, err := opt.Optimize(q)
					if err != nil {
						b.Fatal(err)
					}
					plans[j] = core.QueryPlan{Name: q.Name, Freq: freqs[j], Plan: p}
				}
				cands, err := core.Generate(est, model, plans, core.GenOptions{MaxRotations: 3})
				if err != nil {
					b.Fatal(err)
				}
				core.Best(cands)
			}
		})
	}
}

// BenchmarkAblationJoinModel regenerates the design under each join cost
// model; the chosen-set total shows how much of the benefit is NLJ-bound.
func BenchmarkAblationJoinModel(b *testing.B) {
	for _, kind := range []struct {
		name  string
		model cost.Model
	}{
		{"paper-nlj", &cost.PaperModel{}},
		{"block-nlj", &cost.BlockNLJModel{}},
		{"hash-join", &cost.HashJoinModel{}},
		{"sort-merge", &cost.SortMergeModel{}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			ex, err := paper.Load()
			if err != nil {
				b.Fatal(err)
			}
			plans, err := paper.Figure3Plans(ex.Catalog)
			if err != nil {
				b.Fatal(err)
			}
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est := cost.NewEstimator(ex.Catalog, cost.PaperOptions())
				builder := core.NewBuilder(est, kind.model)
				for _, s := range plans {
					if err := builder.AddQuery(s.Name, s.Freq, s.Plan); err != nil {
						b.Fatal(err)
					}
				}
				m, err := builder.Build()
				if err != nil {
					b.Fatal(err)
				}
				res := m.SelectViews(kind.model, core.SelectOptions{})
				total = res.Costs.Total
			}
			b.ReportMetric(total, "blocks-total")
		})
	}
}

// BenchmarkAblationPruning contrasts the Figure 9 heuristic with and
// without step 7's same-branch pruning.
func BenchmarkAblationPruning(b *testing.B) {
	m, model := benchFigure3(b)
	for _, variant := range []struct {
		name string
		opts core.SelectOptions
	}{
		{"with-pruning", core.SelectOptions{}},
		{"no-pruning", core.SelectOptions{NoBranchPruning: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				res := m.SelectViews(model, variant.opts)
				total = res.Costs.Total
			}
			b.ReportMetric(total, "blocks-total")
		})
	}
}

// BenchmarkAblationSelection contrasts the paper's greedy heuristic, the
// discounted-maintenance extension, and the exhaustive optimum on a
// summary-table workload where the paper's Cs formula undervalues stacked
// materialization.
func BenchmarkAblationSelection(b *testing.B) {
	ex, err := paper.Load()
	if err != nil {
		b.Fatal(err)
	}
	est := cost.NewEstimator(ex.Catalog, cost.DefaultOptions())
	model := repro.Model()
	opt := optimizer.New(est, model, optimizer.Options{})
	sqls := map[string]struct {
		sql  string
		freq float64
	}{
		"citySales": {`SELECT Customer.city, SUM(quantity) AS total FROM Order, Customer
			WHERE Order.Cid = Customer.Cid GROUP BY Customer.city`, 20},
		"cityOrders": {`SELECT Customer.city, COUNT(*) AS n FROM Order, Customer
			WHERE Order.Cid = Customer.Cid GROUP BY Customer.city`, 10},
		"bigOrders": {`SELECT Customer.name, quantity FROM Order, Customer
			WHERE quantity > 100 AND Order.Cid = Customer.Cid`, 2},
	}
	var plans []core.QueryPlan
	for name, s := range sqls {
		q, err := sqlparse.BindQuery(ex.Catalog, name, s.sql)
		if err != nil {
			b.Fatal(err)
		}
		p, _, err := opt.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, core.QueryPlan{Name: name, Freq: s.freq, Plan: p})
	}
	cands, err := core.Generate(est, model, plans, core.GenOptions{MaxRotations: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := cands[0].MVPP

	b.Run("paper-greedy", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total = m.SelectViews(model, core.SelectOptions{}).Costs.Total
		}
		b.ReportMetric(total, "blocks-total")
	})
	b.Run("discounted-maintenance", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total = m.SelectViews(model, core.SelectOptions{DiscountedMaintenance: true}).Costs.Total
		}
		b.ReportMetric(total, "blocks-total")
	})
	b.Run("exhaustive", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			res, err := m.ExhaustiveOptimal(model)
			if err != nil {
				b.Fatal(err)
			}
			total = res.Costs.Total
		}
		b.ReportMetric(total, "blocks-total")
	})
}

// BenchmarkAblationRotation contrasts a single merge order with the full
// rotation of Figure 4 step 4.5.
func BenchmarkAblationRotation(b *testing.B) {
	ex, err := paper.Load()
	if err != nil {
		b.Fatal(err)
	}
	est := cost.NewEstimator(ex.Catalog, cost.PaperOptions())
	model := repro.Model()
	opt := optimizer.New(est, model, optimizer.Options{})
	var plans []core.QueryPlan
	for _, q := range ex.Queries {
		p, _, err := opt.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, core.QueryPlan{Name: q.Name, Freq: ex.Frequencies[q.Name], Plan: p})
	}
	for _, variant := range []struct {
		name      string
		rotations int
	}{
		{"first-seed-only", 1},
		{"full-rotation", 0},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				cands, err := core.Generate(est, model, plans, core.GenOptions{MaxRotations: variant.rotations})
				if err != nil {
					b.Fatal(err)
				}
				total = core.Best(cands).Selection.Costs.Total
			}
			b.ReportMetric(total, "blocks-total")
		})
	}
}

// BenchmarkAblationPushdown contrasts the push-down variants of Figure 4
// steps 5–6.
func BenchmarkAblationPushdown(b *testing.B) {
	ex, err := paper.Load()
	if err != nil {
		b.Fatal(err)
	}
	est := cost.NewEstimator(ex.Catalog, cost.PaperOptions())
	model := repro.Model()
	opt := optimizer.New(est, model, optimizer.Options{})
	var plans []core.QueryPlan
	for _, q := range ex.Queries {
		p, _, err := opt.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, core.QueryPlan{Name: q.Name, Freq: ex.Frequencies[q.Name], Plan: p})
	}
	for _, variant := range []struct {
		name string
		opts core.GenOptions
	}{
		{"no-pushdown", core.GenOptions{NoPushdown: true}},
		{"common-only", core.GenOptions{}},
		{"disjunction+projection", core.GenOptions{PushDisjunctions: true, PushProjections: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				cands, err := core.Generate(est, model, plans, variant.opts)
				if err != nil {
					b.Fatal(err)
				}
				total = core.Best(cands).Selection.Costs.Total
			}
			b.ReportMetric(total, "blocks-total")
		})
	}
}

// BenchmarkAblationMaintenance contrasts the paper's recompute maintenance
// with the incremental-delta extension on the Figure 3 MVPP.
func BenchmarkAblationMaintenance(b *testing.B) {
	m, model := benchFigure3(b)
	mat, err := m.VertexByName("tmp2")
	if err != nil {
		b.Fatal(err)
	}
	tmp4, err := m.VertexByName("tmp4")
	if err != nil {
		b.Fatal(err)
	}
	set := core.NewVertexSet(mat, tmp4)
	b.Run("recompute", func(b *testing.B) {
		m.SetMaintenancePolicy(core.PolicyRecompute, 0)
		var maint float64
		for i := 0; i < b.N; i++ {
			maint = m.Evaluate(model, set).Maintenance
		}
		b.ReportMetric(maint, "blocks-maintenance")
	})
	for _, delta := range []float64{0.01, 0.1} {
		b.Run(fmt.Sprintf("incremental-delta=%g", delta), func(b *testing.B) {
			m.SetMaintenancePolicy(core.PolicyIncremental, delta)
			defer m.SetMaintenancePolicy(core.PolicyRecompute, 0)
			var maint float64
			for i := 0; i < b.N; i++ {
				maint = m.Evaluate(model, set).Maintenance
			}
			b.ReportMetric(maint, "blocks-maintenance")
		})
	}
}

// BenchmarkEngineSimulation times the end-to-end engine validation of a
// design (synthetic data, direct vs rewritten execution, refresh).
func BenchmarkEngineSimulation(b *testing.B) {
	d := benchPaperDesigner(b)
	design, err := d.Design()
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := design.Simulate(mvpp.SimOptions{Scale: 0.005, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		speedup = sim.Speedup()
	}
	b.ReportMetric(speedup, "io-speedup")
}

// BenchmarkSimulateDelta times the engine's delta-propagation maintenance
// path: one synthetic-insert epoch applied to every view incrementally. The
// reported metrics compare the measured incremental epoch against a full
// recompute epoch (the repo benchmark's engine.refresh_blocks_incremental
// and engine.refresh_blocks_recompute measure the same pair on its star).
func BenchmarkSimulateDelta(b *testing.B) {
	d := benchPaperDesignerOpts(b, mvpp.Options{Delta: &mvpp.DeltaOptions{DefaultFraction: 0.01}})
	design, err := d.Design()
	if err != nil {
		b.Fatal(err)
	}
	var incIO, fullIO int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := design.Simulate(mvpp.SimOptions{Scale: 0.005, Seed: 11, DeltaFraction: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		incIO, fullIO = sim.IncrementalRefreshIO, sim.RefreshIO
	}
	b.ReportMetric(float64(incIO), "blocks-incremental-epoch")
	b.ReportMetric(float64(fullIO), "blocks-recompute-epoch")
}

// benchPaperDesigner builds the paper workload through the public API.
func benchPaperDesigner(b testing.TB) *mvpp.Designer {
	b.Helper()
	return benchPaperDesignerOpts(b, mvpp.Options{})
}

// paperDesigner is benchPaperDesigner with caller-chosen options (tests use
// it to attach an Observer).
func benchPaperDesignerOpts(b testing.TB, opts mvpp.Options) *mvpp.Designer {
	b.Helper()
	cat := mvpp.NewCatalog()
	fail := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	fail(cat.AddTable("Product", []mvpp.Column{
		{Name: "Pid", Type: mvpp.Int}, {Name: "name", Type: mvpp.String}, {Name: "Did", Type: mvpp.Int},
	}, mvpp.TableStats{Rows: 30000, Blocks: 3000, UpdateFrequency: 1,
		DistinctValues: map[string]float64{"Pid": 30000, "Did": 5000}}))
	fail(cat.AddTable("Division", []mvpp.Column{
		{Name: "Did", Type: mvpp.Int}, {Name: "name", Type: mvpp.String}, {Name: "city", Type: mvpp.String},
	}, mvpp.TableStats{Rows: 5000, Blocks: 500, UpdateFrequency: 1,
		DistinctValues: map[string]float64{"Did": 5000, "city": 50}}))
	fail(cat.AddTable("Order", []mvpp.Column{
		{Name: "Pid", Type: mvpp.Int}, {Name: "Cid", Type: mvpp.Int},
		{Name: "quantity", Type: mvpp.Int}, {Name: "date", Type: mvpp.Date},
	}, mvpp.TableStats{Rows: 50000, Blocks: 6000, UpdateFrequency: 1,
		DistinctValues: map[string]float64{"Pid": 30000, "Cid": 20000},
		IntRanges:      map[string][2]int64{"quantity": {1, 200}}}))
	fail(cat.AddTable("Customer", []mvpp.Column{
		{Name: "Cid", Type: mvpp.Int}, {Name: "name", Type: mvpp.String}, {Name: "city", Type: mvpp.String},
	}, mvpp.TableStats{Rows: 20000, Blocks: 2000, UpdateFrequency: 1,
		DistinctValues: map[string]float64{"Cid": 20000, "city": 50}}))
	fail(cat.AddTable("Part", []mvpp.Column{
		{Name: "Tid", Type: mvpp.Int}, {Name: "name", Type: mvpp.String},
		{Name: "Pid", Type: mvpp.Int}, {Name: "supplier", Type: mvpp.String},
	}, mvpp.TableStats{Rows: 80000, Blocks: 10000, UpdateFrequency: 1,
		DistinctValues: map[string]float64{"Tid": 80000, "Pid": 30000}}))
	fail(cat.PinSelectivity(`city = 'LA'`, 0.02, "Division"))
	fail(cat.PinSelectivity(`date > 7/1/96`, 0.5, "Order"))
	fail(cat.PinSelectivity(`quantity > 100`, 0.5, "Order"))

	d := mvpp.NewDesigner(cat, opts)
	fail(d.AddQuery("Q1", `SELECT Product.name FROM Product, Division WHERE Division.city = 'LA' AND Product.Did = Division.Did`, 10))
	fail(d.AddQuery("Q2", `SELECT Part.name FROM Product, Part, Division WHERE Division.city = 'LA' AND Product.Did = Division.Did AND Part.Pid = Product.Pid`, 0.5))
	fail(d.AddQuery("Q3", `SELECT Customer.name, Product.name, quantity FROM Product, Division, Order, Customer WHERE Division.city = 'LA' AND Product.Did = Division.Did AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid AND date > 7/1/96`, 0.8))
	fail(d.AddQuery("Q4", `SELECT Customer.city, date FROM Order, Customer WHERE quantity > 100 AND Order.Cid = Customer.Cid`, 5))
	return d
}
