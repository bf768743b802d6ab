package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/optimizer"
	"github.com/warehousekit/mvpp/internal/sqlparse"
)

// designRef is what every design op must reproduce.
type designRef struct {
	views []string
	costs mvpp.CostSummary
}

func refOf(d *mvpp.Design) designRef {
	ref := designRef{costs: d.Costs()}
	for _, v := range d.Views() {
		ref.views = append(ref.views, v.Name)
	}
	ref.views = sortedCopy(ref.views)
	return ref
}

// designOnce is one design op through the public API.
func designOnce(spec *Spec) (*mvpp.Design, error) {
	des, err := spec.NewDesigner()
	if err != nil {
		return nil, err
	}
	return des.Design()
}

// layered is the outcome of one layeredDesign op.
type layered struct {
	views      []string // chosen view names, sorted
	best       *core.Candidate
	candidates int
	took       time.Duration // the op alone, without the probes after it
}

// layeredDesign is the same pipeline as Designer.Design, called layer by
// layer from here so that each layer gets its own span.
func layeredDesign(spec *Spec, tr *Tracer, op int64, lay layerHists) (*layered, error) {
	var (
		err   error
		bound = make([]*sqlparse.Query, len(spec.Queries))
		plans = make([]core.QueryPlan, len(spec.Queries))
		cands []*core.Candidate
		best  *core.Candidate
		model = &cost.PaperModel{}
	)
	root := tr.Begin("design.layered", -1, op)
	t0 := time.Now()
	cat, err := spec.InternalCatalog()
	if err != nil {
		return nil, err
	}
	lay.timed(tr, "sqlparse.bind", root, op, func() {
		for i, q := range spec.Queries {
			if bound[i], err = sqlparse.BindQuery(cat, q.Name, q.SQL); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	est := cost.NewEstimator(cat, cost.DefaultOptions())
	lay.timed(tr, "optimizer.optimize", root, op, func() {
		opt := optimizer.New(est, model, optimizer.Options{})
		for i, q := range spec.Queries {
			plan, _, oerr := opt.Optimize(bound[i])
			if oerr != nil {
				err = oerr
				return
			}
			plans[i] = core.QueryPlan{Name: q.Name, Freq: q.Freq, Plan: plan}
		}
	})
	if err != nil {
		return nil, err
	}
	lay.timed(tr, "core.generate", root, op, func() {
		cands, err = core.Generate(est, model, plans, core.GenOptions{
			Delta: &cost.DeltaSpec{DefaultFraction: designOptions().Delta.DefaultFraction},
		})
	})
	if err != nil {
		return nil, err
	}
	// The facade's safeguard: price "materialize nothing" and "materialize
	// every query result" on each candidate and keep the cheapest.
	lay.timed(tr, "core.safeguard", root, op, func() {
		for _, c := range cands {
			roots := make(core.VertexSet, len(c.MVPP.Roots))
			for _, r := range c.MVPP.Roots {
				roots[r.ID] = true
			}
			for _, alt := range []core.VertexSet{{}, roots} {
				if costs := c.MVPP.Evaluate(model, alt); costs.Total < c.Selection.Costs.Total {
					c.Selection.Materialized, c.Selection.Costs = alt, costs
				}
			}
		}
		best = core.Best(cands)
	})
	took := time.Since(t0)
	lay.hist("design.layered").Add(took)
	tr.End(root)

	// Two single-call probes outside the op: Fig. 9 alone on the chosen
	// MVPP (Generate runs it once per rotation, in parallel), and one
	// pricing of the chosen set.
	probe := tr.Begin("design.probes", -1, op)
	lay.timed(tr, "core.select", probe, op, func() { best.MVPP.SelectViews(model, core.SelectOptions{}) })
	lay.timed(tr, "core.evaluate", probe, op, func() { best.MVPP.Evaluate(model, best.Selection.Materialized) })
	tr.End(probe)
	return &layered{
		views: sortedCopy(best.Selection.Materialized.Names(best.MVPP)),
		best:  best, candidates: len(cands), took: took,
	}, nil
}

func runDesign(cfg runConfig, res *Result) error {
	var (
		spec   *Spec
		ref    designRef
		last   *mvpp.Design
		setups []float64
	)
	for i := 0; i < cfg.setupReps(); i++ {
		t0 := time.Now()
		spec = Generate(cfg.seed)
		d, err := designOnce(spec) // the warm-up op; its result is the reference
		if err != nil {
			return err
		}
		ref, last = refOf(d), d
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), int64(len(setups)))
	res.check(ref.costs.TotalCost <= ref.costs.AllVirtualTotal && ref.costs.TotalCost <= ref.costs.AllMaterializedTotal,
		"design total %g exceeds a baseline (virtual %g, materialized %g)",
		ref.costs.TotalCost, ref.costs.AllVirtualTotal, ref.costs.AllMaterializedTotal)
	res.set("core.cost_vs_virtual", ref.costs.TotalCost/ref.costs.AllVirtualTotal, 0)

	// publicOps runs the closed loop through the public API until the
	// deadline; checks run with the clock stopped.
	publicOps := func(d time.Duration, h *Hist) (busy time.Duration) {
		deadline := time.Now().Add(d)
		for h.N() == 0 || time.Now().Before(deadline) {
			t0 := time.Now()
			got, err := designOnce(spec)
			lat := time.Since(t0)
			res.attempt(1)
			if err != nil {
				res.fail("design: %v", err)
				continue
			}
			busy += lat
			h.Add(lat)
			last = got
			g := refOf(got)
			if !slices.Equal(g.views, ref.views) || g.costs.TotalCost != ref.costs.TotalCost {
				res.fail("design op %d chose %v (total %g), the reference chose %v (total %g)",
					h.N(), g.views, g.costs.TotalCost, ref.views, ref.costs.TotalCost)
			}
		}
		return busy
	}

	var pub Hist
	if !cfg.traced {
		busy := publicOps(cfg.window, &pub)
		setOpMetrics(res, &pub, float64(pub.N())/busy.Seconds())
		res.set("heap_live_mb", heapLiveMB(), 0)
		runtime.KeepAlive(last)
		return nil
	}

	// Traced run: a fifth of the window through the public API, for the
	// baseline latency and the allocation counts, then the layered pipeline.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	busy := publicOps(cfg.window/5, &pub)
	runtime.ReadMemStats(&m1)
	n := float64(pub.N())
	res.set("mvpp.design_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n, pub.N())
	res.set("mvpp.design_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/n/1024, pub.N())
	res.set("mvpp.design_ms_p50", nsToMs(pub.Quantile(0.5)), pub.N())

	origin := time.Now()
	tr := NewTracer(origin, 0)
	lay := layerHists{}
	var got *layered
	var layeredBusy time.Duration
	deadline := origin.Add(cfg.window - cfg.window/5)
	for op := int64(0); op == 0 || time.Now().Before(deadline); op++ {
		l, err := layeredDesign(spec, tr, op, lay)
		res.attempt(1)
		if err != nil {
			res.fail("layered design: %v", err)
			continue
		}
		got = l
		layeredBusy += l.took
		if !slices.Equal(l.views, ref.views) || l.best.Selection.Costs.Total != ref.costs.TotalCost {
			res.fail("layered design chose %v (total %g), Design() chose %v (total %g)",
				l.views, l.best.Selection.Costs.Total, ref.views, ref.costs.TotalCost)
		}
	}
	if got == nil {
		return fmt.Errorf("no layered design op completed")
	}
	ops := lay.hist("design.layered")
	p50 := func(name string) float64 { return nsToMs(lay.hist(name).Quantile(0.5)) }
	res.set("sqlparse.bind_ms", p50("sqlparse.bind"), ops.N())
	res.set("optimizer.optimize_ms", p50("optimizer.optimize"), ops.N())
	res.set("core.generate_ms", p50("core.generate"), ops.N())
	res.set("core.select_ms", p50("core.select"), ops.N())
	res.set("core.evaluate_us", nsToUs(lay.hist("core.evaluate").Quantile(0.5)), ops.N())
	res.set("core.vertices", float64(len(got.best.MVPP.Vertices)), 0)
	res.set("core.candidates", float64(got.candidates), 0)
	res.set("core.views_selected", float64(len(got.best.Selection.Materialized)), 0)
	attributed := p50("sqlparse.bind") + p50("optimizer.optimize") + p50("core.generate") + p50("core.safeguard")
	res.set("mvpp.design_unattributed_ms", nsToMs(pub.Quantile(0.5))-attributed, ops.N())
	// The layered op does the same work as the public one, so the loss of
	// throughput against the untraced fifth is what the spans cost.
	untraced := n / busy.Seconds()
	tracedRate := float64(ops.N()) / layeredBusy.Seconds()
	res.set("bench.trace_overhead_pct", 100*(1-tracedRate/untraced), ops.N())
	setOpMetrics(res, ops, tracedRate)
	res.set("heap_live_mb", heapLiveMB(), 0)
	runtime.KeepAlive(last)

	path, err := writeSpans(cfg.outDir, cfg.workload, []*Tracer{tr})
	if err != nil {
		return err
	}
	res.SpanFile = path
	return nil
}
