package mvpp_test

import (
	"bytes"
	"io"
	"log/slog"
	"strings"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
)

func newTestLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestDesignTrace runs the paper workload with a trace recorder attached
// and checks the recorded span tree, events, and counters cover the whole
// pipeline: optimize → generate → select → evaluate, plus the engine when
// the design is simulated.
func TestDesignTrace(t *testing.T) {
	rec := mvpp.NewTraceRecorder(nil)
	d := paperDesigner(t, mvpp.Options{Observer: rec})
	design, err := d.Design()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := design.Simulate(mvpp.SimOptions{Scale: 0.005, Seed: 11}); err != nil {
		t.Fatal(err)
	}

	tr := rec.Trace()
	for _, span := range []string{
		"design", "optimize", "optimize.query", "generate", "rotation",
		"select", "evaluate", "simulate",
	} {
		if tr.FindSpan(span) == nil {
			t.Errorf("trace is missing span %q", span)
		}
	}
	root := tr.FindSpan("design")
	if root == nil {
		t.Fatal("no design span")
	}
	if root.Attrs["queries"] != float64(4) && root.Attrs["queries"] != int64(4) {
		t.Errorf("design span queries attr = %v", root.Attrs["queries"])
	}
	if _, ok := root.Attrs["total"]; !ok {
		t.Error("design span missing final total annotation")
	}

	// One plan-chosen event per query, with costs attached.
	plans := tr.EventsOfKind(mvpp.EvPlanChosen)
	if len(plans) != 4 {
		t.Errorf("EvPlanChosen events = %d, want 4", len(plans))
	}

	// Per-candidate cost events from the generator.
	cands := tr.EventsOfKind(mvpp.EvCandidate)
	if len(cands) == 0 {
		t.Fatal("no EvCandidate events")
	}
	for _, ev := range cands {
		for _, key := range []string{"query_cost", "maintenance_cost", "total"} {
			if _, ok := ev.Attrs[key]; !ok {
				t.Errorf("EvCandidate missing attr %q: %v", key, ev.Attrs)
			}
		}
	}

	// Figure 9 per-step events with vertex and action.
	steps := tr.EventsOfKind(mvpp.EvSelectStep)
	if len(steps) == 0 {
		t.Fatal("no EvSelectStep events")
	}
	for _, ev := range steps {
		if ev.Attrs["vertex"] == "" || ev.Attrs["action"] == "" {
			t.Errorf("EvSelectStep missing vertex/action: %v", ev.Attrs)
		}
	}

	// Engine operator stats from the simulation.
	if len(tr.EventsOfKind(mvpp.EvEngineOp)) == 0 {
		t.Error("no EvEngineOp events from Simulate")
	}
	if len(tr.EventsOfKind(mvpp.EvCosts)) != 1 {
		t.Errorf("EvCosts events = %d, want 1", len(tr.EventsOfKind(mvpp.EvCosts)))
	}

	for _, ctr := range []string{
		mvpp.CtrPlansEnumerated, mvpp.CtrEstimatorCalls, mvpp.CtrMemoHits,
		mvpp.CtrMergeAttempts, mvpp.CtrCandidates, mvpp.CtrGreedyIterations,
		mvpp.CtrEvaluateCalls, mvpp.CtrEngineBlockReads, mvpp.CtrEngineBlockWrites,
	} {
		if tr.Counters[ctr] <= 0 {
			t.Errorf("counter %s = %d, want > 0", ctr, tr.Counters[ctr])
		}
	}

	// The whole trace must survive a JSON round trip through the public
	// surface.
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := mvpp.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.FindSpan("rotation") == nil {
		t.Error("round-tripped trace lost the rotation spans")
	}
	if got, want := len(back.EventsOfKind(mvpp.EvSelectStep)), len(steps); got != want {
		t.Errorf("round-tripped select.step events = %d, want %d", got, want)
	}
	if back.Counters[mvpp.CtrCandidates] != tr.Counters[mvpp.CtrCandidates] {
		t.Error("round-tripped counters differ")
	}
}

// TestObserverDoesNotChangeDesign: instrumentation must be purely passive —
// the same workload designs to the same views and totals with and without
// an observer.
func TestObserverDoesNotChangeDesign(t *testing.T) {
	plain, err := paperDesigner(t, mvpp.Options{}).Design()
	if err != nil {
		t.Fatal(err)
	}
	observed, err := paperDesigner(t, mvpp.Options{Observer: mvpp.NewTraceRecorder(nil)}).Design()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Costs().TotalCost != observed.Costs().TotalCost {
		t.Errorf("observer changed the total: %g vs %g",
			plain.Costs().TotalCost, observed.Costs().TotalCost)
	}
	a, b := plain.Views(), observed.Views()
	if len(a) != len(b) {
		t.Fatalf("observer changed the view count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("observer changed view %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
	}
}

// TestLogObserverOnDesign smoke-tests the slog backend against a real run.
func TestLogObserverOnDesign(t *testing.T) {
	var buf bytes.Buffer
	logger := newTestLogger(&buf)
	d := paperDesigner(t, mvpp.Options{Observer: mvpp.NewLogObserver(logger, nil)})
	if _, err := d.Design(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"span=design", "span=design/optimize", "span start", "span end"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q", want)
		}
	}
}

// TestAddQueryChecksDuplicateBeforeParse: a duplicate name must be
// reported as such even when the new SQL is garbage, proving the duplicate
// check runs before the (cached) parse-and-bind.
func TestAddQueryChecksDuplicateBeforeParse(t *testing.T) {
	d := paperDesigner(t, mvpp.Options{})
	err := d.AddQuery("Q1", `THIS IS NOT SQL AT ALL`, 1)
	if err == nil {
		t.Fatal("duplicate AddQuery succeeded")
	}
	if !strings.Contains(err.Error(), "duplicate query name") {
		t.Errorf("duplicate name reported as %q, want a duplicate-name error", err)
	}
	// A rejected query must not leave partial state behind.
	if got := len(d.Queries()); got != 4 {
		t.Errorf("workload size after rejected AddQuery = %d, want 4", got)
	}
	if _, err := d.Design(); err != nil {
		t.Errorf("design after rejected AddQuery failed: %v", err)
	}
}

// TestNoObserverOverheadGuard prices the disabled instrumentation path:
// with Options.Observer nil, Design() does strictly less work than the
// observed run, so it may not allocate more, in count or in bytes. Those
// two quantities are deterministic; wall time is not (run-to-run spread
// on a shared box exceeds any margin worth asserting), so the time side
// is left to the repo benchmark's bench.trace_overhead_pct.
func TestNoObserverOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	// A fresh trace recorder per iteration keeps one recorder from
	// accumulating every prior trace.
	bench := func(observer func() mvpp.Observer) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := benchPaperDesignerOpts(b, mvpp.Options{Observer: observer()})
				if _, err := d.Design(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	nilRun := bench(func() mvpp.Observer { return nil })
	observedRun := bench(func() mvpp.Observer { return mvpp.NewTraceRecorder(nil) })
	t.Logf("end-to-end design: nil observer %d allocs/op %d B/op, trace recorder %d allocs/op %d B/op",
		nilRun.AllocsPerOp(), nilRun.AllocedBytesPerOp(), observedRun.AllocsPerOp(), observedRun.AllocedBytesPerOp())
	if nilRun.AllocsPerOp() > observedRun.AllocsPerOp() {
		t.Errorf("nil-observer design allocates %d times per op, observed design %d",
			nilRun.AllocsPerOp(), observedRun.AllocsPerOp())
	}
	if nilRun.AllocedBytesPerOp() > observedRun.AllocedBytesPerOp() {
		t.Errorf("nil-observer design allocates %d B/op, observed design %d B/op",
			nilRun.AllocedBytesPerOp(), observedRun.AllocedBytesPerOp())
	}
}

// TestDesignAllocBudget guards the designer's hot path without a wall-clock
// assertion: one design of the 32-query star (estimator, optimizer, every
// Figure 4 rotation with delta pricing, Figure 9 on every candidate) may
// allocate at most 1.25× what it did when the expression arena landed
// (51 100 allocations; the string-keyed generator took 1 418 000). A change
// that goes back to rebuilding identity per probe, or to one DAG build per
// rotation, fails here.
func TestDesignAllocBudget(t *testing.T) {
	const measured = 51_100
	const budget = measured * 5 / 4
	design := starDesign(t, 32)
	if got := testing.AllocsPerRun(5, func() { design() }); got > budget {
		t.Errorf("32-query star design allocates %.0f times, budget %d (1.25 × %d)", got, budget, measured)
	} else {
		t.Logf("32-query star design: %.0f allocations (budget %d)", got, budget)
	}
}
