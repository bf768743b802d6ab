package core_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
)

// selectionNames renders a selection as a sorted name list.
func selectionNames(m *core.MVPP, sel *core.SelectionResult) []string {
	return sel.Materialized.Names(m)
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReselectSameFrequenciesIsStable re-selecting under the design-time
// frequencies must reproduce the design-time selection and leave the MVPP
// untouched.
func TestReselectSameFrequenciesIsStable(t *testing.T) {
	est, plans := paperQueryPlans(t, cost.PaperOptions())
	_ = est
	cands, err := core.Generate(est, &cost.PaperModel{}, plans, core.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := core.Best(cands)
	m := best.MVPP
	model := &cost.PaperModel{}

	savedFq := make(map[string]float64, len(m.Fq))
	for q, f := range m.Fq {
		savedFq[q] = f
	}
	savedWeights := make(map[string]float64, len(m.Vertices))
	for _, v := range m.Vertices {
		savedWeights[v.Name] = v.Weight
	}

	again, err := m.ReselectFrequencies(model, savedFq, core.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := selectionNames(m, again), selectionNames(m, best.Selection); !sameNames(got, want) {
		t.Errorf("re-selection under unchanged fq differs: got %v want %v", got, want)
	}

	for q, f := range savedFq {
		if m.Fq[q] != f {
			t.Errorf("Fq[%s] not restored: %g != %g", q, m.Fq[q], f)
		}
	}
	for _, v := range m.Vertices {
		if v.Weight != savedWeights[v.Name] {
			t.Errorf("weight of %s not restored: %g != %g", v.Name, v.Weight, savedWeights[v.Name])
		}
	}

	// The stronger case: the MVPP is untouched *during* the calls, not put
	// back after them. A reader compares it with its pre-call labels while
	// eight goroutines re-select and re-price under eight different
	// frequency maps; each of them must get the answer it gets alone.
	t.Run("ReselectLeavesMVPPUntouched", func(t *testing.T) {
		type labels struct {
			weightOf, weight, ca, cm float64
			strategy                 core.MaintenanceStrategy
		}
		label := func(v *core.Vertex) labels {
			return labels{m.WeightOf(v), v.Weight, v.Ca, v.Cm, v.MaintStrategy}
		}
		before := make([]labels, len(m.Vertices))
		for i, v := range m.Vertices {
			before[i] = label(v)
		}
		current := selectionNames(m, best.Selection)

		type answer struct {
			sel   *core.SelectionResult
			costs core.Costs
		}
		ask := func(fq map[string]float64) answer {
			sel, err := m.ReselectFrequencies(model, fq, core.SelectOptions{})
			if err != nil {
				t.Error(err)
				return answer{}
			}
			costs, err := m.EvaluateUnderFrequencies(model, fq, current)
			if err != nil {
				t.Error(err)
			}
			return answer{sel, costs}
		}
		same := func(a, b answer) bool {
			return a.sel != nil && b.sel != nil &&
				reflect.DeepEqual(a.sel.Materialized, b.sel.Materialized) &&
				reflect.DeepEqual(a.sel.Costs, b.sel.Costs) &&
				reflect.DeepEqual(a.sel.Trace, b.sel.Trace) &&
				reflect.DeepEqual(a.costs, b.costs)
		}
		const callers, rounds = 8, 300
		fqs := make([]map[string]float64, callers)
		serial := make([]answer, callers)
		for i := range fqs {
			fqs[i] = make(map[string]float64, len(m.QueryOrder))
			for j, q := range m.QueryOrder {
				fqs[i][q] = float64((i+1)*(j+1)%5) + 0.25*float64(i)
			}
			fqs[i][m.QueryOrder[i%len(m.QueryOrder)]] = 100 * float64(i+1)
			serial[i] = ask(fqs[i])
		}

		var wrongAnswers, running atomic.Int64
		var wg sync.WaitGroup
		running.Store(callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer running.Add(-1)
				for r := 0; r < rounds; r++ {
					if !same(ask(fqs[i]), serial[i]) {
						wrongAnswers.Add(1)
					}
				}
			}(i)
		}
		reads, wrongReads := 0, 0
		for running.Load() > 0 {
			reads++
			wrong := false
			for q, f := range savedFq {
				wrong = wrong || m.Fq[q] != f
			}
			for i, v := range m.Vertices {
				wrong = wrong || label(v) != before[i]
			}
			if wrong {
				wrongReads++
			}
		}
		wg.Wait()
		t.Logf("%d reads of the MVPP beside %d concurrent calls: %d differ from the pre-call labels; %d calls got an answer other than their serial one",
			reads, callers*rounds, wrongReads, wrongAnswers.Load())
		if wrongReads > 0 {
			t.Errorf("%d of %d reads saw frequencies, weights or costs other than the MVPP's own", wrongReads, reads)
		}
		if n := wrongAnswers.Load(); n > 0 {
			t.Errorf("%d of %d concurrent calls got a selection or a price other than the serial one", n, callers*rounds)
		}
	})
}

// TestReselectDriftChangesSelection: concentrating the whole workload on
// Q4 (the Order⋈Customer query sharing nothing with the LA-division
// queries) must change what the heuristic materializes — the reselection
// entry point actually responds to observed drift.
func TestReselectDriftChangesSelection(t *testing.T) {
	est, plans := paperQueryPlans(t, cost.PaperOptions())
	_ = est
	cands, err := core.Generate(est, &cost.PaperModel{}, plans, core.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := core.Best(cands)
	m := best.MVPP
	model := &cost.PaperModel{}

	drifted := map[string]float64{"Q1": 0, "Q2": 0, "Q3": 0, "Q4": 100}
	sel, err := m.ReselectFrequencies(model, drifted, core.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, was := selectionNames(m, sel), selectionNames(m, best.Selection); sameNames(got, was) {
		t.Errorf("selection unchanged under total drift to Q4: %v", got)
	}
	// The drifted selection must price at most the all-virtual baseline
	// under the drifted frequencies (the safeguard guarantees it).
	check, err := m.ReselectFrequencies(model, drifted, core.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if check.Costs.Total > sel.Costs.Total {
		t.Errorf("reselect not deterministic: %g vs %g", check.Costs.Total, sel.Costs.Total)
	}
}

// TestReselectValidatesInput: unknown query names and negative
// frequencies are rejected.
func TestReselectValidatesInput(t *testing.T) {
	est, plans := paperQueryPlans(t, cost.PaperOptions())
	_ = est
	cands, err := core.Generate(est, &cost.PaperModel{}, plans, core.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := core.Best(cands).MVPP
	model := &cost.PaperModel{}
	if _, err := m.ReselectFrequencies(model, map[string]float64{"nope": 1}, core.SelectOptions{}); err == nil {
		t.Error("unknown query accepted")
	}
	if _, err := m.ReselectFrequencies(model, map[string]float64{"Q1": -1}, core.SelectOptions{}); err == nil {
		t.Error("negative frequency accepted")
	}
}
