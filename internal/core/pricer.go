package core

import (
	"fmt"
	"math"
	"strconv"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
)

// pricer computes, once per distinct expression of the estimator's arena,
// everything an MVPP vertex carries that is a function of its expression
// alone: size, own operation cost, delta-propagation maintenance cost and
// maintenance frequency. One pricer serves every rotation of a Generate
// call; it is used from one goroutine.
type pricer struct {
	est   *cost.Estimator
	model cost.Model
	delta *cost.DeltaEstimator // nil: recompute-only maintenance
	arena *algebra.Arena

	rows []exprPrice // by ExprID
	fu   []float64   // by interned relation; NaN until looked up
	// Display names, shared by every DAG built from this pricer.
	tmpNames, resultNames []string
}

type exprPrice struct {
	done      bool
	est       cost.Estimate
	caSelf    float64
	cmInc     float64
	maintFreq float64
}

func newPricer(est *cost.Estimator, model cost.Model, delta *cost.DeltaSpec) *pricer {
	p := &pricer{est: est, model: model, arena: est.Arena()}
	if delta != nil && delta.Enabled() {
		p.delta = cost.NewDeltaEstimator(est, *delta)
	}
	return p
}

// price returns the expression's annotations, computing them on first use.
func (p *pricer) price(id algebra.ExprID, x algebra.Expr) (exprPrice, error) {
	for int(id) >= len(p.rows) {
		p.rows = append(p.rows, exprPrice{})
	}
	if p.rows[id].done {
		return p.rows[id], nil
	}
	row := exprPrice{done: true, cmInc: math.Inf(1)}
	var err error
	if row.est, err = p.est.Estimate(x.Node); err != nil {
		return row, fmt.Errorf("core: %w", err)
	}
	if row.caSelf, err = p.est.OpCost(p.model, x.Node); err != nil {
		return row, fmt.Errorf("core: %w", err)
	}
	if p.delta != nil && x.Op != algebra.OpScan {
		if row.cmInc, _, err = p.delta.MaintenanceCost(p.model, x.Node); err != nil {
			return row, fmt.Errorf("core: delta maintenance for %s: %w", x.Node.Label(), err)
		}
	}
	// Maintenance frequency: the maximum update frequency among the base
	// relations below (batch recompute per update epoch — the reading under
	// which the paper's own arithmetic is consistent; see EXPERIMENTS.md).
	for rel := x.Leaves.Next(0); rel >= 0; rel = x.Leaves.Next(rel + 1) {
		for rel >= len(p.fu) {
			p.fu = append(p.fu, math.NaN())
		}
		if math.IsNaN(p.fu[rel]) {
			p.fu[rel] = p.est.Catalog().UpdateFrequency(p.arena.RelName(rel))
		}
		if p.fu[rel] > row.maintFreq {
			row.maintFreq = p.fu[rel]
		}
	}
	p.rows[id] = row
	return row, nil
}

// vertexName returns "tmpN" or "resultN".
func vertexName(cache *[]string, prefix string, n int) string {
	for len(*cache) < n {
		*cache = append(*cache, prefix+strconv.Itoa(len(*cache)+1))
	}
	return (*cache)[n-1]
}
