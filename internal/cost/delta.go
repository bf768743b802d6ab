package cost

import (
	"fmt"
	"math"
	"sync"

	"github.com/warehousekit/mvpp/internal/algebra"
)

func errUnknownNode(n algebra.Node) error {
	return fmt.Errorf("cost: cannot price node type %T", n)
}

// DeltaSpec describes the expected insert volume of one maintenance epoch
// as a fraction of each base relation's current cardinality. A fraction of
// 0.01 on "Sales" means one epoch inserts about 1% of Sales' rows; the
// delta-propagation maintenance cost scales accordingly. Deltas are
// insert-only, matching the paper's append-mostly warehouse setting.
type DeltaSpec struct {
	// DefaultFraction applies to every relation without an explicit entry.
	DefaultFraction float64
	// PerRelation overrides the default per relation name.
	PerRelation map[string]float64
}

// FractionOf returns the delta fraction for the named relation.
func (s DeltaSpec) FractionOf(relation string) float64 {
	if f, ok := s.PerRelation[relation]; ok {
		return f
	}
	return s.DefaultFraction
}

// Enabled reports whether the spec describes any nonzero delta.
func (s DeltaSpec) Enabled() bool {
	if s.DefaultFraction > 0 {
		return true
	}
	for _, f := range s.PerRelation {
		if f > 0 {
			return true
		}
	}
	return false
}

// DeltaEstimator prices incremental view maintenance by delta propagation:
// given per-base-relation delta fractions, it derives the size of Δn for
// every plan node (insert-only algebra: Δσ(S) = σ(ΔS), Δπ(S) = π(ΔS),
// Δ(L⋈R) = ΔL⋈R ∪ L⋈ΔR) and prices the propagation plus the final
// apply-to-view step under any cost Model. Like Estimator — whose arena it
// shares — it memoizes Δ-sizes per semantic class, and it keeps each
// expression's own propagation cost, so pricing one more view over already
// priced subplans is a sum of stored terms. Safe for concurrent use.
type DeltaEstimator struct {
	est  *Estimator
	spec DeltaSpec

	mu   sync.Mutex
	memo semMemo
	// terms holds opDeltaCost per ExprID (NaN = not priced yet) under
	// termsModel; pricing under another model starts over.
	terms      []float64
	termsModel Model
}

// NewDeltaEstimator builds a delta estimator over the same catalog and
// options as est.
func NewDeltaEstimator(est *Estimator, spec DeltaSpec) *DeltaEstimator {
	return &DeltaEstimator{est: est, spec: spec}
}

// Spec exposes the delta fractions.
func (d *DeltaEstimator) Spec() DeltaSpec { return d.spec }

// DeltaEstimate returns the estimated size of Δn, the tuples one
// maintenance epoch adds to the relation computed by n.
func (d *DeltaEstimator) DeltaEstimate(n algebra.Node) (Estimate, error) {
	return d.deltaExpr(d.est.arena.Expr(d.est.arena.Intern(n)))
}

func (d *DeltaEstimator) deltaID(id algebra.ExprID) (Estimate, error) {
	return d.deltaExpr(d.est.arena.Expr(id))
}

func (d *DeltaEstimator) deltaExpr(x algebra.Expr) (Estimate, error) {
	d.mu.Lock()
	est, ok := d.memo.get(x.Sem)
	d.mu.Unlock()
	if ok {
		return est, nil
	}
	est, err := d.deltaEstimate(x)
	if err != nil {
		return Estimate{}, err
	}
	d.mu.Lock()
	d.memo.put(x.Sem, est)
	d.mu.Unlock()
	return est, nil
}

func (d *DeltaEstimator) deltaEstimate(x algebra.Expr) (Estimate, error) {
	switch v := x.Node.(type) {
	case *algebra.Scan:
		full, err := d.est.estimateExpr(x)
		if err != nil {
			return Estimate{}, err
		}
		return scale(full, d.spec.FractionOf(v.Relation)), nil
	case *algebra.Select:
		din, err := d.deltaID(x.Left)
		if err != nil {
			return Estimate{}, err
		}
		s := d.est.Catalog().PredicateSelectivity(v.Pred)
		return Estimate{Rows: din.Rows * s, Blocks: din.Blocks * s, Width: din.Width}, nil
	case *algebra.Project:
		din, err := d.deltaID(x.Left)
		if err != nil {
			return Estimate{}, err
		}
		if !d.est.Options().ProjectionShrinks {
			return din, nil
		}
		inCols := v.Input.Schema().Len()
		if inCols == 0 {
			return din, nil
		}
		frac := float64(len(v.Cols)) / float64(inCols)
		return Estimate{Rows: din.Rows, Blocks: din.Blocks * frac, Width: din.Width * frac}, nil
	case *algebra.Join:
		outL, outR, err := d.deltaJoinParts(x)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: outL.Rows + outR.Rows, Blocks: outL.Blocks + outR.Blocks, Width: outL.Width}, nil
	case *algebra.Aggregate:
		din, err := d.deltaID(x.Left)
		if err != nil {
			return Estimate{}, err
		}
		out, err := d.est.estimateExpr(x)
		if err != nil {
			return Estimate{}, err
		}
		// Each delta row touches at most one group, and there are at most
		// out.Rows groups in total.
		rows := math.Min(out.Rows, din.Rows)
		return Estimate{Rows: rows, Blocks: rows * out.Width, Width: out.Width}, nil
	default:
		return Estimate{}, errUnknownNode(x.Node)
	}
}

// deltaJoinParts sizes the two legs of Δ(L⋈R) = ΔL⋈R ∪ L⋈ΔR. Both legs
// are derived by scaling the full join result by the delta-to-full row
// ratio of the changing side, which keeps pinned join sizes consistent
// with the full-size estimator.
func (d *DeltaEstimator) deltaJoinParts(x algebra.Expr) (outL, outR Estimate, err error) {
	left, err := d.est.estimateID(x.Left)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	right, err := d.est.estimateID(x.Right)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	dl, err := d.deltaID(x.Left)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	dr, err := d.deltaID(x.Right)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	out, err := d.est.estimateExpr(x)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	return scale(out, ratio(dl.Rows, left.Rows)), scale(out, ratio(dr.Rows, right.Rows)), nil
}

// PropagationCost prices computing Δn from the base-relation deltas: the
// delta stream flows through every operator of the plan, joins pair each
// side's delta against the other side's full (stored) relation. The sum
// adds each operator's stored term in pre-order.
func (d *DeltaEstimator) PropagationCost(m Model, n algebra.Node) (float64, error) {
	total := 0.0
	err := d.est.walk(d.est.arena.Intern(n), func(id algebra.ExprID, x algebra.Expr) error {
		c, err := d.term(m, id, x)
		total += c
		return err
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// term returns opDeltaCost of the expression, computing it on first use.
func (d *DeltaEstimator) term(m Model, id algebra.ExprID, x algebra.Expr) (float64, error) {
	d.mu.Lock()
	if d.termsModel != m {
		d.termsModel, d.terms = m, d.terms[:0]
	}
	if int(id) < len(d.terms) && !math.IsNaN(d.terms[id]) {
		c := d.terms[id]
		d.mu.Unlock()
		return c, nil
	}
	d.mu.Unlock()
	c, err := d.opDeltaCost(m, x)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	if d.termsModel == m {
		for int(id) >= len(d.terms) {
			d.terms = append(d.terms, math.NaN())
		}
		d.terms[id] = c
	}
	d.mu.Unlock()
	return c, nil
}

func (d *DeltaEstimator) opDeltaCost(m Model, x algebra.Expr) (float64, error) {
	switch x.Node.(type) {
	case *algebra.Scan:
		// Reading the delta is charged by the consuming operator, the same
		// convention as OpCost for full recomputation.
		return 0, nil
	case *algebra.Select:
		din, err := d.deltaID(x.Left)
		if err != nil {
			return 0, err
		}
		return m.SelectCost(din), nil
	case *algebra.Project:
		din, err := d.deltaID(x.Left)
		if err != nil {
			return 0, err
		}
		return m.ProjectCost(din), nil
	case *algebra.Join:
		left, err := d.est.estimateID(x.Left)
		if err != nil {
			return 0, err
		}
		right, err := d.est.estimateID(x.Right)
		if err != nil {
			return 0, err
		}
		dl, err := d.deltaID(x.Left)
		if err != nil {
			return 0, err
		}
		dr, err := d.deltaID(x.Right)
		if err != nil {
			return 0, err
		}
		outL, outR, err := d.deltaJoinParts(x)
		if err != nil {
			return 0, err
		}
		return m.JoinCost(dl, right, outL) + m.JoinCost(left, dr, outR), nil
	case *algebra.Aggregate:
		din, err := d.deltaID(x.Left)
		if err != nil {
			return 0, err
		}
		dout, err := d.deltaExpr(x)
		if err != nil {
			return 0, err
		}
		return m.AggregateCost(din, dout), nil
	default:
		return 0, errUnknownNode(x.Node)
	}
}

// MaintenanceCost prices one incremental refresh of a materialized view
// defined by n: delta propagation plus applying Δn to the stored view
// (appending for select-project-join views, a read-merge-rewrite pass for
// aggregate views). ok is false — and the cost +Inf — when the plan cannot
// be maintained incrementally under insert-only deltas; callers fall back
// to recomputation.
func (d *DeltaEstimator) MaintenanceCost(m Model, n algebra.Node) (cost float64, ok bool, err error) {
	if can, _ := algebra.Incrementable(n); !can {
		return math.Inf(1), false, nil
	}
	prop, err := d.PropagationCost(m, n)
	if err != nil {
		return 0, false, err
	}
	droot, err := d.DeltaEstimate(n)
	if err != nil {
		return 0, false, err
	}
	apply := droot.Blocks // append the new tuples
	if _, isAgg := n.(*algebra.Aggregate); isAgg {
		// Merging into stored groups reads and rewrites the view.
		stored, err := d.est.Estimate(n)
		if err != nil {
			return 0, false, err
		}
		apply = 2*stored.Blocks + droot.Blocks
	}
	return prop + apply, true, nil
}

func scale(e Estimate, f float64) Estimate {
	return Estimate{Rows: e.Rows * f, Blocks: e.Blocks * f, Width: e.Width}
}

func ratio(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}
