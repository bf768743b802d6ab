package cost

import (
	"fmt"
	"math"
	"sync"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/obs"
)

// Options configures size estimation.
type Options struct {
	// PinnedJoinSizes makes join-result sizes come from the catalog's
	// pinned Table-1 style entries (keyed by the set of base relations under
	// the join) when available, ignoring the effect of selections below the
	// join — this is what the paper's Figure 3 labels do. When off (the
	// default), sizes propagate multiplicatively through selectivities.
	PinnedJoinSizes bool
	// ProjectionShrinks scales a projection's width by the fraction of
	// columns kept. The paper never shrinks on projection, so paper-faithful
	// configurations turn this off.
	ProjectionShrinks bool
}

// DefaultOptions is the principled configuration used by the library.
func DefaultOptions() Options {
	return Options{PinnedJoinSizes: false, ProjectionShrinks: true}
}

// PaperOptions reproduces the paper's Figure 3 / Table 2 arithmetic: join
// result sizes come from Table 1's pinned rows. Projections still shrink —
// the paper's Table 2 row 5 prices reading the materialized query results
// at (small) result sizes, not at the full joined width.
func PaperOptions() Options {
	return Options{PinnedJoinSizes: true, ProjectionShrinks: true}
}

// Estimator derives sizes (Estimate) and costs for relational plan nodes
// from a catalog. Every node is first interned into the estimator's
// expression arena; estimates are memoized per semantic class (SemID), so
// shared subexpressions — across queries, across the optimizer's candidate
// plans and across the MVPP generator's rotations — are sized once, and a
// memo probe is an integer index instead of a key string rebuilt from the
// subtree. The first expression of a semantic class to be estimated fixes
// the class's estimate. An Estimator is safe for concurrent use.
type Estimator struct {
	cat   *catalog.Catalog
	opts  Options
	arena *algebra.Arena

	// calls and memoHits instrument the estimator (see Instrument); both
	// are nil — and their Add a no-op — when observability is off.
	calls    *obs.Counter
	memoHits *obs.Counter

	mu   sync.Mutex
	memo semMemo
}

// semMemo holds one Estimate per semantic class, indexed by SemID.
type semMemo struct {
	est   []Estimate
	known []bool
}

func (m *semMemo) get(id algebra.SemID) (Estimate, bool) {
	if int(id) >= len(m.known) || !m.known[id] {
		return Estimate{}, false
	}
	return m.est[id], true
}

func (m *semMemo) put(id algebra.SemID, e Estimate) {
	for int(id) >= len(m.known) {
		m.est = append(m.est, Estimate{})
		m.known = append(m.known, false)
	}
	m.est[id], m.known[id] = e, true
}

// NewEstimator builds an estimator over the catalog.
func NewEstimator(cat *catalog.Catalog, opts Options) *Estimator {
	return &Estimator{cat: cat, opts: opts, arena: algebra.NewArena()}
}

// Instrument wires the estimator's call and memo-hit counters into the
// registry; a nil registry disables instrumentation again.
func (e *Estimator) Instrument(reg *obs.Registry) {
	if reg == nil {
		e.calls, e.memoHits = nil, nil
		return
	}
	e.calls = reg.Counter(obs.CtrEstimatorCalls)
	e.memoHits = reg.Counter(obs.CtrMemoHits)
}

// Catalog exposes the backing catalog.
func (e *Estimator) Catalog() *catalog.Catalog { return e.cat }

// Options exposes the estimation options.
func (e *Estimator) Options() Options { return e.opts }

// Arena exposes the expression arena the estimator interns into. Callers
// that build plans through it (the MVPP generator) share identities — and
// therefore memoized estimates — with everything else priced here.
func (e *Estimator) Arena() *algebra.Arena { return e.arena }

// Estimate returns the size estimate for the relation computed by n.
func (e *Estimator) Estimate(n algebra.Node) (Estimate, error) {
	return e.estimateExpr(e.arena.Expr(e.arena.Intern(n)))
}

func (e *Estimator) estimateID(id algebra.ExprID) (Estimate, error) {
	return e.estimateExpr(e.arena.Expr(id))
}

func (e *Estimator) estimateExpr(x algebra.Expr) (Estimate, error) {
	e.calls.Add(1)
	e.mu.Lock()
	est, ok := e.memo.get(x.Sem)
	e.mu.Unlock()
	if ok {
		e.memoHits.Add(1)
		return est, nil
	}
	est, err := e.estimate(x)
	if err != nil {
		return Estimate{}, err
	}
	e.mu.Lock()
	e.memo.put(x.Sem, est)
	e.mu.Unlock()
	return est, nil
}

func (e *Estimator) estimate(x algebra.Expr) (Estimate, error) {
	switch v := x.Node.(type) {
	case *algebra.Scan:
		rel, err := e.cat.Relation(v.Relation)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: rel.Rows, Blocks: rel.Blocks, Width: rel.RowWidth()}, nil
	case *algebra.Select:
		in, err := e.estimateID(x.Left)
		if err != nil {
			return Estimate{}, err
		}
		s := e.cat.PredicateSelectivity(v.Pred)
		return Estimate{Rows: in.Rows * s, Blocks: in.Blocks * s, Width: in.Width}, nil
	case *algebra.Project:
		in, err := e.estimateID(x.Left)
		if err != nil {
			return Estimate{}, err
		}
		if !e.opts.ProjectionShrinks {
			return in, nil
		}
		inWidthCols := v.Input.Schema().Len()
		if inWidthCols == 0 {
			return in, nil
		}
		frac := float64(len(v.Cols)) / float64(inWidthCols)
		return Estimate{Rows: in.Rows, Blocks: in.Blocks * frac, Width: in.Width * frac}, nil
	case *algebra.Aggregate:
		in, err := e.estimateID(x.Left)
		if err != nil {
			return Estimate{}, err
		}
		// One output row per group: the product of the grouping columns'
		// distinct-value counts, capped by the input cardinality. Unknown
		// NDVs contribute a conservative square-root-of-input factor.
		groups := 1.0
		for _, ref := range v.GroupBy {
			if ndv, ok := e.cat.DistinctValues(ref); ok {
				groups *= ndv
			} else {
				groups *= math.Sqrt(in.Rows + 1)
			}
		}
		if groups > in.Rows && in.Rows > 0 {
			groups = in.Rows
		}
		inCols := v.Input.Schema().Len()
		width := in.Width
		if inCols > 0 {
			width = in.Width * float64(v.Schema().Len()) / float64(inCols)
		}
		return Estimate{Rows: groups, Blocks: groups * width, Width: width}, nil
	case *algebra.Join:
		left, err := e.estimateID(x.Left)
		if err != nil {
			return Estimate{}, err
		}
		right, err := e.estimateID(x.Right)
		if err != nil {
			return Estimate{}, err
		}
		if e.opts.PinnedJoinSizes {
			if sz, ok := e.cat.PinnedJoinSize(algebra.Leaves(v)); ok {
				width := 0.0
				if sz.Rows > 0 {
					width = sz.Blocks / sz.Rows
				}
				return Estimate{Rows: sz.Rows, Blocks: sz.Blocks, Width: width}, nil
			}
		}
		rows := left.Rows * right.Rows
		for _, c := range v.On {
			rows *= e.cat.JoinSelectivity(c)
		}
		width := left.Width + right.Width
		return Estimate{Rows: rows, Blocks: rows * width, Width: width}, nil
	default:
		return Estimate{}, fmt.Errorf("cost: cannot estimate node type %T", x.Node)
	}
}

// OpCost prices executing just the operation at n, given that its inputs are
// available as streams or stored relations. Scans cost nothing themselves
// (the paper sets Ca(leaf) = 0; reading inputs is charged by the consuming
// operator).
func (e *Estimator) OpCost(m Model, n algebra.Node) (float64, error) {
	return e.opCost(m, e.arena.Expr(e.arena.Intern(n)))
}

func (e *Estimator) opCost(m Model, x algebra.Expr) (float64, error) {
	switch v := x.Node.(type) {
	case *algebra.Scan:
		if _, err := e.cat.Relation(v.Relation); err != nil {
			return 0, err
		}
		return 0, nil
	case *algebra.Select:
		in, err := e.estimateID(x.Left)
		if err != nil {
			return 0, err
		}
		return m.SelectCost(in), nil
	case *algebra.Project:
		in, err := e.estimateID(x.Left)
		if err != nil {
			return 0, err
		}
		return m.ProjectCost(in), nil
	case *algebra.Join:
		outer, err := e.estimateID(x.Left)
		if err != nil {
			return 0, err
		}
		inner, err := e.estimateID(x.Right)
		if err != nil {
			return 0, err
		}
		out, err := e.estimateExpr(x)
		if err != nil {
			return 0, err
		}
		return m.JoinCost(outer, inner, out), nil
	case *algebra.Aggregate:
		in, err := e.estimateID(x.Left)
		if err != nil {
			return 0, err
		}
		out, err := e.estimateExpr(x)
		if err != nil {
			return 0, err
		}
		return m.AggregateCost(in, out), nil
	default:
		return 0, fmt.Errorf("cost: cannot price node type %T", x.Node)
	}
}

// PlanCost prices computing n from base relations: the sum of OpCost over
// every node of the tree. This is the paper's Ca(v).
func (e *Estimator) PlanCost(m Model, n algebra.Node) (float64, error) {
	total := 0.0
	err := e.walk(e.arena.Intern(n), func(_ algebra.ExprID, x algebra.Expr) error {
		c, err := e.opCost(m, x)
		total += c
		return err
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// walk visits the expression tree under id in pre-order (the order every
// cost sum in this package adds its terms in).
func (e *Estimator) walk(id algebra.ExprID, visit func(algebra.ExprID, algebra.Expr) error) error {
	x := e.arena.Expr(id)
	if err := visit(id, x); err != nil {
		return err
	}
	for _, child := range []algebra.ExprID{x.Left, x.Right} {
		if child != algebra.NoExpr {
			if err := e.walk(child, visit); err != nil {
				return err
			}
		}
	}
	return nil
}
