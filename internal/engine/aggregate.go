package engine

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// accumulator folds one aggregation's values for one group.
type accumulator struct {
	fn    algebra.AggFunc
	count int64
	sumI  int64
	sumF  float64
	isF   bool
	minV  algebra.Value
	maxV  algebra.Value
}

func (a *accumulator) add(v algebra.Value) error {
	a.count++
	switch a.fn {
	case algebra.AggCount:
		return nil
	case algebra.AggSum, algebra.AggAvg:
		switch v.Kind {
		case algebra.TypeInt, algebra.TypeDate:
			a.sumI += v.Int
			a.sumF += float64(v.Int)
		case algebra.TypeFloat:
			a.isF = true
			a.sumF += v.Float
		default:
			return fmt.Errorf("engine: %s over non-numeric value %s", a.fn, v)
		}
		return nil
	case algebra.AggMin, algebra.AggMax:
		if !a.minV.IsValid() {
			a.minV, a.maxV = v, v
			return nil
		}
		if c, err := v.Compare(a.minV); err != nil {
			return err
		} else if c < 0 {
			a.minV = v
		}
		if c, err := v.Compare(a.maxV); err != nil {
			return err
		} else if c > 0 {
			a.maxV = v
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown aggregate function %v", a.fn)
	}
}

func (a *accumulator) result() algebra.Value {
	switch a.fn {
	case algebra.AggCount:
		return algebra.IntVal(a.count)
	case algebra.AggSum:
		if a.isF {
			return algebra.FloatVal(a.sumF)
		}
		return algebra.IntVal(a.sumI)
	case algebra.AggAvg:
		if a.count == 0 {
			return algebra.FloatVal(0)
		}
		return algebra.FloatVal(a.sumF / float64(a.count))
	case algebra.AggMin:
		return a.minV
	case algebra.AggMax:
		return a.maxV
	default:
		return algebra.Value{}
	}
}

// resolveAggregate resolves an aggregation's group-by and argument
// columns against the input schema (argIdx -1 marks COUNT(*)).
func resolveAggregate(agg *algebra.Aggregate, in *Table) (groupIdx, argIdx []int, err error) {
	groupIdx = make([]int, len(agg.GroupBy))
	for i, ref := range agg.GroupBy {
		j, err := in.Schema.Resolve(ref)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: GROUP BY: %w", err)
		}
		groupIdx[i] = j
	}
	argIdx = make([]int, len(agg.Aggs))
	for i, a := range agg.Aggs {
		if a.Arg == (algebra.ColumnRef{}) {
			argIdx[i] = -1 // COUNT(*)
			continue
		}
		j, err := in.Schema.Resolve(a.Arg)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: aggregate %s: %w", a.Func, err)
		}
		argIdx[i] = j
	}
	return groupIdx, argIdx, nil
}
