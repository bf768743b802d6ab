package engine

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
)

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
