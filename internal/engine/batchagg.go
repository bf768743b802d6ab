package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// batchAggregate is the vectorized hash aggregation: a first pass assigns
// every row a group id (first-seen group order, same as the reference
// executor), then each aggregate runs as a typed column loop over the
// group-id vector, and the answer is assembled column by column: the group
// keys gathered at each group's first row, each aggregate's per-group slice
// wrapped as its column. Nulls follow SQL: COUNT(v) counts the non-null
// values, SUM, AVG, MIN and MAX skip nulls and yield the null for a group
// that has none. An input that carries a selection has its key and argument
// columns gathered by it, and no other.
func (db *DB) batchAggregate(agg *algebra.Aggregate, in *Table, res *Result) (*Table, error) {
	groupIdx, argIdx, err := resolveAggregate(agg, in)
	if err != nil {
		return nil, err
	}
	if in.sel != nil {
		in = in.denseCols(append(slices.Clip(groupIdx), argIdx...)...)
	}
	gids, firstRow := assignGroups(in, groupIdx)
	schema := agg.Schema()
	out := &Table{Schema: schema, BlockRows: db.BlockRows, nrows: len(firstRow), cols: make([]*colvec, schema.Len())}
	for i, gi := range groupIdx {
		out.cols[i] = in.cols[gi].gather(firstRow)
	}
	for i, a := range agg.Aggs {
		var arg *colvec // nil: COUNT(*)
		if argIdx[i] >= 0 {
			arg = in.cols[argIdx[i]]
		}
		col, err := aggColumn(a.Func, arg, gids, firstRow)
		if err != nil {
			return nil, err
		}
		// The one check CheckRows would have made of every row: the column's
		// kind is its declared type (an all-null column has no kind).
		decl := schema.Columns[len(groupIdx)+i]
		if col.kind != 0 && col.kind != decl.Type {
			return nil, fmt.Errorf("engine: %s: column %s is declared %s, not %s", agg.Label(), decl.Name, decl.Type, col.kind)
		}
		out.cols[len(groupIdx)+i] = col
	}
	stats := OpStats{
		Label:     agg.Label(),
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// aggColumn computes one aggregate over the argument column arg (nil for
// COUNT(*)) as the output column holding one value per group. A group
// without a non-null argument gets the null, except under COUNT, which
// counts it 0. SUM over an int column stays int, and AVG adds each value's
// float64 image in row order, as the reference accumulator does.
func aggColumn(fn algebra.AggFunc, arg *colvec, gids, firstRow []int32) (*colvec, error) {
	nGroups := len(firstRow)
	nulls := arg != nil && arg.numNulls > 0
	// counts[g] is the number of rows of group g that take part: every row
	// under COUNT(*), the non-null ones otherwise. SUM, MIN and MAX need it
	// only to find the groups without one, which a column without nulls has
	// none of.
	var counts []int64
	if fn == algebra.AggCount || fn == algebra.AggAvg || nulls {
		counts = make([]int64, nGroups)
		for r, g := range gids {
			if !nulls || !bitGet(arg.nulls, r) {
				counts[g]++
			}
		}
	}
	if fn == algebra.AggCount {
		return &colvec{kind: algebra.TypeInt, ints: counts, n: nGroups}, nil
	}
	out := &colvec{n: nGroups}
	switch fn {
	case algebra.AggSum, algebra.AggAvg:
		switch {
		case arg.kind == 0: // every value null
		case fn == algebra.AggSum && (arg.kind == algebra.TypeInt || arg.kind == algebra.TypeDate):
			out.kind, out.ints = algebra.TypeInt, make([]int64, nGroups)
			for r, g := range gids {
				if !nulls || !bitGet(arg.nulls, r) {
					out.ints[g] += arg.ints[r]
				}
			}
		case arg.kind == algebra.TypeInt || arg.kind == algebra.TypeDate:
			out.kind, out.floats = algebra.TypeFloat, make([]float64, nGroups)
			for r, g := range gids {
				if !nulls || !bitGet(arg.nulls, r) {
					out.floats[g] += float64(arg.ints[r])
				}
			}
		case arg.kind == algebra.TypeFloat:
			out.kind, out.floats = algebra.TypeFloat, make([]float64, nGroups)
			for r, g := range gids {
				if !nulls || !bitGet(arg.nulls, r) {
					out.floats[g] += arg.floats[r]
				}
			}
		default:
			return nil, fmt.Errorf("engine: %s over a non-numeric %s column", fn, arg.kind)
		}
		if fn == algebra.AggAvg && out.kind != 0 {
			for g, c := range counts {
				if c > 0 {
					out.floats[g] /= float64(c)
				}
			}
		}
	case algebra.AggMin, algebra.AggMax:
		// The answer of a group is one of its rows' values: gather the row
		// that holds it. A group with none gathers its first row, a null.
		return arg.gather(bestRows(fn, arg, gids, firstRow)), nil
	default:
		return nil, fmt.Errorf("engine: unknown aggregate function %v", fn)
	}
	for g, c := range counts {
		if c == 0 {
			out.nulls = bitSet(out.nulls, g)
			out.numNulls++
		}
	}
	return out, nil
}

// bestRows returns, per group, the row holding the group's MIN (or MAX) of
// arg, the first such row on ties; a group whose every value is null gets
// its first row. Numbers compare through float64 and strings bytewise,
// exactly as Value.Compare does, and a NaN never displaces a value nor is
// displaced.
func bestRows(fn algebra.AggFunc, arg *colvec, gids, firstRow []int32) []int32 {
	best := make([]int32, len(firstRow))
	for g := range best {
		best[g] = -1
	}
	var nulls []uint64
	if arg.numNulls > 0 {
		nulls = arg.nulls
	}
	switch arg.kind {
	case algebra.TypeInt, algebra.TypeDate:
		bestNumeric(fn == algebra.AggMax, arg.ints, nulls, gids, best)
	case algebra.TypeFloat:
		bestNumeric(fn == algebra.AggMax, arg.floats, nulls, gids, best)
	case algebra.TypeString:
		for r, g := range gids {
			switch b := best[g]; {
			case nulls != nil && bitGet(nulls, r):
			case b < 0:
				best[g] = int32(r)
			case arg.codes[r] != arg.codes[b]:
				if x, y := arg.strAt(r), arg.strAt(int(b)); fn == algebra.AggMax && x > y || fn == algebra.AggMin && x < y {
					best[g] = int32(r)
				}
			}
		}
	}
	for g, b := range best {
		if b < 0 {
			best[g] = firstRow[g]
		}
	}
	return best
}

// bestNumeric is bestRows' loop over a numeric payload.
func bestNumeric[T int64 | float64](isMax bool, vals []T, nulls []uint64, gids, best []int32) {
	for r, g := range gids {
		switch b := best[g]; {
		case nulls != nil && bitGet(nulls, r):
		case b < 0:
			best[g] = int32(r)
		case isMax && float64(vals[r]) > float64(vals[b]), !isMax && float64(vals[r]) < float64(vals[b]):
			best[g] = int32(r)
		}
	}
}

// groupByCode is assignGroups over a single null-free string key column
// whose dictionary is shorter than its n rows: a string is one group, and
// one code (the dictionary holds no string twice), so the group of a row is
// looked up by its code in an array, not by its string in a map.
func groupByCode(col *colvec, n int, gids []int32) ([]int32, []int32) {
	var firstRow []int32
	byCode := make([]int32, len(col.dict)) // group + 1; 0 while unseen
	for r, code := range col.codes[:n] {
		g := byCode[code] - 1
		if g < 0 {
			g = int32(len(firstRow))
			byCode[code] = g + 1
			firstRow = append(firstRow, int32(r))
		}
		gids[r] = g
	}
	return gids, firstRow
}

// assignGroups computes each row's group id in first-seen order and the
// first row index of every group (whose values become the output key
// columns, as in the reference executor). Single typed non-null key
// columns partition on the raw payload — injective with respect to the
// reference executor's Value.String() keys because a typed column is
// kind-uniform; every other shape uses the String() keys themselves.
func assignGroups(in *Table, groupIdx []int) ([]int32, []int32) {
	n := in.NumRows()
	gids := make([]int32, n)
	var firstRow []int32
	if len(groupIdx) == 0 {
		// Global aggregate: every row is the single group (the reference
		// executor's empty string key).
		if n > 0 {
			firstRow = append(firstRow, 0)
		}
		return gids, firstRow
	}
	if len(groupIdx) == 1 {
		col := in.cols[groupIdx[0]]
		if !col.hasNulls() {
			switch col.kind {
			case algebra.TypeInt, algebra.TypeDate:
				byKey := make(map[int64]int32, 64)
				for r := 0; r < n; r++ {
					k := col.ints[r]
					g, ok := byKey[k]
					if !ok {
						g = int32(len(firstRow))
						byKey[k] = g
						firstRow = append(firstRow, int32(r))
					}
					gids[r] = g
				}
				return gids, firstRow
			case algebra.TypeFloat:
				byKey := make(map[uint64]int32, 64)
				for r := 0; r < n; r++ {
					f := col.floats[r]
					if math.IsNaN(f) {
						// Every NaN renders "NaN", one group.
						f = math.NaN()
					}
					k := math.Float64bits(f)
					g, ok := byKey[k]
					if !ok {
						g = int32(len(firstRow))
						byKey[k] = g
						firstRow = append(firstRow, int32(r))
					}
					gids[r] = g
				}
				return gids, firstRow
			case algebra.TypeString:
				if len(col.dict) < n {
					return groupByCode(col, n, gids)
				}
				byKey := make(map[string]int32, 64)
				for r := 0; r < n; r++ {
					k := col.strAt(r)
					g, ok := byKey[k]
					if !ok {
						g = int32(len(firstRow))
						byKey[k] = g
						firstRow = append(firstRow, int32(r))
					}
					gids[r] = g
				}
				return gids, firstRow
			}
		}
	}
	byKey := make(map[string]int32, 64)
	var key strings.Builder
	for r := 0; r < n; r++ {
		key.Reset()
		for _, gi := range groupIdx {
			key.WriteString(in.cols[gi].valueAt(r).String())
			key.WriteByte('|')
		}
		k := key.String()
		g, ok := byKey[k]
		if !ok {
			g = int32(len(firstRow))
			byKey[k] = g
			firstRow = append(firstRow, int32(r))
		}
		gids[r] = g
	}
	return gids, firstRow
}
