package engine

import (
	"math"
	"slices"
	"strings"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// batchAggregate is the vectorized hash aggregation: a first pass assigns
// every row a group id (first-seen group order, same as the reference
// executor), then each aggregate runs as a typed column loop over the
// group-id vector. Columns that carry nulls or mixed kinds fall back to
// the reference accumulator value-at-a-time, which keeps error behavior
// (e.g. SUM over a non-numeric value) bit-identical. An input that carries
// a selection has its key and argument columns gathered by it, and no other.
func (db *DB) batchAggregate(agg *algebra.Aggregate, in *Table, res *Result) (*Table, error) {
	groupIdx, argIdx, err := resolveAggregate(agg, in)
	if err != nil {
		return nil, err
	}
	if in.sel != nil {
		in = in.denseCols(append(slices.Clip(groupIdx), argIdx...)...)
	}
	n := in.NumRows()
	gids, firstRow := assignGroups(in, groupIdx)
	nGroups := len(firstRow)

	// Group sizes serve COUNT directly (the accumulator counts every row,
	// nulls included) and AVG denominators.
	sizes := make([]int64, nGroups)
	for _, g := range gids {
		sizes[g]++
	}

	type aggState struct {
		sumI  []int64
		sumF  []float64
		isF   bool
		minI  []int64 // MIN/MAX payloads for typed numeric/string columns
		maxI  []int64
		minF  []float64
		maxF  []float64
		minS  []string
		maxS  []string
		seen  []bool
		accs  []*accumulator // value-at-a-time fallback
		kind  algebra.Type
		typed bool
	}
	states := make([]*aggState, len(agg.Aggs))
	var fallback []int // agg positions evaluated row-at-a-time, in order
	for i, a := range agg.Aggs {
		st := &aggState{}
		states[i] = st
		if argIdx[i] < 0 || a.Func == algebra.AggCount {
			continue // served by sizes
		}
		col := in.cols[argIdx[i]]
		k := col.kind
		vectorizable := !col.hasNulls() &&
			(k == algebra.TypeInt || k == algebra.TypeDate || k == algebra.TypeFloat ||
				(k == algebra.TypeString && (a.Func == algebra.AggMin || a.Func == algebra.AggMax)))
		if !vectorizable {
			st.accs = make([]*accumulator, nGroups)
			for g := range st.accs {
				st.accs[g] = &accumulator{fn: a.Func}
			}
			fallback = append(fallback, i)
			continue
		}
		st.typed, st.kind = true, k
		switch a.Func {
		case algebra.AggSum, algebra.AggAvg:
			st.sumI = make([]int64, nGroups)
			st.sumF = make([]float64, nGroups)
			st.isF = k == algebra.TypeFloat
		case algebra.AggMin, algebra.AggMax:
			st.seen = make([]bool, nGroups)
			switch k {
			case algebra.TypeInt, algebra.TypeDate:
				st.minI = make([]int64, nGroups)
				st.maxI = make([]int64, nGroups)
			case algebra.TypeFloat:
				st.minF = make([]float64, nGroups)
				st.maxF = make([]float64, nGroups)
			case algebra.TypeString:
				st.minS = make([]string, nGroups)
				st.maxS = make([]string, nGroups)
			}
		}
	}

	// Typed accumulation: one pass per vectorized aggregate.
	for i, a := range agg.Aggs {
		st := states[i]
		if !st.typed {
			continue
		}
		col := in.cols[argIdx[i]]
		switch a.Func {
		case algebra.AggSum, algebra.AggAvg:
			if st.kind == algebra.TypeFloat {
				for r, g := range gids {
					st.sumF[g] += col.floats[r]
				}
			} else {
				for r, g := range gids {
					st.sumI[g] += col.ints[r]
					st.sumF[g] += float64(col.ints[r])
				}
			}
		case algebra.AggMin, algebra.AggMax:
			accumMinMax(st.seen, st.minI, st.maxI, st.minF, st.maxF, st.minS, st.maxS, col, gids)
		}
	}

	// Fallback accumulation: rows in order, aggregates in order within the
	// row — the reference executor's loop nest, so the first error matches.
	if len(fallback) > 0 {
		for r := 0; r < n; r++ {
			g := gids[r]
			for _, i := range fallback {
				v := in.cols[argIdx[i]].valueAt(r)
				if err := states[i].accs[g].add(v); err != nil {
					return nil, err
				}
			}
		}
	}

	out := NewTable("", agg.Schema(), db.BlockRows)
	for g := 0; g < nGroups; g++ {
		row := make([]algebra.Value, 0, len(groupIdx)+len(agg.Aggs))
		for _, gi := range groupIdx {
			row = append(row, in.cols[gi].valueAt(int(firstRow[g])))
		}
		for i, a := range agg.Aggs {
			st := states[i]
			switch {
			case argIdx[i] < 0 || a.Func == algebra.AggCount:
				row = append(row, algebra.IntVal(sizes[g]))
			case st.typed && (a.Func == algebra.AggSum):
				if st.isF {
					row = append(row, algebra.FloatVal(st.sumF[g]))
				} else {
					row = append(row, algebra.IntVal(st.sumI[g]))
				}
			case st.typed && a.Func == algebra.AggAvg:
				if sizes[g] == 0 {
					row = append(row, algebra.FloatVal(0))
				} else {
					row = append(row, algebra.FloatVal(st.sumF[g]/float64(sizes[g])))
				}
			case st.typed && a.Func == algebra.AggMin:
				row = append(row, minMaxValue(st.kind, st.minI, st.minF, st.minS, g))
			case st.typed && a.Func == algebra.AggMax:
				row = append(row, minMaxValue(st.kind, st.maxI, st.maxF, st.maxS, g))
			default:
				row = append(row, st.accs[g].result())
			}
		}
		if err := out.Insert(row); err != nil {
			return nil, err
		}
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

// accumMinMax folds one typed column into per-group min/max payloads.
// Comparisons are strict (replace only on <, resp. >), matching the
// accumulator's keep-first-on-ties behavior; numeric columns compare
// through float64 exactly as Value.Compare does.
func accumMinMax(seen []bool, minI, maxI []int64, minF, maxF []float64, minS, maxS []string, col *colvec, gids []int32) {
	switch {
	case minI != nil:
		for r, g := range gids {
			v := col.ints[r]
			if !seen[g] {
				seen[g], minI[g], maxI[g] = true, v, v
				continue
			}
			if float64(v) < float64(minI[g]) {
				minI[g] = v
			}
			if float64(v) > float64(maxI[g]) {
				maxI[g] = v
			}
		}
	case minF != nil:
		for r, g := range gids {
			v := col.floats[r]
			if !seen[g] {
				seen[g], minF[g], maxF[g] = true, v, v
				continue
			}
			if v < minF[g] {
				minF[g] = v
			}
			if v > maxF[g] {
				maxF[g] = v
			}
		}
	case minS != nil:
		for r, g := range gids {
			v := col.strAt(r)
			if !seen[g] {
				seen[g], minS[g], maxS[g] = true, v, v
				continue
			}
			if v < minS[g] {
				minS[g] = v
			}
			if v > maxS[g] {
				maxS[g] = v
			}
		}
	}
}

// minMaxValue rebuilds the stored min/max payload as a Value of the
// column's kind — identical to the original value the accumulator would
// have retained, since typed columns are kind-uniform.
func minMaxValue(kind algebra.Type, ints []int64, floats []float64, strs []string, g int) algebra.Value {
	switch kind {
	case algebra.TypeFloat:
		return algebra.Value{Kind: algebra.TypeFloat, Float: floats[g]}
	case algebra.TypeString:
		return algebra.Value{Kind: algebra.TypeString, Str: strs[g]}
	default:
		return algebra.Value{Kind: kind, Int: ints[g]}
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
