package engine

import (
	"fmt"
	"math"
	"strings"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// Vectorized joins. Both join operators produce their output by first
// collecting (left, right) row-index pairs in exactly the emission order
// of the row reference executor, then gathering every output column once
// — no per-row tuple allocation, no per-value interface dispatch on the
// typed fast paths.

// pairMatcher reports whether left row li matches right row ri under one
// resolved equi-condition.
type pairMatcher func(li, ri int) bool

// condMatcher builds the match kernel for one join condition. Typed
// non-null numeric columns compare through float64 with Value.Compare's
// exact three-way arithmetic — both orderings failing means "equal",
// which is how the row engine matches NaN against anything — and typed
// non-null string columns compare directly; anything else (nulls, mixed
// kinds, generic columns) falls back to Value.Equal per pair, which is
// also what makes nulls never match, same as the row engine.
func condMatcher(lc, rc *colvec) pairMatcher {
	ln, rn := numericCol(lc), numericCol(rc)
	switch {
	case ln && rn:
		lk, rk := lc.kind, rc.kind
		if lk != algebra.TypeFloat && rk != algebra.TypeFloat {
			return func(li, ri int) bool {
				return float64(lc.ints[li]) == float64(rc.ints[ri])
			}
		}
		return func(li, ri int) bool {
			x, y := lc.numAt(li), rc.numAt(ri)
			return !(x < y) && !(x > y)
		}
	case stringCol(lc) && stringCol(rc):
		return func(li, ri int) bool { return lc.strAt(li) == rc.strAt(ri) }
	default:
		return func(li, ri int) bool { return lc.valueAt(li).Equal(rc.valueAt(ri)) }
	}
}

// numericCol reports whether the column feeds the typed numeric kernels.
func numericCol(c *colvec) bool {
	if c.hasNulls() {
		return false
	}
	switch c.typedKind() {
	case algebra.TypeInt, algebra.TypeFloat, algebra.TypeDate:
		return true
	}
	return false
}

// equalityIndexable reports whether a column's join matching reduces to
// plain float64-image equality: typed numeric, no nulls, and — for float
// columns — no NaN lanes, since Value.Compare makes NaN "equal" to
// everything while map lookups would make it equal to nothing.
func equalityIndexable(c *colvec) bool {
	if !numericCol(c) {
		return false
	}
	if c.typedKind() == algebra.TypeFloat {
		for _, f := range c.floats[:c.n] {
			if math.IsNaN(f) {
				return false
			}
		}
	}
	return true
}

// hashMatchesNestedLoop reports whether the hash operator and the
// nested-loop kernel match exactly the same row pairs on this join: every
// key column on both sides is equalityIndexable — the nested loop then
// matches on float64-image equality, and NaN and null keys, which it
// matches differently from any hash table, are absent — and every int key
// is a float64 image of itself (|k| ≤ 2^53), where the hash classes (exact
// int64 for ints and whole floats, the bits of a fractional float) are the
// same equality. A join without conditions, or one whose conditions do not
// resolve, stays with the nested-loop kernel and its error.
func hashMatchesNestedLoop(j *algebra.Join, left, right *Table) bool {
	conds, err := resolveJoinConds(j, left, right)
	if err != nil || len(conds) == 0 {
		return false
	}
	exact := func(c *colvec) bool {
		if !equalityIndexable(c) {
			return false
		}
		if c.typedKind() != algebra.TypeFloat {
			for _, k := range c.ints[:c.n] {
				if k > 1<<53 || k < -(1<<53) {
					return false
				}
			}
		}
		return true
	}
	for _, ci := range conds {
		if !exact(left.cols[ci.li]) || !exact(right.cols[ci.ri]) {
			return false
		}
	}
	return true
}

// stringCol reports whether the column feeds the typed string kernels.
func stringCol(c *colvec) bool {
	return !c.hasNulls() && c.typedKind() == algebra.TypeString
}

// numAt returns a typed numeric column's float64 image at row i.
func (c *colvec) numAt(i int) float64 {
	if c.kind == algebra.TypeFloat {
		return c.floats[i]
	}
	return float64(c.ints[i])
}

// joinOutput gathers the matched pairs into the result table: left
// columns by lidx, right columns by ridx, one pass per column.
func (db *DB) joinOutput(joined *algebra.Schema, left, right *Table, lidx, ridx []int32) *Table {
	out := &Table{Name: "", Schema: joined, BlockRows: db.BlockRows, nrows: len(lidx)}
	out.cols = make([]*colvec, 0, len(left.cols)+len(right.cols))
	for _, c := range left.cols {
		out.cols = append(out.cols, c.gather(lidx))
	}
	for _, c := range right.cols {
		out.cols = append(out.cols, c.gather(ridx))
	}
	return out
}

// batchJoin is the vectorized block nested-loop join. The loop order —
// outer block, then every inner row, then the rows of the outer block —
// is the reference executor's, so output rows land in the identical
// order; the I/O charge is the BlockNLJ model's blocks(outer) +
// blocks(outer)·blocks(inner).
func (db *DB) batchJoin(j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	joined := left.Schema.Concat(right.Schema)
	conds, err := resolveJoinConds(j, left, right)
	if err != nil {
		return nil, err
	}
	var lidx, ridx []int32
	outerBlocks := left.NumBlocks()
	nLeft, nRight := left.NumRows(), right.NumRows()
	if len(conds) == 1 && equalityIndexable(left.cols[conds[0].li]) && equalityIndexable(right.cols[conds[0].ri]) {
		// Single numeric condition with no NaN lanes: matching is plain
		// float64-image equality, so an equality index over the left rows
		// replaces the per-pair inner loop. Emission order is preserved —
		// each index list is ascending, and for every (outer block, right
		// row) the matches inside the block come out in row order, exactly
		// the triple loop's order.
		lc, rc := left.cols[conds[0].li], right.cols[conds[0].ri]
		idx := make(map[float64][]int32, nLeft)
		for li := 0; li < nLeft; li++ {
			k := lc.numAt(li)
			idx[k] = append(idx[k], int32(li))
		}
		rkeys := make([]float64, nRight)
		for ri := range rkeys {
			rkeys[ri] = rc.numAt(ri)
		}
		for ob := 0; ob < outerBlocks; ob++ {
			lo := ob * left.BlockRows
			hi := min(lo+left.BlockRows, nLeft)
			for ri := 0; ri < nRight; ri++ {
				lst := idx[rkeys[ri]]
				// First left match at or past the block start.
				p, q := 0, len(lst)
				for p < q {
					m := int(uint(p+q) >> 1)
					if int(lst[m]) < lo {
						p = m + 1
					} else {
						q = m
					}
				}
				for ; p < len(lst) && int(lst[p]) < hi; p++ {
					lidx = append(lidx, lst[p])
					ridx = append(ridx, int32(ri))
				}
			}
		}
	} else {
		matchers := make([]pairMatcher, len(conds))
		for i, ci := range conds {
			matchers[i] = condMatcher(left.cols[ci.li], right.cols[ci.ri])
		}
		for ob := 0; ob < outerBlocks; ob++ {
			lo := ob * left.BlockRows
			hi := min(lo+left.BlockRows, nLeft)
			for ri := 0; ri < nRight; ri++ {
				for li := lo; li < hi; li++ {
					match := true
					for _, m := range matchers {
						if !m(li, ri) {
							match = false
							break
						}
					}
					if match {
						lidx = append(lidx, int32(li))
						ridx = append(ridx, int32(ri))
					}
				}
			}
		}
	}
	out := db.joinOutput(joined, left, right, lidx, ridx)
	stats := OpStats{
		Label:     j.Label(),
		Reads:     int64(outerBlocks) + int64(outerBlocks)*int64(right.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// batchHashJoin is the vectorized hash join: build over the right input
// in row order, probe with the left in row order — the reference
// executor's emission order. Single-condition joins over typed non-null
// int/date columns build a collision-free map[int64][]int32 directly on
// the payload slices; every other shape keys on the same hashKey string
// encoding the reference executor uses, so the two agree even on its
// equivalence classes (3 == 3.0 == date(3)).
func (db *DB) batchHashJoin(j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	joined := left.Schema.Concat(right.Schema)
	conds, err := resolveJoinConds(j, left, right)
	if err != nil {
		return nil, err
	}

	var lidx, ridx []int32
	if len(conds) == 1 && intCol(left.cols[conds[0].li]) && intCol(right.cols[conds[0].ri]) {
		lc, rc := left.cols[conds[0].li], right.cols[conds[0].ri]
		build := make(map[int64][]int32, right.NumRows())
		for ri, k := range rc.ints[:right.NumRows()] {
			build[k] = append(build[k], int32(ri))
		}
		for li, k := range lc.ints[:left.NumRows()] {
			for _, ri := range build[k] {
				lidx = append(lidx, int32(li))
				ridx = append(ridx, ri)
			}
		}
	} else {
		build := make(map[string][]int32, right.NumRows())
		for ri := 0; ri < right.NumRows(); ri++ {
			key := joinKeyString(right, conds, ri, false)
			build[key] = append(build[key], int32(ri))
		}
		for li := 0; li < left.NumRows(); li++ {
			for _, ri := range build[joinKeyString(left, conds, li, true)] {
				lidx = append(lidx, int32(li))
				ridx = append(ridx, ri)
			}
		}
	}

	out := db.joinOutput(joined, left, right, lidx, ridx)
	stats := OpStats{
		Label:     "hash " + j.Label(),
		Reads:     int64(left.NumBlocks()) + int64(right.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// intCol reports whether the column is typed int/date with no nulls —
// the shapes whose hashKey classes are exactly int64 equality.
func intCol(c *colvec) bool {
	if c.hasNulls() {
		return false
	}
	k := c.typedKind()
	return k == algebra.TypeInt || k == algebra.TypeDate
}

// joinKeyString renders a row's join key with the reference executor's
// encoding (hashKey per condition, '|'-separated).
func joinKeyString(t *Table, conds []condIdx, row int, isLeft bool) string {
	var key strings.Builder
	for _, ci := range conds {
		col := ci.ri
		if isLeft {
			col = ci.li
		}
		key.WriteString(hashKey(t.cols[col].valueAt(row)))
		key.WriteByte('|')
	}
	return key.String()
}

// joinKey is the batch executor's canonical single-value join-key
// encoding: a normalized (tag, bits, string) triple whose equality is
// provably the same relation as hashKey-string equality. The int fast
// path above is the num-class specialization of this encoding; the fuzz
// target FuzzJoinKeyEncoding pins the equivalence.
type joinKey struct {
	tag byte // 'n' numeric-integral class, 'f' fractional float, 's' string
	num uint64
	str string
}

// joinKeyOf classifies a value exactly as hashKey does: ints, dates, and
// whole floats share the integral class; other floats key on their bits
// (NaNs collapse to one class, as "%g" renders every NaN "NaN"); strings
// and invalid values key on the string payload.
func joinKeyOf(v algebra.Value) joinKey {
	switch v.Kind {
	case algebra.TypeInt, algebra.TypeDate:
		return joinKey{tag: 'n', num: uint64(v.Int)}
	case algebra.TypeFloat:
		if v.Float == float64(int64(v.Float)) {
			return joinKey{tag: 'n', num: uint64(int64(v.Float))}
		}
		if math.IsNaN(v.Float) {
			return joinKey{tag: 'f', num: math.Float64bits(math.NaN())}
		}
		return joinKey{tag: 'f', num: math.Float64bits(v.Float)}
	default:
		return joinKey{tag: 's', str: v.Str}
	}
}

// hashKey normalizes a value for hash-join key comparison consistently
// with Value.Compare's numeric semantics (3 == 3.0 == date(3)).
func hashKey(v algebra.Value) string {
	switch v.Kind {
	case algebra.TypeInt, algebra.TypeDate:
		return fmt.Sprintf("n%d", v.Int)
	case algebra.TypeFloat:
		if v.Float == float64(int64(v.Float)) {
			return fmt.Sprintf("n%d", int64(v.Float))
		}
		return fmt.Sprintf("f%g", v.Float)
	default:
		return "s" + v.Str
	}
}
