package engine

import (
	"math"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// Vectorized joins. Both join operators match exactly the same pairs, the
// nested loop's Value.Equal pairs, and differ only in emission order and
// block charge. Each produces its output by first collecting (left, right)
// row-index pairs in exactly the emission order of the row reference
// executor, then gathering every output column once — no per-row tuple
// allocation, no per-value interface dispatch on the typed fast paths. An
// input that carries a selection (a σ below the join) is matched on its
// condition columns, gathered by the selection (joinInputs), and its output
// columns are gathered straight from its own by the pairs composed with the
// selection.

// pairMatcher reports whether left row li matches right row ri under one
// resolved equi-condition.
type pairMatcher func(li, ri int) bool

// condMatcher builds the match kernel for one join condition. Typed
// non-null numeric columns compare through float64 with Value.Compare's
// exact three-way arithmetic — both orderings failing means "equal",
// which is how the row engine matches NaN against anything — and typed
// non-null string columns compare directly; anything else (nulls, a string
// against a number) falls back to Value.Equal per pair, which is
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
	switch c.kind {
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
	if c.kind == algebra.TypeFloat {
		for _, f := range c.floats[:c.n] {
			if math.IsNaN(f) {
				return false
			}
		}
	}
	return true
}

// stringCol reports whether the column feeds the typed string kernels.
func stringCol(c *colvec) bool {
	return !c.hasNulls() && c.kind == algebra.TypeString
}

// numAt returns a typed numeric column's float64 image at row i.
func (c *colvec) numAt(i int) float64 {
	if c.kind == algebra.TypeFloat {
		return c.floats[i]
	}
	return float64(c.ints[i])
}

// joinInputs returns what the join matches on: each input, its condition
// columns gathered by its selection when it carries one (see denseCols).
func joinInputs(conds []condIdx, left, right *Table) (*Table, *Table) {
	if left.sel == nil && right.sel == nil {
		return left, right
	}
	li, ri := make([]int, len(conds)), make([]int, len(conds))
	for i, c := range conds {
		li[i], ri[i] = c.li, c.ri
	}
	return left.denseCols(li...), right.denseCols(ri...)
}

// throughSel maps the row positions idx of a table to its columns' rows, in
// place: through its selection when it carries one.
func throughSel(t *Table, idx []int32) {
	if t.sel != nil {
		for k, i := range idx {
			idx[k] = t.sel[i]
		}
	}
}

// joinOutput gathers the matched pairs into the result table — left
// columns by lidx, right columns by ridx, one pass per column — and
// accounts the operator under its label and read charge.
func (db *DB) joinOutput(label string, reads int64, left, right *Table, lidx, ridx []int32, res *Result) *Table {
	out := &Table{Name: "", Schema: left.Schema.Concat(right.Schema), BlockRows: db.BlockRows, nrows: len(lidx)}
	out.cols = make([]*colvec, 0, len(left.cols)+len(right.cols))
	throughSel(left, lidx)
	throughSel(right, ridx)
	for _, c := range left.cols {
		out.cols = append(out.cols, c.gather(lidx))
	}
	for _, c := range right.cols {
		out.cols = append(out.cols, c.gather(ridx))
	}
	db.account(res, OpStats{
		Label:     label,
		Reads:     reads,
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	})
	return out
}

// joinMatchers picks the first condition whose two columns are both
// equalityIndexable, or -1: the condition an equalityIndex answers exactly.
// It returns a matcher for every other condition.
func joinMatchers(conds []condIdx, left, right *Table) (keyed int, ms []pairMatcher) {
	keyed = -1
	for i, ci := range conds {
		lc, rc := left.cols[ci.li], right.cols[ci.ri]
		if keyed < 0 && equalityIndexable(lc) && equalityIndexable(rc) {
			keyed = i
			continue
		}
		ms = append(ms, condMatcher(lc, rc))
	}
	return keyed, ms
}

// matchAll reports whether rows li and ri satisfy every matcher.
func matchAll(ms []pairMatcher, li, ri int) bool {
	for _, m := range ms {
		if !m(li, ri) {
			return false
		}
	}
	return true
}

// keepMatching drops the pairs some matcher rejects, in place and in order:
// the index answers the keyed condition, the matchers the others.
func keepMatching(ms []pairMatcher, lidx, ridx []int32) ([]int32, []int32) {
	if len(ms) == 0 {
		return lidx, ridx
	}
	n := 0
	for i := range lidx {
		if matchAll(ms, int(lidx[i]), int(ridx[i])) {
			lidx[n], ridx[n] = lidx[i], ridx[i]
			n++
		}
	}
	return lidx[:n], ridx[:n]
}

// equalityIndex maps the imageKey of each of an equalityIndexable column's
// first n rows to those rows, ascending. It is the one index both join
// operators build: on such a column, key equality is condMatcher's
// equality.
func equalityIndex(c *colvec, n int) map[uint64][]int32 {
	idx := make(map[uint64][]int32, n)
	for i := 0; i < n; i++ {
		k := imageKey(c.numAt(i))
		idx[k] = append(idx[k], int32(i))
	}
	return idx
}

// matchLists looks each of the probe column's first n rows up in idx once:
// lists[i] is the ascending indexed rows whose key equals row i's, and
// pairs is the lists' total length.
func matchLists(idx map[uint64][]int32, probe *colvec, n int) (lists [][]int32, pairs int) {
	lists = make([][]int32, n)
	for i := range lists {
		lists[i] = idx[imageKey(probe.numAt(i))]
		pairs += len(lists[i])
	}
	return lists, pairs
}

// imageKey is the bits of a float64 image with -0 folded into +0: on
// images that are not NaN, imageKey(x) == imageKey(y) iff x == y, and a
// uint64 key takes the map's fast path.
func imageKey(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// batchJoin is the vectorized block nested-loop join. The loop order —
// outer block, then every inner row, then the rows of the outer block —
// is the reference executor's, so output rows land in the identical
// order; the I/O charge is the BlockNLJ model's blocks(outer) +
// blocks(outer)·blocks(inner).
func (db *DB) batchJoin(j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	conds, err := resolveJoinConds(j, left, right)
	if err != nil {
		return nil, err
	}
	lm, rm := joinInputs(conds, left, right)
	keyed, ms := joinMatchers(conds, lm, rm)
	var lidx, ridx []int32
	outerBlocks := left.NumBlocks()
	nLeft, nRight := left.NumRows(), right.NumRows()
	if keyed >= 0 {
		// An equality index over the left rows replaces the inner loop on
		// the keyed condition, and each right row looks its list up once;
		// keepMatching then tests the other conditions. A stable counting
		// pass buckets the pairs by outer block: right rows ascending, and
		// each list ascending, so every block's pairs come out right row
		// by right row, left rows ascending — the triple loop's order, at
		// O(L + R + pairs + blocks).
		idx := equalityIndex(lm.cols[conds[keyed].li], nLeft)
		lists, pairs := matchLists(idx, rm.cols[conds[keyed].ri], nRight)
		// at[b] counts block b-1's pairs, then (summed) is where block b's
		// pairs start, then where its next pair goes.
		at := make([]int, outerBlocks+1)
		for _, lst := range lists {
			for _, li := range lst {
				at[int(li)/left.BlockRows+1]++
			}
		}
		for b := 1; b <= outerBlocks; b++ {
			at[b] += at[b-1]
		}
		lidx, ridx = make([]int32, pairs), make([]int32, pairs)
		for ri, lst := range lists {
			for _, li := range lst {
				b := int(li) / left.BlockRows
				lidx[at[b]], ridx[at[b]] = li, int32(ri)
				at[b]++
			}
		}
		lidx, ridx = keepMatching(ms, lidx, ridx)
	} else {
		for ob := 0; ob < outerBlocks; ob++ {
			lo := ob * left.BlockRows
			hi := min(lo+left.BlockRows, nLeft)
			for ri := 0; ri < nRight; ri++ {
				for li := lo; li < hi; li++ {
					if matchAll(ms, li, ri) {
						lidx = append(lidx, int32(li))
						ridx = append(ridx, int32(ri))
					}
				}
			}
		}
	}
	reads := int64(outerBlocks) + int64(outerBlocks)*int64(right.NumBlocks())
	return db.joinOutput(j.Label(), reads, left, right, lidx, ridx, res), nil
}

// batchHashJoin is the hash join: it matches exactly the pairs batchJoin
// matches and charges blocks(left) + blocks(right). It builds an
// equalityIndex over the right rows on the keyed condition and probes it
// with the left rows in order, so output lands left row ascending, then its
// right matches ascending. A join without an indexable condition (NaN,
// null, string or mixed-kind keys) runs its matchers pair by pair
// in the same probe order.
func (db *DB) batchHashJoin(j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	conds, err := resolveJoinConds(j, left, right)
	if err != nil {
		return nil, err
	}
	lm, rm := joinInputs(conds, left, right)
	keyed, ms := joinMatchers(conds, lm, rm)
	var lidx, ridx []int32
	nLeft, nRight := left.NumRows(), right.NumRows()
	if keyed >= 0 {
		idx := equalityIndex(rm.cols[conds[keyed].ri], nRight)
		lists, pairs := matchLists(idx, lm.cols[conds[keyed].li], nLeft)
		lidx, ridx = make([]int32, 0, pairs), make([]int32, 0, pairs)
		for li, lst := range lists {
			for _, ri := range lst {
				lidx = append(lidx, int32(li))
				ridx = append(ridx, ri)
			}
		}
		lidx, ridx = keepMatching(ms, lidx, ridx)
	} else {
		for li := 0; li < nLeft; li++ {
			for ri := 0; ri < nRight; ri++ {
				if matchAll(ms, li, ri) {
					lidx = append(lidx, int32(li))
					ridx = append(ridx, int32(ri))
				}
			}
		}
	}
	reads := int64(left.NumBlocks()) + int64(right.NumBlocks())
	return db.joinOutput("hash "+j.Label(), reads, left, right, lidx, ridx, res), nil
}
