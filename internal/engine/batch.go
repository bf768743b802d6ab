package engine

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// This file holds the vectorized select/project operators and the
// predicate kernels they run on. The batch executor is the only one a
// binary links; its contract, enforced by the differential harness, is
// bit-identical behavior with the row reference executor in
// rowexec_test.go — same output rows in the same order, same per-operator
// stats, and the same error for the same plan.
//
// A predicate is evaluated into a selection vector: the ascending row
// indexes (lanes) on which it holds, computed from the vector of lanes it
// is still undecided on (nil: every row). And narrows the vector conjunct
// by conjunct, Or evaluates each disjunct on the lanes no earlier one
// accepted, Not complements within its input — so a lane an earlier operand
// decided never evaluates a later one, which is the row engine's
// short-circuit. Errors are the subtle part: the row engine evaluates rows
// in order and stops at the first row that fails. Only that row's error is
// observable, so the kernels track the lowest failed lane and nothing else:
// every lane at or above it is dead — whatever the vectors say about it is
// discarded with the result — while every lane below it has not failed and
// keeps being evaluated exactly, and may still become the new lowest.

// laneFail is the lowest-indexed lane whose evaluation failed, with the
// first error it hit — the error the row-at-a-time loop would return.
type laneFail struct {
	lane int32
	err  error
}

func (f *laneFail) set(lane int32, err error) {
	if f.err == nil || lane < f.lane {
		f.lane, f.err = lane, err
	}
}

// numLanes is how many lanes the selection vector sel names over n rows.
func numLanes(sel []int32, n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// laneAt returns the k-th lane of the selection vector.
func laneAt(sel []int32, k int) int32 {
	if sel == nil {
		return int32(k)
	}
	return sel[k]
}

// diffLanes returns the lanes of sel (over n rows) that are not in sub, a
// subset of it.
func diffLanes(sel []int32, n int, sub []int32) []int32 {
	m := numLanes(sel, n)
	out := make([]int32, 0, m-len(sub))
	for k := 0; k < m; k++ {
		if i := laneAt(sel, k); len(sub) > 0 && sub[0] == i {
			sub = sub[1:]
		} else {
			out = append(out, i)
		}
	}
	return out
}

// mergeLanes merges two disjoint selection vectors.
func mergeLanes(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// batchSelect evaluates the predicate into a selection vector over the
// lanes the input selects (every row of a dense input) and returns the
// input's columns with that vector: it gathers nothing. Whatever consumes
// the result gathers the columns it keeps, once — a π none, a join or γ
// its own, Execute the root's. I/O accounting is identical to the row
// executor: every input block is read, every output block written.
func (db *DB) batchSelect(sel *algebra.Select, in *Table, res *Result) (*Table, error) {
	var f laneFail
	lanes := evalPredBatch(sel.Pred, in, in.sel, &f)
	if f.err != nil {
		return nil, fmt.Errorf("engine: %w", f.err)
	}
	out := &Table{Schema: sel.Schema(), BlockRows: db.BlockRows, cols: in.cols, nrows: len(lanes), sel: lanes, shared: in.storedCols()}
	stats := OpStats{
		Label:     sel.Label(),
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// batchProject re-binds whole columns to the output schema, with the
// input's selection vector — zero copies, zero per-row work. Published
// tables are immutable, so sharing the column vectors is safe; only the
// accounting touches the block counts.
func (db *DB) batchProject(p *algebra.Project, in *Table, res *Result) (*Table, error) {
	r, err := resolveProjection(p, in)
	if err != nil {
		return nil, err
	}
	out := &Table{Name: "", Schema: r.Out, BlockRows: db.BlockRows, nrows: in.nrows, sel: in.sel, shared: in.storedCols()}
	out.cols = make([]*colvec, len(r.Idx))
	for i, j := range r.Idx {
		out.cols[i] = in.cols[j]
	}
	stats := OpStats{
		Label:     r.Label,
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// evalPredBatch returns the lanes of sel (nil: every row of tab, which then
// carries no selection) on which p holds, as a vector that is never nil and
// that no caller writes into — fresh, the input, or a column's postings
// list — and records the lowest failing lane in f.
func evalPredBatch(p algebra.Predicate, tab *Table, sel []int32, f *laneFail) []int32 {
	n := tab.NumRows()
	switch v := p.(type) {
	case *algebra.Comparison:
		return evalCompareBatch(v, tab, sel, f)
	case *algebra.And:
		for _, c := range v.Preds {
			sel = evalPredBatch(c, tab, sel, f)
		}
		if sel == nil { // no conjuncts over every row: all of them hold
			return diffLanes(nil, n, nil)
		}
		return sel
	case *algebra.Or:
		held := []int32{}
		for i, c := range v.Preds {
			sub := evalPredBatch(c, tab, sel, f)
			if i < len(v.Preds)-1 {
				sel = diffLanes(sel, n, sub)
			}
			if len(held) == 0 {
				held = sub
			} else if len(sub) > 0 {
				held = mergeLanes(held, sub)
			}
		}
		return held
	case *algebra.Not:
		return diffLanes(sel, n, evalPredBatch(v.Pred, tab, sel, f))
	default:
		failLanes(sel, n, f, fmt.Errorf("engine: cannot evaluate predicate type %T", p))
		return []int32{}
	}
}

// failLanes fails every lane of sel with err; only the lowest is recorded.
func failLanes(sel []int32, n int, f *laneFail, err error) {
	if numLanes(sel, n) > 0 {
		f.set(laneAt(sel, 0), err)
	}
}

// cmpHolds mirrors algebra.CompareOp.holds over a three-way comparison.
func cmpHolds(op algebra.CompareOp, cmp int) bool {
	switch op {
	case algebra.OpEq:
		return cmp == 0
	case algebra.OpNotEq:
		return cmp != 0
	case algebra.OpLt:
		return cmp < 0
	case algebra.OpLe:
		return cmp <= 0
	case algebra.OpGt:
		return cmp > 0
	case algebra.OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// holdsTable resolves the operator once, outside the lane loops: entry
// cmp+1 says whether the three-way result cmp (-1, 0, 1) satisfies op.
func holdsTable(op algebra.CompareOp) (want [3]bool) {
	for cmp := -1; cmp <= 1; cmp++ {
		want[cmp+1] = cmpHolds(op, cmp)
	}
	return want
}

// cmpSide is one resolved comparison operand: either a literal or a
// column of the input table.
type cmpSide struct {
	col *colvec // nil for a literal
	lit algebra.Value
}

// value returns the operand's value for lane i.
func (s cmpSide) value(i int32) algebra.Value {
	if s.col == nil {
		return s.lit
	}
	return s.col.valueAt(int(i))
}

// numeric reports whether the operand is numeric on every lane (numeric
// literal, or a typed non-null int/float/date column) and can feed the
// float64 kernels.
func (s cmpSide) numeric() bool {
	if s.col != nil {
		return numericCol(s.col)
	}
	switch s.lit.Kind {
	case algebra.TypeInt, algebra.TypeFloat, algebra.TypeDate:
		return true
	}
	return false
}

// isString reports whether the operand is a string on every lane.
func (s cmpSide) isString() bool {
	if s.col != nil {
		return stringCol(s.col)
	}
	return s.lit.Kind == algebra.TypeString
}

// number is a typed numeric payload. Ints and dates convert through
// float64 exactly as Value.Compare does, so the kernels agree with the row
// engine bit for bit (NaN compares "equal" to everything, -0 equals +0,
// ints beyond 2^53 collapse the same way).
type number interface{ int64 | float64 }

// threeWay orders x against y as an index into holdsTable: 0 below, 1
// neither below nor above (equal, or a NaN on either side), 2 above.
func threeWay[T float64 | string](x, y T) int {
	if x < y {
		return 0
	} else if x > y {
		return 2
	}
	return 1
}

// numLitLanes keeps the lanes of sel on which a[i] op lit holds.
func numLitLanes[A number](a []A, lit float64, want [3]bool, sel, out []int32) []int32 {
	j := 0
	for k := range out {
		if i := laneAt(sel, k); want[threeWay(float64(a[i]), lit)] {
			out[j] = i
			j++
		}
	}
	return out[:j]
}

// numColLanes keeps the lanes of sel on which a[i] op b[i] holds.
func numColLanes[A, B number](a []A, b []B, want [3]bool, sel, out []int32) []int32 {
	j := 0
	for k := range out {
		if i := laneAt(sel, k); want[threeWay(float64(a[i]), float64(b[i]))] {
			out[j] = i
			j++
		}
	}
	return out[:j]
}

// strLanes keeps the lanes of sel on which a's string op b's holds — or,
// with b nil, a's string op lit — comparing every lane's own strings.
// Equality has its own loop: it never orders the strings, and sharing a
// loop with the ordered form cost the per-lane `attr = 'v'` filter half
// again its time.
func strLanes(a, b *colvec, lit string, op algebra.CompareOp, sel, out []int32) []int32 {
	j := 0
	if op == algebra.OpEq || op == algebra.OpNotEq {
		for k := range out {
			i := laneAt(sel, k)
			if b != nil {
				lit = b.strAt(int(i))
			}
			if (a.strAt(int(i)) == lit) == (op == algebra.OpEq) {
				out[j] = i
				j++
			}
		}
		return out[:j]
	}
	want := holdsTable(op)
	for k := range out {
		i := laneAt(sel, k)
		if b != nil {
			lit = b.strAt(int(i))
		}
		if want[threeWay(a.strAt(int(i)), lit)] {
			out[j] = i
			j++
		}
	}
	return out[:j]
}

// strLitLanes keeps the lanes of sel on which a's string op lit holds. When
// a's dictionary is shorter than the lanes — the pooled attribute a cache
// miss filters on — it compares each dictionary entry once, into a table
// indexed by code, and then the lanes run one code lookup each; otherwise
// every lane compares its own string (strLanes).
func strLitLanes(a *colvec, lit string, op algebra.CompareOp, sel, out []int32) []int32 {
	if len(a.dict) >= len(out) {
		return strLanes(a, nil, lit, op, sel, out)
	}
	var buf [256]uint8
	hold := buf[:0]
	if len(a.dict) > len(buf) {
		hold = make([]uint8, 0, len(a.dict))
	}
	want := holdsTable(op)
	for _, s := range a.dict {
		var h uint8
		if want[threeWay(s, lit)] {
			h = 1
		}
		hold = append(hold, h)
	}
	return codeLanes(a.codes, hold, sel, out)
}

// codeLanes keeps the lanes of sel whose code the table holds (1) and drops
// the rest (0). Every lane is written and the count advances by the table
// entry, so the loop has no branch on the data.
func codeLanes(codes []uint32, hold []uint8, sel, out []int32) []int32 {
	j := 0
	if sel == nil {
		for i, code := range codes[:len(out)] {
			out[j] = int32(i)
			j += int(hold[code])
		}
		return out[:j]
	}
	for _, i := range sel {
		out[j] = i
		j += int(hold[codes[i]])
	}
	return out[:j]
}

// evalCompareBatch evaluates one comparison over the lanes of sel. The
// operand classes are resolved once. A stored relation's null-free string
// column equal to a literal, with a dictionary shorter than the column,
// reads the literal's postings list; any other column on the left with
// typed, null-free operands runs a typed lane loop; everything else —
// nulls, two operands of different kinds, a literal on the left
// (algebra.Compare never builds one) — compares value-at-a-time.
func evalCompareBatch(c *algebra.Comparison, tab *Table, sel []int32, f *laneFail) []int32 {
	n := tab.NumRows()
	left, ok := resolveSide(c.Left, tab, sel, n, f)
	if !ok {
		return []int32{}
	}
	right, ok := resolveSide(c.Right, tab, sel, n, f)
	if !ok {
		return []int32{}
	}
	l, r := left.col, right.col
	if c.Op == algebra.OpEq && r == nil && l != nil && left.isString() && right.isString() &&
		len(l.dict) < l.n && tab.storedCols() {
		return l.eqLanes(right.lit.Str, sel)
	}
	out := make([]int32, numLanes(sel, n))
	switch {
	case l != nil && left.numeric() && right.numeric():
		want := holdsTable(c.Op)
		if r == nil {
			lit := float64(right.lit.Int)
			if right.lit.Kind == algebra.TypeFloat {
				lit = right.lit.Float
			}
			if l.kind == algebra.TypeFloat {
				return numLitLanes(l.floats, lit, want, sel, out)
			}
			return numLitLanes(l.ints, lit, want, sel, out)
		}
		switch lf, rf := l.kind == algebra.TypeFloat, r.kind == algebra.TypeFloat; {
		case lf && rf:
			return numColLanes(l.floats, r.floats, want, sel, out)
		case lf:
			return numColLanes(l.floats, r.ints, want, sel, out)
		case rf:
			return numColLanes(l.ints, r.floats, want, sel, out)
		default:
			return numColLanes(l.ints, r.ints, want, sel, out)
		}
	case l != nil && left.isString() && right.isString():
		if r == nil {
			return strLitLanes(l, right.lit.Str, c.Op, sel, out)
		}
		return strLanes(l, r, "", c.Op, sel, out)
	}
	// Wrap comparison errors exactly as Comparison.Eval does. Lanes above
	// the first failure are dead, so the loop stops there.
	want, j := holdsTable(c.Op), 0
	for k := range out {
		i := laneAt(sel, k)
		cmp, err := left.value(i).Compare(right.value(i))
		if err != nil {
			f.set(i, fmt.Errorf("algebra: evaluating %s: %w", c, err))
			break
		}
		if want[cmp+1] {
			out[j] = i
			j++
		}
	}
	return out[:j]
}

// resolveSide binds one comparison operand against the table. An unbound
// column reference fails every lane with the same error the row-at-a-time
// Operand.eval produces, and reports !ok so the caller skips the right
// operand, mirroring the row engine's left-then-right evaluation order.
func resolveSide(o algebra.Operand, tab *Table, sel []int32, n int, f *laneFail) (cmpSide, bool) {
	if !o.IsColumn {
		return cmpSide{lit: o.Lit}, true
	}
	// Predicates resolve through Binding.ColumnValue, which uses the
	// first-match IndexOf rule, not the ambiguity-checking Resolve.
	idx := tab.Schema.IndexOf(o.Col)
	if idx < 0 {
		failLanes(sel, n, f, fmt.Errorf("algebra: unbound column %s", o.Col))
		return cmpSide{}, false
	}
	return cmpSide{col: tab.cols[idx]}, true
}
